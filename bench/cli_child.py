"""Traced stand-in for `python -m quasibasis.cli`, used by the cli-cold
workload's traced run.

    python3 bench/cli_child.py TRACE_JSON <cli arguments>

Times `import quasibasis.cli` and `cli.main(argv)` with the same argv,
records layer spans inside main, writes them to TRACE_JSON and exits with
main's exit code. Its standard output is the CLI's own.
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import quasibasis.cli as cli  # noqa: E402

import_ms = 1e3 * (time.perf_counter() - t0)

from tracer import Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer().install()
    tracer.active = True
    t1 = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        main_ms = 1e3 * (time.perf_counter() - t1)
        tracer.active = False
        trace_path.write_text(json.dumps({
            "import_ms": import_ms,
            "main_ms": main_ms,
            "stats": tracer.snapshot(),
        }))


if __name__ == "__main__":
    sys.exit(main())
