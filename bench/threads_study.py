"""Does QUASIBASIS_THREADS = 2 help principal_wigner at mid-size d?

    python3 bench/threads_study.py

For d in {6, 8} and QUASIBASIS_THREADS in {1, 2}, a fresh interpreter
(with every explicit BLAS thread variable removed, so QUASIBASIS_THREADS
decides) times REPS principal_wigner calls on fresh MeasureBasis objects
built from seeded random MICs. Settings alternate over ROUNDS rounds, so
a slow machine phase hits both. Prints the median, quartiles, p90 and
maximum in ms per setting, pooled over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
DIMS = (6, 8)
THREADS = (1, 2)
REPS = 300
ROUNDS = 4


def child(d: int) -> None:
    sys.path.insert(0, str(SRC))
    # quasibasis reads QUASIBASIS_THREADS before numpy loads its BLAS.
    import quasibasis as qb

    import numpy as np

    from run import blas_threads

    pool = [np.array(qb.random_mic(d, seed).elements) for seed in range(5)]
    qb.principal_wigner(qb.MeasureBasis(pool[0]))
    times = []
    for i in range(REPS):
        raw = pool[i % len(pool)]
        t0 = time.perf_counter()
        qb.principal_wigner(qb.MeasureBasis(raw))
        times.append(1e3 * (time.perf_counter() - t0))
    print(json.dumps({"blas_threads": blas_threads(np), "times": times}))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        child(args.child)
        return 0
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    samples: dict[tuple[int, int], list[float]] = {}
    reported: dict[tuple[int, int], set] = {}
    for r in range(ROUNDS):
        order = THREADS if r % 2 == 0 else THREADS[::-1]
        for d in DIMS:
            for t in order:
                proc = subprocess.run(
                    [sys.executable, __file__, "--child", str(d)],
                    env=dict(env, QUASIBASIS_THREADS=str(t)),
                    capture_output=True, text=True, check=True, timeout=600,
                )
                out = json.loads(proc.stdout.splitlines()[-1])
                samples.setdefault((d, t), []).extend(out["times"])
                reported.setdefault((d, t), set()).add(out["blas_threads"])
    print("d  QUASIBASIS_THREADS  BLAS threads  n     "
          "p25_ms  p50_ms  p75_ms  p90_ms  max_ms")
    for (d, t), xs in sorted(samples.items()):
        q1, q2, q3 = statistics.quantiles(xs, n=4)
        p90 = statistics.quantiles(xs, n=10)[8]
        blas = ",".join(str(b) for b in sorted(reported[(d, t)], key=str))
        print(f"{d}  {t:18d}  {blas:>12s}  {len(xs):4d}  {q1:6.2f}  {q2:6.2f}"
              f"  {q3:6.2f}  {p90:6.2f}  {max(xs):6.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
