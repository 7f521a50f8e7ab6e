"""Benchmark harness for quasibasis.

    python3 bench/run.py --workload pw-large --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seconds 10

One process, one closed-loop client: the next operation starts when the
previous one has returned. The run repeats whole rounds of its workload
until ``--seconds`` have passed, checks every output against references
from checks.py, and prints one JSON object as its last line. With
``--trace 0`` it holds the end-to-end metrics; with ``--trace 1`` the
per-layer metrics, taken by wrapping the program's public functions from
outside (tracer.py). The program is imported from ``src/`` of the checkout
that holds this directory, and nowhere else. See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Cold set-ups per untraced run: the run's own plus fresh processes.
SETUP_SAMPLES = 5
INTERPRETER_PROBES = 5
WORKLOAD_NAMES = ("pw-large", "suite-small", "cli-cold")


def host_probe_ms(np) -> float:
    """Time of a fixed numpy-and-Python kernel that calls nothing in
    quasibasis; it tracks the speed of the machine, not the program."""
    rng = np.random.default_rng(7)
    A = rng.standard_normal((96, 96))
    A = A + A.T
    t0 = time.perf_counter()
    for _ in range(2):
        np.linalg.eigvalsh(A)
        A @ A
    acc = 0
    for i in range(10000):
        acc += i * i
    return 1e3 * (time.perf_counter() - t0)


def spread(values: list[float]) -> float:
    """(q3 - q1) / median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            func = getattr(lib, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def run_record(np, workload: str, seed: int, ref_ms: list[float]) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "host.ref_ms": statistics.median(ref_ms),
        "host.ref_spread": spread(ref_ms),
    }


def interpreter_ms() -> float:
    times = []
    for _ in range(INTERPRETER_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True,
                       timeout=60)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def cold_setup_s(args) -> float:
    """Set-up time of a fresh harness process (--setup-only)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def layer_metrics(tracer, workload, n_ops: int, setup_ms: float,
                  ref_ms: list[float], resid: dict) -> tuple[dict, dict]:
    """Per-layer metrics, as (metric -> (value, unit), merged span stats).
    Calls and self time are per operation; spans of cli-cold's child
    processes are merged in."""
    stats = tracer.snapshot()
    for rec in workload.child_records:
        for name, (calls, total, self_time) in rec["stats"].items():
            c, t, s = stats.get(name, (0, 0.0, 0.0))
            stats[name] = (c + calls, t + total, s + self_time)

    def calls(name):
        return stats.get(name, (0, 0.0, 0.0))[0] / n_ops

    def ms(name):
        return 1e3 * stats.get(name, (0, 0.0, 0.0))[2] / n_ops

    linalg = [v for k, v in stats.items() if k.startswith("linalg.")]
    children = workload.child_records
    values = {
        "operators.as_hermitian.calls": (calls("operators.as_hermitian"), "count"),
        "operators.as_hermitian.ms": (ms("operators.as_hermitian"), "ms"),
        "operators.SuperOperator.apply.calls": (calls("operators.SuperOperator.apply"), "count"),
        "operators.SuperOperator.apply.ms": (ms("operators.SuperOperator.apply"), "ms"),
        "operators.SuperOperator.func.ms": (ms("operators.SuperOperator.func"), "ms"),
        "bases.validate.calls": (calls("bases.validate"), "count"),
        "bases.validate.ms": (ms("bases.validate"), "ms"),
        "bases.MeasureBasis.ms": (ms("bases.MeasureBasis"), "ms"),
        "bases.rescaled_frame_operator.ms": (ms("bases.rescaled_frame_operator"), "ms"),
        "bases.born_matrix.ms": (ms("bases.born_matrix"), "ms"),
        "wigner.sqrt_born.ms": (ms("wigner.sqrt_born"), "ms"),
        "linalg.factorizations": (sum(v[0] for v in linalg) / n_ops, "count"),
        "linalg.ms": (1e3 * sum(v[2] for v in linalg) / n_ops, "ms"),
        "wigner.principal_wigner.calls": (calls("wigner.principal_wigner"), "count"),
        "wigner.principal_wigner.ms": (ms("wigner.principal_wigner"), "ms"),
        "wigner.wigner_equivalent.ms": (ms("wigner.wigner_equivalent"), "ms"),
        "wigner.shifted.ms": (ms("wigner.shifted"), "ms"),
        "wigner.lift.ms": (ms("wigner.lift"), "ms"),
        "analysis.distance_bounds.ms": (ms("analysis.distance_bounds"), "ms"),
        "representations.gauge_split.ms": (ms("representations.gauge_split"), "ms"),
        "constructions.collinear.ms": (ms("constructions.collinear"), "ms"),
        "constructions.setup_ms": (setup_ms, "ms"),
        "serialize.read_basis.ms": (ms("serialize.read_basis"), "ms"),
        "serialize.write_basis.ms": (ms("serialize.write_basis"), "ms"),
        "serialize.dumps_json.ms": (ms("serialize.dumps_json"), "ms"),
        "cli.import_ms": (sum(r["import_ms"] for r in children) / n_ops, "ms"),
        "cli.main_ms": (sum(r["main_ms"] for r in children) / n_ops, "ms"),
        "cli.interpreter_ms": (interpreter_ms(), "ms"),
        "host.ref_ms": (statistics.median(ref_ms), "ms"),
        "host.ref_spread": (spread(ref_ms), "share"),
        "check.pw_ref_dev": (resid.get("ref_dev", 0.0), "abs"),
        "check.pw_orth_resid": (resid.get("orth_resid", 0.0), "abs"),
    }
    return values, stats


def run_workload(args) -> int:
    if not (SRC / "quasibasis" / "__init__.py").is_file():
        print(f"error: no quasibasis package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy as np
    import quasibasis  # noqa: F401
    import_s = time.perf_counter() - t0
    if Path(quasibasis.__file__).resolve().parent != SRC / "quasibasis":
        print("error: quasibasis imported from outside src/", file=sys.stderr)
        return 2

    import workloads
    from tracer import Tracer

    run_dir = OUT / f"{args.workload}-{os.getpid()}"
    workload = workloads.make(args.workload, run_dir, bool(args.trace))
    tracer = Tracer().install() if args.trace else None
    # One host probe before set-up and one per round, between operations.
    ref_ms = [host_probe_ms(np)]

    try:
        # Set-up is cold: it runs once per process, after the first import.
        t1 = time.perf_counter()
        if tracer:
            tracer.active = True
        workload.setup(args.seed)
        if tracer:
            tracer.active = False
            setup_builders_ms = 1e3 * tracer.module_total["constructions"]
        warm = next(iter(workload.round()))
        try:
            warm.check(warm.run())
        except Exception:  # the timed loop counts this operation
            pass
        setup_s = import_s + time.perf_counter() - t1
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer:
            tracer.reset()
            workload.child_records.clear()

        op_ms, attempted, failed, resid, rounds = [], 0, 0, {}, 0
        deadline = time.perf_counter() + args.seconds
        while rounds == 0 or time.perf_counter() < deadline:
            rounds += 1
            ref_ms.append(host_probe_ms(np))
            for op in workload.round():
                attempted += 1
                if tracer:
                    tracer.active = True
                t1 = time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # a failed operation is counted
                    failed += 1
                    print(f"op failed: {exc!r}", file=sys.stderr)
                    continue
                finally:
                    dur = time.perf_counter() - t1
                    if tracer:
                        tracer.active = False
                try:
                    for key, value in (op.check(out) or {}).items():
                        resid[key] = max(resid.get(key, 0.0), value)
                except Exception as exc:
                    failed += 1
                    print(f"check failed: {exc!r}", file=sys.stderr)
                    continue
                op_ms.append(1e3 * dur)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print("run-record " + json.dumps(
        run_record(np, args.workload, args.seed, ref_ms)))

    if args.trace:
        values, stats = layer_metrics(
            tracer, workload, attempted, setup_builders_ms, ref_ms, resid)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({
            "ops": attempted,
            "op_ms_p50": statistics.median(op_ms) if op_ms else None,
            "spans": {k: {"calls": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(stats.items())},
        }, indent=1))
    else:
        # Peak memory is read before the set-up processes below start, so
        # cli-cold's figure covers its CLI processes only.
        who = (resource.RUSAGE_CHILDREN if args.workload == "cli-cold"
               else resource.RUSAGE_SELF)
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        setups = [setup_s] + [cold_setup_s(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "ops_per_s": (len(op_ms) / (1e-3 * sum(op_ms)) if op_ms else 0.0,
                          "1/s"),
            "op_ms_p50": (statistics.median(op_ms) if op_ms else 0.0, "ms"),
            "op_ms_p90": (statistics.quantiles(op_ms, n=10)[8]
                          if len(op_ms) >= 2 else 0.0, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print a table."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']} correct {result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:.6g} {entry['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
