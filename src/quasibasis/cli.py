"""Command-line interface: construct bases, orthogonalize them, verify the
quantitative theorems, and represent states.

Every run prints a single JSON document {"status", "payload",
"diagnostics"} (17-significant-digit floats) and exits 0 on success, 1 on
a failed verification clause, 2 on input or usage errors. `--format csv`
switches `represent` output to CSV. The internal BLAS parallelism is
capped by the QUASIBASIS_THREADS environment variable (read at import).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import asdict

from . import analysis, constructions, representations, serialize
from .bases import BasisValidationError, MeasureBasis
from .wigner import principal_wigner, shifted

USAGE_ERROR = 2
VERIFY_ERROR = 1


class InputError(Exception):
    """Bad user input; mapped to exit code 2."""


def _classification_payload(basis: MeasureBasis) -> dict:
    cls = basis.classify()
    payload = asdict(cls)
    payload["summary"] = cls.summary()
    return payload


def _emit(status: str, payload, diagnostics) -> None:
    doc = {"status": status, "payload": payload, "diagnostics": diagnostics}
    print(serialize.dumps_json(doc))


def _finish_verify(result: analysis.SuiteResult, **extra) -> int:
    payload = {"suite": result.suite, "passed": result.passed,
               "clauses": result.clauses, **result.extras, **extra}
    diagnostics = [{"name": c["name"], "value": c["value"]}
                   for c in result.clauses]
    _emit("ok" if result.passed else "error", payload, diagnostics)
    return 0 if result.passed else VERIFY_ERROR


# ---------------------------------------------------------------------------
# construct

def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "sic":
        if args.fiducial:
            basis = constructions.sic_from_fiducial(
                serialize.read_fiducial(args.fiducial),
                tol=constructions.SIC_TOL if args.tol is None else args.tol,
            )
        elif args.d is not None:
            basis = constructions.builtin_sic(args.d)
        else:
            raise InputError("construct sic needs --d or --fiducial")
    elif kind == "wootters":
        if args.d is None:
            raise InputError("construct wootters needs --d")
        constructions._check_dim(args.d)  # before factoring a huge --d
        basis = constructions.composite_wootters(
            constructions.prime_factors(args.d))
    elif kind == "tensorhedron":
        if args.n is None:
            raise InputError("construct tensorhedron needs --n")
        basis = constructions.tensorhedron(args.n)
    elif kind == "collinear":
        if not args.infile or args.t is None:
            raise InputError("construct collinear needs --in and --t")
        basis = constructions.collinear(
            serialize.read_basis(args.infile), args.t
        )
    elif kind == "random":
        if args.d is None or args.seed is None:
            raise InputError("construct random needs --d and --seed")
        maker = {
            "mic": constructions.random_mic,
            "unbiased-mic": constructions.random_unbiased_mic,
            "unbiased-wigner": constructions.random_unbiased_wigner,
        }[args.variant]
        basis = maker(args.d, args.seed)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown construct kind {kind}")

    serialize.write_basis(basis, args.out)
    _emit("ok", {
        "path": str(args.out),
        "dimension": basis.dim,
        "label": basis.label,
        "classification": _classification_payload(basis),
    }, [])
    return 0


# ---------------------------------------------------------------------------
# pw

def _cmd_pw(args) -> int:
    basis = serialize.read_basis(args.infile)
    result = principal_wigner(basis)
    out_basis = shifted(result.basis) if args.shifted else result.basis
    serialize.write_basis(out_basis, args.out)
    _emit("ok", {
        "path": str(args.out),
        "shifted": bool(args.shifted),
        "classification": _classification_payload(out_basis),
    }, [{"name": "cross_error", "value": result.cross_error},
        {"name": "orthogonality_residual",
         "value": result.orthogonality_residual},
        {"name": "bias_deviation", "value": result.bias_deviation}])
    return 0


# ---------------------------------------------------------------------------
# verify suites

def _cmd_verify(args) -> int:
    suite, extra = args.suite, {}
    if suite == "negativity" and args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    basis = serialize.read_basis(args.infile)
    if suite == "theorem1":
        result = analysis.verify_theorem1(basis, tol=args.tol)
    elif suite == "theorem2":
        result = analysis.verify_theorem2(basis, tol=args.tol)
    elif suite == "collinear":
        if not args.t:
            raise InputError(
                "verify collinear needs --t (comma-separated values)")
        try:
            ts = [float(x) for x in args.t.split(",") if x.strip()]
        except ValueError as exc:
            raise InputError(f"bad --t list {args.t!r}") from exc
        if not ts:
            raise InputError(f"--t list {args.t!r} holds no values")
        result = analysis.verify_collinear(basis, ts, tol=args.tol)
    elif suite == "triple":
        trip = analysis.triple_products(basis)
        result = analysis.verify_triple(basis, trip, tol=args.tol)
        if args.gamma_csv:
            serialize._write_gamma_csv(trip.gamma, args.gamma_csv)
            extra["gamma_csv"] = str(args.gamma_csv)
    else:
        result = analysis.verify_negativity(
            basis, samples=args.samples, seed=args.seed, tol=args.tol)
    return _finish_verify(result, **extra)


# ---------------------------------------------------------------------------
# represent

def _cmd_represent(args) -> int:
    basis = serialize.read_basis(args.basis)
    # schema checks only: the library validates the state and effects once
    rho = serialize._read_state_matrix(args.state)
    if args.mode == "probs":
        if not basis._is_mic:
            raise InputError(
                "probs mode needs a MIC reference (use quasi for a general "
                "measure basis)"
            )
        values = representations.state_to_probs(rho, basis)
        payload = {"mode": "probs", "values": values}
    elif args.mode == "quasi":
        values = representations.state_to_probs(rho, basis)
        qd = representations.QuasiDistribution(values)
        payload = {
            "mode": "quasi",
            "values": values,
            "negativity": qd.negativity,
        }
    else:  # split
        effects = basis.elements
        if args.povm:
            effects, _ = serialize._read_elements(
                args.povm, expect_square_count=False)
        try:
            split = representations.gauge_split(effects, basis, rho)
        except representations.POVMValidationError as exc:
            if args.povm:
                raise
            raise InputError(
                "split mode needs --povm unless the basis is a MIC: the "
                f"default effects are the basis elements ({exc})") from exc
        payload = {
            "mode": "split",
            "left": split.left,
            "right": split.right.values,
            "reconstruction_residual": split.reconstruction_residual,
        }
        values = split.right.values
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["index", "value"])
        for i, v in enumerate(values):
            writer.writerow([i, format(float(v), ".17g")])
    else:
        _emit("ok", payload, [])
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasibasis",
        description=(
            "Construct reference measurements and discrete Wigner bases, "
            "convert between them, and verify the quantitative theorems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a basis and write it")
    p_con.add_argument("kind", choices=[
        "sic", "wootters", "tensorhedron", "collinear", "random",
    ])
    p_con.add_argument("--d", type=int, help="Hilbert-space dimension")
    p_con.add_argument("--n", type=int, help="tensorhedron factor count")
    p_con.add_argument("--t", type=float, help="collinear parameter")
    p_con.add_argument("--seed", type=int, help="PRNG seed for random kinds")
    p_con.add_argument("--variant", default="mic",
                       choices=["mic", "unbiased-mic", "unbiased-wigner"])
    p_con.add_argument("--fiducial", help="fiducial JSON for WH-orbit SICs")
    p_con.add_argument("--in", dest="infile", help="input basis JSON")
    p_con.add_argument("--out", required=True, help="output basis JSON")
    p_con.add_argument("--tol", type=float, default=None)
    p_con.set_defaults(func=_cmd_construct)

    p_pw = sub.add_parser("pw", help="principal (or shifted) Wigner basis")
    p_pw.add_argument("--in", dest="infile", required=True)
    p_pw.add_argument("--shifted", action="store_true")
    p_pw.add_argument("--out", required=True)
    p_pw.set_defaults(func=_cmd_pw)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=[
        "collinear", "negativity", "theorem1", "theorem2", "triple"])
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument("--t", help="comma-separated t values (collinear)")
    p_ver.add_argument("--tol", type=float, default=None,
                       help="override every clause tolerance")
    p_ver.add_argument("--samples", type=int, default=10_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--gamma-csv", default=None,
                       help="write the triple-product tensor as CSV")
    p_ver.set_defaults(func=_cmd_verify)

    p_rep = sub.add_parser("represent", help="represent a state in a basis")
    p_rep.add_argument("--state", required=True)
    p_rep.add_argument("--basis", required=True)
    p_rep.add_argument("--mode", required=True,
                       choices=["probs", "quasi", "split"])
    p_rep.add_argument("--povm", default=None,
                       help="downstream POVM for split mode (default: basis)")
    p_rep.add_argument("--format", default="json", choices=["json", "csv"])
    p_rep.set_defaults(func=_cmd_represent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol = getattr(args, "tol", None)
        if tol is not None and not 0 <= tol < math.inf:
            raise InputError(f"--tol must be finite and >= 0, got {tol!r}")
        seed = getattr(args, "seed", None)
        if seed is not None and seed < 0:
            raise InputError(f"--seed must be >= 0, got {seed}")
        return args.func(args)
    except (InputError, ValueError, OSError, KeyError, MemoryError) as exc:
        payload = {"message": str(exc) or type(exc).__name__}
        if isinstance(exc, BasisValidationError):
            # JSON has no inf: a singular Gram matrix's condition is null
            payload["failures"] = {
                name: value if math.isfinite(value) else None
                for name, value in exc.failures.items()
            }
        _emit("error", payload, [])
        return USAGE_ERROR
    except ArithmeticError as exc:
        _emit("error", {"message": str(exc)}, [])
        return VERIFY_ERROR


if __name__ == "__main__":
    sys.exit(main())
