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

import numpy as np

from . import analysis, constructions, representations, serialize
from .bases import BasisValidationError, MeasureBasis, born_matrix
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


def _clause(name: str, value: float, tolerance: float,
            comparison: str = "abs<=") -> dict:
    if comparison == "abs<=":
        ok = abs(value) <= tolerance
    elif comparison == ">":
        ok = value > tolerance
    elif comparison == ">=":
        ok = value >= tolerance
    else:
        raise ValueError(comparison)
    return {
        "name": name,
        "pass": bool(ok),
        "value": float(value),
        "tolerance": float(tolerance),
        "comparison": comparison,
    }


def _tol(args, default: float) -> float:
    """The --tol override if given, else the clause's default tolerance."""
    return default if args.tol is None else args.tol


def _finish_verify(suite: str, clauses: list[dict], extra: dict | None = None) -> int:
    passed = all(c["pass"] for c in clauses)
    payload = {"suite": suite, "passed": passed, "clauses": clauses}
    if extra:
        payload.update(extra)
    diagnostics = [
        {"name": c["name"], "value": c["value"]} for c in clauses
    ]
    _emit("ok" if passed else "error", payload, diagnostics)
    return 0 if passed else VERIFY_ERROR


# ---------------------------------------------------------------------------
# construct

def _cmd_construct(args) -> int:
    kind = args.kind
    if kind == "sic":
        if args.fiducial:
            basis = constructions.sic_from_fiducial(
                serialize.read_fiducial(args.fiducial),
                tol=_tol(args, constructions.SIC_TOL),
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

def _verify_theorem1(args) -> int:
    E = serialize.read_basis(args.infile)
    tol = _tol(args, 1e-9)
    pw = principal_wigner(E).basis
    spw = shifted(pw)
    report = analysis.distance_bounds(E)
    d_pw = analysis.distance(E, pw)
    d_spw = analysis.distance(E, spw)
    clauses = [
        _clause("lower_saturation", d_pw - report.lower_bound, tol),
        _clause("upper_saturation", d_spw - report.upper_bound, tol),
        _clause("sandwich_lower", d_pw - report.lower_bound, -tol, ">="),
        _clause("sandwich_upper", report.upper_bound - d_spw, -tol, ">="),
    ]
    extra = {
        "lower_bound": report.lower_bound,
        "upper_bound": report.upper_bound,
        "distance_pw": d_pw,
        "distance_spw": d_spw,
        "spectrum": report.spectrum,
    }
    return _finish_verify("theorem1", clauses, extra)


def _verify_theorem2(args) -> int:
    E = serialize.read_basis(args.infile)
    tol = _tol(args, 1e-9)
    cls = E.classify()
    if not (cls.is_mic and cls.is_unbiased):
        raise InputError(
            f"theorem2 needs an unbiased MIC (got: {cls.summary()})"
        )
    d = E.dim
    lower, upper = analysis.sic_bounds(d)
    sic_dev = constructions.sic_gram_deviation(E.elements)
    is_sic = sic_dev <= constructions.SIC_TOL
    pw = principal_wigner(E).basis
    d_pw = analysis.distance(E, pw)
    clauses = [_clause("bound_holds", d_pw - lower, -tol, ">=")]
    if is_sic:
        d_spw = analysis.distance(E, shifted(pw))
        clauses.append(_clause("sic_lower_saturation", d_pw - lower, tol))
        clauses.append(_clause("sic_upper_saturation", d_spw - upper, tol))
    else:
        clauses.append(_clause("non_sic_exceeds", d_pw - lower, 1e-6, ">"))
    extra = {
        "sic_lower": lower,
        "sic_upper": upper,
        "is_sic": is_sic,
        "sic_gram_deviation": sic_dev,
        "distance_pw": d_pw,
    }
    return _finish_verify("theorem2", clauses, extra)


def _verify_collinear(args) -> int:
    L = serialize.read_basis(args.infile)
    if not args.t:
        raise InputError("verify collinear needs --t (comma-separated values)")
    try:
        ts = [float(x) for x in args.t.split(",") if x.strip()]
    except ValueError as exc:
        raise InputError(f"bad --t list {args.t!r}") from exc
    if not ts:
        raise InputError(f"--t list {args.t!r} holds no values")
    pw_tol = _tol(args, 1e-8)
    # Relative to the predicted entries: Phi grows with the Gram condition,
    # and its roundoff with it.
    identity_tol = _tol(args, 1e-9)
    d, n = L.dim, len(L)
    pw = principal_wigner(L).basis
    spw = shifted(pw)
    born = born_matrix(L)
    AJ = np.outer(L.weights, np.ones(n))
    clauses = []
    for t in ts:
        if t == 0:
            raise InputError("t = 0 is excluded from the collinear family")
        Lt = constructions.collinear(L, t)
        pw_t = principal_wigner(Lt).basis
        target = pw if t > 0 else spw
        dev = float(np.max(np.abs(pw_t.elements - target.elements)))
        clauses.append(_clause(f"pw_match[t={t:g}]", dev, pw_tol))
        born_t = born_matrix(Lt)
        pred = born.phi / t**2 + (1 - 1 / t**2) * AJ / d
        pred_s = born.phi_sqrt / abs(t) + (1 - 1 / abs(t)) * AJ / d
        for name, got, want in (("phi_identity", born_t.phi, pred),
                                ("sqrt_phi_identity", born_t.phi_sqrt, pred_s)):
            clauses.append(_clause(
                f"{name}[t={t:g}]", float(np.max(np.abs(got - want))),
                identity_tol * max(1.0, float(np.max(np.abs(want)))),
            ))
    return _finish_verify("collinear", clauses)


def _verify_triple(args) -> int:
    F = serialize.read_basis(args.infile)
    tol = _tol(args, 1e-10)
    trip = analysis.triple_products(F)
    clauses = [
        _clause("cyclic_symmetry", trip.cyclic_residual(), tol),
        _clause("conjugation_symmetry", trip.conjugation_residual(), tol),
        _clause("sum_rule", trip.sum_rule_residual(F), _tol(args, 1e-9)),
    ]
    extra: dict = {"dimension": F.dim}
    d = F.dim
    if constructions.sic_gram_deviation(F.elements) <= constructions.SIC_TOL:
        extra["is_sic"] = True
        for sign, name in ((+1, "plus"), (-1, "minus")):
            resid = analysis.sic_triple_relation_check(F, sign)
            clauses.append(_clause(f"sic_relation_{name}", resid,
                                   _tol(args, 1e-9)))
    if d % 2 == 1 and constructions._is_prime(d):
        wootters = constructions.wootters_wigner(d)
        if float(np.max(np.abs(F.elements - wootters.elements))) <= 1e-8:
            extra["is_wootters"] = True
            oracle = analysis.wootters_triple_oracle(d)
            clauses.append(_clause(
                "affine_area_match",
                max(float(np.max(np.abs(g - o)))
                    for g, o in zip(trip.gamma, oracle)), tol,
            ))
    if args.gamma_csv:
        _write_gamma_csv(trip.gamma, args.gamma_csv)
        extra["gamma_csv"] = str(args.gamma_csv)
    return _finish_verify("triple", clauses, extra)


def _write_gamma_csv(gamma: np.ndarray, path) -> None:
    """Rows j,k,l,re,im in the csv module's dialect, one % pass per j-slab."""
    rows = np.empty(gamma.shape[1:] + (5,))  # indices ride as exact floats
    rows[..., 1], rows[..., 2] = np.indices(gamma.shape[1:])
    fmt = "%d,%d,%d,%.17g,%.17g\r\n" * gamma[0].size
    with open(path, "w", newline="") as fh:
        fh.write("j,k,l,re,im\r\n")
        for j, slab in enumerate(gamma):
            rows[..., 0], rows[..., 3], rows[..., 4] = j, slab.real, slab.imag
            fh.write(fmt % tuple(rows.ravel().tolist()))


def _verify_negativity(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    F = serialize.read_basis(args.infile)
    if not F.classify().is_wigner:
        raise InputError("negativity suite needs a Wigner basis")
    value = analysis.ceiling_negativity(F)
    sampled = analysis.ceiling_negativity_sampled(
        F, n_samples=args.samples, seed=args.seed
    )
    gap = value - sampled
    tol = _tol(args, 1e-3)
    clauses = [
        _clause("sampling_not_above_spectral", gap + 1e-12, 0.0, ">="),
        _clause("sampling_consistency", gap, tol),
    ]
    extra = {
        "ceiling_negativity": value,
        "sampled": sampled,
        "samples": args.samples,
        "seed": args.seed,
    }
    return _finish_verify("negativity", clauses, extra)


_VERIFY_SUITES = {
    "theorem1": _verify_theorem1,
    "theorem2": _verify_theorem2,
    "collinear": _verify_collinear,
    "triple": _verify_triple,
    "negativity": _verify_negativity,
}


# ---------------------------------------------------------------------------
# represent

def _cmd_represent(args) -> int:
    basis = serialize.read_basis(args.basis)
    # schema checks only: the library validates the state and effects once
    rho = serialize._read_state_matrix(args.state)
    if args.mode == "probs":
        if not basis.classify().is_mic:
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
    p_ver.add_argument("suite", choices=sorted(_VERIFY_SUITES))
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument("--t", help="comma-separated t values (collinear)")
    p_ver.add_argument("--tol", type=float, default=None,
                       help="override every clause tolerance")
    p_ver.add_argument("--samples", type=int, default=10_000)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--gamma-csv", default=None,
                       help="write the triple-product tensor as CSV")
    p_ver.set_defaults(func=lambda a: _VERIFY_SUITES[a.suite](a))

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
