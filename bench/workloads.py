"""The three workloads. Each builds a seeded input pool in ``setup`` and
yields one round of operations at a time; a round holds the same
operations in every run, so counts per round never vary.

An operation's ``run`` is the timed call into the program. Its ``check``
runs untimed, compares the output with a computation from checks.py and
returns accuracy residuals; it raises on a wrong output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import quasibasis as qb

import checks

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], dict]


class Workload:
    def __init__(self):
        # Spans recorded by traced child processes (cli-cold only).
        self.child_records: list[dict] = []


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R))).conj()


# ---------------------------------------------------------------------------
# pw-large: a fresh d = 12 basis per operation, then principal_wigner.

# (d = 4 factor, d = 3 factor) kinds. Random factors give Gram conditions
# of 1e2..1e6 each, so the products span 36 (tetrahedra x Hesse SIC) to
# COND_CAP.
PW_POOL = (
    ("mic", "mic"), ("umic", "umic"), ("mic", "umic"),
    ("umic", "sic"), ("tetra", "mic"), ("tetra", "sic"),
)
# Above ~1e10 at d = 12 principal_wigner's own orthogonality validation
# (absolute 1e-9) starts to reject its output; see CHANGES.md.
COND_CAP = 1e9


def _factor(kind: str, d: int, seed: int):
    if kind == "mic":
        return qb.random_mic(d, seed)
    if kind == "umic":
        return qb.random_unbiased_mic(d, seed)
    if kind == "sic":
        return qb.builtin_sic(d)
    return qb.tensorhedron(2)


class PwLarge(Workload):
    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.pool = []
        for left, right in PW_POOL:
            while True:
                A = _factor(left, 4, int(rng.integers(2**31)))
                B = _factor(right, 3, int(rng.integers(2**31)))
                # The Gram matrix of a tensor product is the Kronecker
                # product of the factors' Gram matrices.
                kappa = (checks.gram_condition(A.elements)
                         * checks.gram_condition(B.elements))
                if kappa <= COND_CAP:
                    break
            L = qb.tensor_basis(A, B)
            self.pool.append((np.array(L.elements), kappa))
        # Each operation conjugates its pool basis by a fresh unitary, so
        # no input repeats; the Gram condition is unchanged.
        self.rng = np.random.default_rng([seed, 1])

    def round(self):
        for elements, kappa in self.pool:
            U = haar_unitary(self.rng, elements.shape[1])
            raw = np.einsum("ij,njk,lk->nil", U, elements, U.conj())
            yield Op(
                run=lambda raw=raw: qb.principal_wigner(
                    qb.MeasureBasis(raw, label="pw-large")),
                check=lambda res, raw=raw, kappa=kappa: checks.check_pw(
                    raw, res.basis.elements, kappa),
            )


# ---------------------------------------------------------------------------
# suite-small: one theorem session per operation on a d = 4 unbiased MIC.

SUITE_POOL = 8
COLLINEAR_T = 0.5
# Random unbiased d = 4 MICs reach Gram conditions of 1e10. From ~1e8 up
# (4e8 for the t = -0.5 partner) principal_wigner rejects its own output
# (absolute validation tolerances); see CHANGES.md. Small-d pools of this
# and the cli-cold workload stay below.
SMALL_COND_CAP = 1e7


def capped_unbiased_mic(d: int, rng: np.random.Generator):
    while True:
        L = qb.random_unbiased_mic(d, int(rng.integers(2**31)))
        kappa = checks.gram_condition(L.elements)
        if kappa <= SMALL_COND_CAP:
            return L, kappa


def fixed_state(d: int) -> np.ndarray:
    """A full-rank state that does not depend on the workload seed."""
    rng = np.random.default_rng(2024)
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = Z @ Z.conj().T
    return rho / np.trace(rho).real


def theorem_session(raw: np.ndarray, shuffle: np.ndarray,
                    rho: np.ndarray) -> dict:
    # The session builds its basis object from the raw elements and then
    # reuses it, so a cache on the object helps within one session only.
    L = qb.MeasureBasis(raw, label="suite-small")
    pw = qb.principal_wigner(L).basis
    spw = qb.shifted(pw)
    report = qb.distance_bounds(L)
    plus = qb.collinear(L, COLLINEAR_T)
    minus = qb.collinear(L, -COLLINEAR_T)
    partner = qb.MeasureBasis(plus.elements[shuffle])
    return {
        "pw": pw,
        "spw": spw,
        "report": report,
        "distance_pw": qb.distance(L, pw),
        "distance_spw": qb.distance(L, spw),
        "pw_plus": qb.principal_wigner(plus).basis,
        "pw_minus": qb.principal_wigner(minus).basis,
        "equivalence": qb.wigner_equivalent(L, partner, mode="permuted"),
        "lift": qb.lift(pw, L),
        "split": qb.gauge_split(L.elements, L, rho),
    }


def check_session(out: dict, E: np.ndarray, shuffle: np.ndarray,
                  rho: np.ndarray, kappa: float) -> dict:
    n = E.shape[0]
    tol = checks.entry_tol(kappa)
    # collinear(L, t) scales the traceless Gram spectrum by t^2.
    tol_t = checks.entry_tol(kappa / COLLINEAR_T**2)
    F = out["pw"].elements
    resid = checks.check_pw(E, F, kappa)

    def close(a, b, what, limit):
        dev = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
        checks.require(dev <= limit, what, dev, limit)

    lower, upper = checks.theorem1_bounds(E)
    close(out["report"].lower_bound, lower, "lower bound", n * tol)
    close(out["report"].upper_bound, upper, "upper bound", n * tol)
    close(out["distance_pw"], checks.distance(E, F), "distance", n * tol)
    close(out["distance_pw"], lower, "lower saturation", n * tol)
    close(out["distance_spw"], upper, "upper saturation", n * tol)
    close(out["spw"].elements, checks.shift(F), "shifted", tol)
    close(out["pw_plus"].elements, F, "PW(L^t) = PW(L), t > 0", tol_t)
    close(out["pw_minus"].elements, checks.shift(F),
          "PW(L^t) = shifted PW(L), t < 0", tol_t)
    close(out["lift"].elements, E, "lift of PW", tol)
    eq = out["equivalence"]
    if not eq.equivalent or eq.permutation is None:
        raise checks.CheckFailed(f"permuted equivalence: {eq.verdict}")
    if not np.array_equal(shuffle[np.asarray(eq.permutation)],
                          np.arange(n)):
        raise checks.CheckFailed("permutation does not invert the shuffle")
    split = out["split"]
    direct = np.einsum("jab,ba->j", E, rho).real
    close(split.left @ split.right.values, direct, "gauge split", n * tol)
    close(split.right.values, np.einsum("iab,ba->i", checks.lowdin(E), rho).real,
          "gauge split Wigner function", n * tol)
    return resid


class SuiteSmall(Workload):
    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.rho = fixed_state(4)
        self.pool = []
        for _ in range(SUITE_POOL):
            L, kappa = capped_unbiased_mic(4, rng)
            self.pool.append((np.array(L.elements), rng.permutation(len(L)),
                              kappa))

    def round(self):
        for raw, shuffle, kappa in self.pool:
            yield Op(
                run=lambda raw=raw, s=shuffle: theorem_session(
                    raw, s, self.rho),
                check=lambda out, raw=raw, s=shuffle, k=kappa: check_session(
                    out, raw, s, self.rho, k),
            )


# ---------------------------------------------------------------------------
# cli-cold: a fresh interpreter per operation.

# The package treats a worse Gram condition as linear dependence.
MAX_GRAM_CONDITION = 1e12
# random_unbiased_mic stops once every weight is this close to 1/d.
UNBIASED_BUILD_TOL = 1e-10
# Seeds of `construct random` stay fixed: the unbiased-MIC builder iterates
# a seed-dependent number of times, and its call counts must repeat.
CONSTRUCT_ARGS = ((3, 1), (4, 1), (3, 2), (4, 2))
SUBPROCESS_TIMEOUT_S = 60


def write_basis_file(path: Path, elements: np.ndarray, label: str) -> None:
    E = np.asarray(elements)
    doc = {
        "dimension": int(E.shape[1]),
        "label": label,
        "elements": np.stack([E.real, E.imag], axis=-1).tolist(),
    }
    path.write_text(json.dumps(doc))


def read_basis_file(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    raw = np.asarray(doc["elements"], dtype=float)
    return raw[..., 0] + 1j * raw[..., 1]


class CliCold(Workload):
    def __init__(self, run_dir: Path, traced: bool):
        super().__init__()
        self.run_dir = run_dir
        self.traced = traced
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        bases = [
            ("sic2", qb.builtin_sic(2)),
            ("sic3", qb.builtin_sic(3)),
            ("umic3", capped_unbiased_mic(3, rng)[0]),
            ("umic4", capped_unbiased_mic(4, rng)[0]),
        ]
        self.inputs = []
        for name, basis in bases:
            path = self.run_dir / f"{name}.json"
            write_basis_file(path, basis.elements, name)
            E = read_basis_file(path)
            self.inputs.append((path, E, checks.gram_condition(E)))

    def _command(self, args: list[str]) -> list[str]:
        if self.traced:
            trace = self.run_dir / "child-trace.json"
            return [sys.executable, str(BENCH / "cli_child.py"), str(trace),
                    *args]
        return [sys.executable, "-m", "quasibasis.cli", *args]

    def _invoke(self, args: list[str]) -> dict:
        proc = subprocess.run(
            self._command(args), cwd=self.run_dir, env=self.env,
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
        if self.traced:
            trace = self.run_dir / "child-trace.json"
            self.child_records.append(json.loads(trace.read_text()))
            trace.unlink()
        return {"code": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}

    def _op(self, args: list[str], check) -> Op:
        def checked(res):
            if res["code"] != 0:
                raise checks.CheckFailed(
                    f"exit {res['code']}: {res['stdout'][-300:]}"
                    f"{res['stderr'][-300:]}")
            doc = json.loads(res["stdout"])
            if doc.get("status") != "ok":
                raise checks.CheckFailed(f"status {doc.get('status')!r}")
            return check(doc["payload"]) or {}

        return Op(run=lambda: self._invoke(args), check=checked)

    def round(self):
        for (path, E, kappa), (cd, cseed) in zip(self.inputs, CONSTRUCT_ARGS):
            built = self.run_dir / f"built-d{cd}-s{cseed}.json"
            pw_out = self.run_dir / f"pw-{path.stem}.json"
            yield self._op(
                ["construct", "random", "--variant", "unbiased-mic",
                 "--d", str(cd), "--seed", str(cseed), "--out", built.name],
                lambda payload, built=built: self._check_built(built))
            yield self._op(
                ["pw", "--in", path.name, "--out", pw_out.name],
                lambda payload, E=E, k=kappa, out=pw_out: checks.check_pw(
                    E, read_basis_file(out), k))
            yield self._op(
                ["verify", "theorem1", "--in", path.name],
                lambda payload, E=E, k=kappa: self._check_theorem1(
                    payload, E, k))
            yield self._op(
                ["verify", "theorem2", "--in", path.name],
                lambda payload, E=E, k=kappa: self._check_theorem2(
                    payload, E, k))

    @staticmethod
    def _check_built(path: Path) -> None:
        E = read_basis_file(path)
        kappa = checks.gram_condition(E)
        if not kappa <= MAX_GRAM_CONDITION:
            raise checks.CheckFailed(f"Gram condition {kappa:.3e}")
        checks.check_unbiased_mic(E, kappa, UNBIASED_BUILD_TOL)

    @staticmethod
    def _check_theorem1(payload: dict, E: np.ndarray, kappa: float) -> None:
        n = E.shape[0]
        tol = n * checks.entry_tol(kappa)
        F = checks.lowdin(E)
        lower, upper = checks.theorem1_bounds(E)
        expect = {
            "lower_bound": lower,
            "upper_bound": upper,
            "distance_pw": checks.distance(E, F),
            "distance_spw": checks.distance(E, checks.shift(F)),
        }
        if not payload.get("passed"):
            raise checks.CheckFailed("theorem1 reported a failed clause")
        for key, value in expect.items():
            dev = abs(payload[key] - value)
            checks.require(dev <= tol, f"theorem1 {key}", dev, tol)

    @staticmethod
    def _check_theorem2(payload: dict, E: np.ndarray, kappa: float) -> None:
        d = E.shape[1]
        tol = d * d * checks.entry_tol(kappa)
        lower, upper = checks.sic_bounds(d)
        sic = checks.is_sic(E)
        if not payload.get("passed") or payload["is_sic"] != sic:
            raise checks.CheckFailed("theorem2 verdict")
        for key, value in (("sic_lower", lower), ("sic_upper", upper)):
            dev = abs(payload[key] - value)
            checks.require(dev <= tol, f"theorem2 {key}", dev, tol)
        own = checks.distance(E, checks.lowdin(E))
        dev = abs(payload["distance_pw"] - own)
        checks.require(dev <= tol, "theorem2 distance_pw", dev, tol)
        if sic:
            dev = abs(payload["distance_pw"] - lower)
            checks.require(dev <= tol, "SIC lower saturation", dev, tol)
        elif not payload["distance_pw"] > lower:
            raise checks.CheckFailed("non-SIC distance below the SIC bound")



def make(name: str, run_dir: Path, traced: bool):
    if name == "pw-large":
        return PwLarge()
    if name == "suite-small":
        return SuiteSmall()
    return CliCold(run_dir, traced)
