"""The benchmark's output checks accept the program's outputs and reject
perturbed ones.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import quasibasis as qb  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def perturb_entry(F):
    F = F.copy()
    H = np.zeros(F.shape[1:], dtype=complex)
    H[0, 1], H[1, 0] = 1e-4j, -1e-4j
    F[3] += H
    return F


def swap_two(F):
    F = F.copy()
    F[[0, 1]] = F[[1, 0]]
    return F


PERTURBATIONS = {
    "entry": perturb_entry,
    "swap": swap_two,
    "shifted": checks.shift,
    "scaled": lambda F: 1.0001 * F,
}


@pytest.fixture(scope="module")
def pw_large_case():
    w = workloads.PwLarge()
    w.setup(5)
    # The worst-conditioned input has the loosest tolerance.
    raw, kappa = max(w.pool, key=lambda entry: entry[1])
    return raw, qb.principal_wigner(qb.MeasureBasis(raw)).basis.elements, kappa


@pytest.fixture(scope="module")
def suite_case():
    w = workloads.SuiteSmall()
    w.setup(5)
    raw, shuffle, kappa = w.pool[0]
    out = workloads.theorem_session(raw, shuffle, w.rho)
    return out, raw, shuffle, w.rho, kappa


def test_pw_check_accepts_program_output(pw_large_case):
    raw, F, kappa = pw_large_case
    resid = checks.check_pw(raw, F, kappa)
    assert resid["ref_dev"] <= checks.entry_tol(kappa)


@pytest.mark.parametrize("how", sorted(PERTURBATIONS))
def test_pw_check_rejects_perturbed_output(pw_large_case, how):
    raw, F, kappa = pw_large_case
    with pytest.raises(checks.CheckFailed):
        checks.check_pw(raw, PERTURBATIONS[how](F), kappa)


def test_session_check_accepts_program_output(suite_case):
    workloads.check_session(*suite_case)


@pytest.mark.parametrize("how", sorted(PERTURBATIONS))
def test_session_check_rejects_perturbed_pw(suite_case, how):
    out, raw, shuffle, rho, kappa = suite_case
    bad = dict(out, pw=qb.MeasureBasis.__new__(qb.MeasureBasis))
    bad["pw"].elements = PERTURBATIONS[how](out["pw"].elements)
    with pytest.raises(checks.CheckFailed):
        workloads.check_session(bad, raw, shuffle, rho, kappa)


def test_session_check_rejects_wrong_permutation(suite_case):
    out, raw, shuffle, rho, kappa = suite_case
    eq = out["equivalence"]
    perm = tuple(np.roll(eq.permutation, 1))
    bad = dict(out, equivalence=qb.EquivalenceResult(
        True, eq.max_deviation, eq.verdict, perm))
    with pytest.raises(checks.CheckFailed):
        workloads.check_session(bad, raw, shuffle, rho, kappa)


def test_theorem_checks_reject_perturbed_payload():
    E = np.array(qb.builtin_sic(3).elements)
    kappa = checks.gram_condition(E)
    F = checks.lowdin(E)
    lower, upper = checks.theorem1_bounds(E)
    payload = {
        "passed": True,
        "lower_bound": lower,
        "upper_bound": upper,
        "distance_pw": checks.distance(E, F),
        "distance_spw": checks.distance(E, checks.shift(F)),
    }
    workloads.CliCold._check_theorem1(payload, E, kappa)
    with pytest.raises(checks.CheckFailed):
        workloads.CliCold._check_theorem1(
            dict(payload, distance_pw=payload["distance_pw"] + 1e-6), E, kappa)
    sic_lower, sic_upper = checks.sic_bounds(3)
    t2 = {"passed": True, "is_sic": True, "sic_lower": sic_lower,
          "sic_upper": sic_upper, "distance_pw": sic_lower}
    workloads.CliCold._check_theorem2(t2, E, kappa)
    with pytest.raises(checks.CheckFailed):
        workloads.CliCold._check_theorem2(
            dict(t2, distance_pw=sic_lower + 1e-6), E, kappa)
