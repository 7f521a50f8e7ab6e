import numpy as np
import pytest

from quasibasis import bases
from quasibasis.bases import MeasureBasis, born_matrix, gram
from quasibasis.constructions import (
    builtin_sic,
    collinear,
    mic_t_range,
    random_mic,
    random_unbiased_mic,
    tensorhedron,
    wootters_wigner,
)
from quasibasis.wigner import (
    lift,
    principal_wigner,
    shifted,
    sqrt_born,
    wigner_equivalent,
)

from conftest import random_unitary


def sic_pw_closed_form(d, sign=+1):
    """Eq-level prediction: F_j = +-(sqrt(d+1)/d) Pi_j + (1 -+ sqrt(d+1))/d^2 I."""
    E = builtin_sic(d)
    s = np.sqrt(d + 1.0)
    Pi = d * E.elements
    return sign * (s / d) * Pi + ((1 - sign * s) / d**2) * np.eye(d)


@pytest.mark.parametrize("d", [2, 3])
def test_sqrt_born_sic_closed_form(d):
    got = sqrt_born(builtin_sic(d))
    n = d * d
    expected = np.sqrt(d + 1) * np.eye(n) + (1 - np.sqrt(d + 1)) / n
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_sqrt_born_of_wigner_is_identity():
    np.testing.assert_allclose(
        sqrt_born(wootters_wigner(3)), np.eye(9), atol=1e-12
    )


def test_sqrt_born_squares_to_phi():
    L = random_mic(3, 20)
    root = sqrt_born(L)
    np.testing.assert_allclose(
        root @ root, born_matrix(L).phi, atol=1e-9
    )


def test_sqrt_born_structure():
    L = random_mic(3, 21)
    root = sqrt_born(L)
    assert np.max(np.abs(root.sum(axis=0) - 1.0)) <= 1e-10
    assert np.max(np.abs(root @ L.weights - L.weights)) <= 1e-10


@pytest.mark.parametrize("d", [2, 3])
def test_principal_wigner_sic_closed_form(d):
    res = principal_wigner(builtin_sic(d))
    np.testing.assert_allclose(
        res.basis.elements, sic_pw_closed_form(d, +1), atol=1e-12
    )
    np.testing.assert_allclose(
        shifted(res.basis).elements, sic_pw_closed_form(d, -1), atol=1e-12
    )


def test_principal_wigner_fixed_point():
    F = wootters_wigner(3)
    res = principal_wigner(F)
    np.testing.assert_allclose(res.basis.elements, F.elements, atol=1e-13)


def test_principal_wigner_idempotent():
    L = random_mic(3, 13)
    once = principal_wigner(L).basis
    twice = principal_wigner(once).basis
    np.testing.assert_allclose(twice.elements, once.elements, atol=1e-9)


@pytest.mark.parametrize(
    "d,seed,maker",
    [(2, 0, random_mic), (3, 1, random_mic), (4, 2, random_mic),
     (5, 3, random_mic), (2, 4, random_unbiased_mic),
     (3, 5, random_unbiased_mic), (4, 6, random_unbiased_mic),
     (5, 7, random_unbiased_mic)],
)
def test_principal_wigner_properties(d, seed, maker):
    L = maker(d, seed)
    res = principal_wigner(L)
    F = res.basis
    assert res.cross_error <= 1e-8
    G = gram(F)
    assert np.max(np.abs(G - np.diag(np.diag(G)))) <= 1e-9
    assert np.max(np.abs(F.elements.sum(axis=0) - np.eye(d))) <= 1e-9
    assert np.max(np.abs(F.weights - L.weights)) <= 1e-10
    np.testing.assert_allclose(np.diag(G), F.weights, atol=1e-9)


@pytest.mark.parametrize("d,seed,t", [(6, 23, None), (4, 145, 0.5),
                                       (4, 145, -0.5)])
def test_principal_wigner_ill_conditioned_collinear(d, seed, t):
    # Gram conditions 1.3e10 (t at the lower MIC end) and 6.5e8, inside
    # MAX_GRAM_CONDITION: the output must pass its own orthogonality check
    L = random_unbiased_mic(d, seed)
    Lt = collinear(L, mic_t_range(L)[0] if t is None else t)
    res = principal_wigner(Lt)
    assert res.cross_error <= 1e-8
    assert res.basis.classify().is_wigner


def test_principal_wigner_factorizes_once_and_validates_once(monkeypatch):
    raw = np.array(random_mic(4, 3).elements)
    calls = []  # (factorization, made inside validate)
    inside = [0]
    validations = [0]
    real_validate = bases.validate

    def counting_validate(*args, **kwargs):
        validations[0] += 1
        inside[0] += 1
        try:
            return real_validate(*args, **kwargs)
        finally:
            inside[0] -= 1

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls.append((name, inside[0] > 0))
            return func(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bases, "validate", counting_validate)
    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "cond", "inv",
                 "pinv", "solve", "lstsq", "qr", "cholesky"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))

    L = MeasureBasis(raw)
    assert validations == [1]
    calls.clear()
    principal_wigner(L)
    # one SVD (polar route) and one eigh (sqrt(Phi) route), plus the single
    # validation of the output basis
    assert sorted(name for name, in_validate in calls if not in_validate) \
        == ["eigh", "svd"]
    assert validations == [2]
    # Phi and sqrt(Phi) reuse the cached SVD
    calls.clear()
    born_matrix(L)
    sqrt_born(L)
    assert calls == []


def test_shifted_is_involution():
    F = principal_wigner(random_mic(3, 8)).basis
    np.testing.assert_allclose(
        shifted(shifted(F)).elements, F.elements, atol=1e-13
    )


def test_shifted_preserves_bias():
    F = wootters_wigner(3)
    np.testing.assert_allclose(shifted(F).weights, F.weights, atol=1e-13)


def test_shifted_rejects_non_wigner():
    with pytest.raises(ValueError, match="Wigner"):
        shifted(builtin_sic(2))


@pytest.mark.parametrize("t", [0.3, 1.7, -0.4, -1.3])
def test_collinear_theorem(t):
    L = random_mic(3, 30)
    pw = principal_wigner(L).basis
    target = pw.elements if t > 0 else shifted(pw).elements
    got = principal_wigner(collinear(L, t)).basis.elements
    assert np.max(np.abs(got - target)) <= 1e-8


@pytest.mark.parametrize("t", [0.5, -0.5, 1.6, -1.6])
def test_collinear_born_matrix_identities(t):
    # seed 23 has a moderately conditioned Gram (1.7e2); seed 7 (8.5e3)
    # needs a Phi that does not square it (via eigh(G): residual 1.2e-8)
    for seed in (23, 7):
        L = random_unbiased_mic(3, seed)
        d, n = L.dim, len(L)
        AJ = np.outer(L.weights, np.ones(n))
        phi = born_matrix(L).phi
        Lt = collinear(L, t)
        pred_phi = phi / t**2 + (1 - 1 / t**2) * AJ / d
        assert np.max(np.abs(born_matrix(Lt).phi - pred_phi)) <= 1e-9
        pred_root = sqrt_born(L) / abs(t) + (1 - 1 / abs(t)) * AJ / d
        assert np.max(np.abs(sqrt_born(Lt) - pred_root)) <= 1e-8


def test_unitary_covariance(rng):
    E = random_mic(3, 33)
    U = random_unitary(3, rng)
    rotated = MeasureBasis(np.einsum("ij,njk,lk->nil", U, E.elements, U.conj()))
    pw_rotated = principal_wigner(rotated).basis.elements
    rotated_pw = np.einsum(
        "ij,njk,lk->nil", U, principal_wigner(E).basis.elements, U.conj()
    )
    assert np.max(np.abs(pw_rotated - rotated_pw)) <= 1e-9


def test_tensor_covariance():
    pw_single = principal_wigner(builtin_sic(2)).basis.elements
    expected = np.stack([
        np.kron(pw_single[i], pw_single[j])
        for i in range(4) for j in range(4)
    ])
    got = principal_wigner(tensorhedron(2)).basis.elements
    assert np.max(np.abs(got - expected)) <= 1e-9


def test_wigner_equivalent_parallel():
    L = random_mic(3, 40)
    res = wigner_equivalent(L, collinear(L, 0.5))
    assert res and res.verdict == "equivalent"


def test_wigner_equivalent_antiparallel_is_shifted():
    L = random_mic(3, 40)
    res = wigner_equivalent(L, collinear(L, -0.5))
    assert not res and res.verdict == "mismatch"
    anti_pw = principal_wigner(collinear(L, -0.5)).basis
    target = shifted(principal_wigner(L).basis)
    np.testing.assert_allclose(anti_pw.elements, target.elements, atol=1e-9)


def test_wigner_equivalent_generic_unitary(rng):
    E = builtin_sic(2)
    U = random_unitary(2, rng)
    rotated = MeasureBasis(np.einsum("ij,njk,lk->nil", U, E.elements, U.conj()))
    assert not wigner_equivalent(E, rotated)


def test_wigner_equivalent_permuted_mode():
    L = random_mic(2, 41)
    perm = [2, 0, 3, 1]
    # permuting an unbiased collinear copy keeps the PW element multiset
    M = MeasureBasis(collinear(L, 0.7).elements[perm])
    ordered = wigner_equivalent(L, M)
    permuted = wigner_equivalent(L, M, mode="permuted")
    assert not ordered
    assert permuted and permuted.verdict == "equivalent"
    # permutation maps PW(L) indices to matching PW(M) indices
    assert [perm[j] for j in permuted.permutation] == [0, 1, 2, 3]


def test_greedy_match_follows_the_loop_reference(rng):
    from quasibasis.wigner import _greedy_match

    def reference(X, Y, allowed):
        used, perm = np.zeros(len(Y), dtype=bool), []
        for i, x in enumerate(X):
            devs = [np.inf if used[j] or not allowed[i, j]
                    else np.max(np.abs(x - Y[j])) for j in range(len(Y))]
            j = int(np.argmin(devs))
            if not np.isfinite(devs[j]):
                return None
            used[j] = True
            perm.append(j)
        return perm

    for trial in range(20):
        X, Y = rng.integers(-3, 4, (2, 6, 2, 2)) * 1.0  # distances tie often
        allowed = rng.random((6, 6)) < (0.5 if trial % 2 else 1.0)
        got = _greedy_match(X, Y, allowed)
        want = reference(X, Y, allowed)
        assert (None if got is None else list(got)) == want


def test_wigner_equivalent_dim_mismatch():
    with pytest.raises(ValueError):
        wigner_equivalent(builtin_sic(2), builtin_sic(3))


def test_lift_identity_on_own_basis():
    F = wootters_wigner(3)
    np.testing.assert_allclose(lift(F, F).elements, F.elements, atol=1e-12)


def test_lift_inverts_principal_wigner():
    E = random_mic(3, 50)
    F = principal_wigner(E).basis
    lifted = lift(F, E)
    np.testing.assert_allclose(lifted.weights, F.weights, atol=1e-12)
    back = principal_wigner(lifted).basis
    np.testing.assert_allclose(back.elements, F.elements, atol=1e-9)
    assert wigner_equivalent(lifted, E).equivalent


def test_lift_then_collinear_reaches_a_mic():
    from quasibasis.constructions import mic_t_range

    F = wootters_wigner(3)
    L = random_mic(3, 51)
    lifted = lift(F, L)
    t_min, t_max = mic_t_range(lifted)
    mic = collinear(lifted, t_max / 2)
    assert mic.classify().is_mic
    np.testing.assert_allclose(
        principal_wigner(mic).basis.elements, F.elements, atol=1e-9
    )


def test_lift_rejects_non_wigner_input():
    with pytest.raises(ValueError, match="Wigner"):
        lift(builtin_sic(2), builtin_sic(2))


def test_wigner_equivalent_permuted_failure_is_greedy_verdict():
    # equal-bias but inequivalent bases: permuted mode cannot certify a
    # mismatch, so it reports greedy failure instead
    L = random_unbiased_mic(2, 60)
    M = random_unbiased_mic(2, 61)
    res = wigner_equivalent(L, M, mode="permuted")
    assert not res and res.verdict == "greedy_unmatched"
