import os
import re

import numpy as np
import pytest

from quasibasis.bases import BasisValidationError, MeasureBasis, dual_basis
from quasibasis.constructions import (
    builtin_sic,
    collinear,
    random_mic,
    random_unbiased_mic,
    sic_from_fiducial,
    sic_gram_deviation,
    wootters_wigner,
)
from quasibasis.operators import (
    NonHermitianError,
    as_hermitian,
    hs_inner,
    op_to_coords,
)
from quasibasis.serialize import write_fiducial, write_state
from quasibasis import representations
from quasibasis.representations import (
    POVMValidationError,
    _born,
    QuasiDistribution,
    StateValidationError,
    conditional_matrix,
    ebmc_apply,
    gauge_split,
    probs_to_state,
    state_to_probs,
    two_step_q,
    validate_povm,
    validate_state,
)
from quasibasis.wigner import principal_wigner
from quasibasis.analysis import ceiling_negativity

from conftest import SX, SY, SZ, random_density, random_povm, random_pure_state


def test_validate_state_rejects_bad_trace():
    with pytest.raises(StateValidationError, match="trace"):
        validate_state(np.eye(2))


def test_validate_state_rejects_negative():
    with pytest.raises(StateValidationError, match="eigenvalue"):
        validate_state(np.diag([1.5, -0.5]))


def test_validate_povm_rejects_bad_sum():
    with pytest.raises(POVMValidationError, match="identity"):
        validate_povm(np.stack([np.eye(2) / 2, np.eye(2) / 3]))


def test_garbage_state_gives_bias_over_d():
    basis = random_mic(3, 3)
    probs = state_to_probs(np.eye(3) / 3, basis)
    np.testing.assert_allclose(probs, basis.weights / 3, atol=1e-13)


def test_sic_projector_probabilities():
    E = builtin_sic(2)
    rho = 2 * E.elements[0]  # the first SIC projector
    np.testing.assert_allclose(
        state_to_probs(rho, E), [1 / 2, 1 / 6, 1 / 6, 1 / 6], atol=1e-13
    )


def test_wigner_representation_can_go_negative(rng):
    F = wootters_wigner(3)
    values = state_to_probs(random_pure_state(3, rng), F)
    assert values.sum() == pytest.approx(1.0, abs=1e-12)
    # the basis carries nonzero ceiling negativity, so some state is negative
    rho_neg = np.zeros((3, 3), dtype=complex)
    vals, vecs = np.linalg.eigh(F.elements[0])
    rho_neg = np.outer(vecs[:, 0], vecs[:, 0].conj())
    assert state_to_probs(rho_neg, F).min() < -0.1


def test_probs_round_trip(rng):
    basis = random_mic(3, 4)
    for _ in range(20):
        rho = random_density(3, rng)
        rec = probs_to_state(state_to_probs(rho, basis), basis)
        np.testing.assert_allclose(rec.operator, rho, atol=1e-9)
        assert rec.is_state


def test_probs_to_state_garbage_round_trip():
    basis = random_mic(2, 5)
    rec = probs_to_state(basis.weights / 2, basis)
    np.testing.assert_allclose(rec.operator, np.eye(2) / 2, atol=1e-12)


def test_probs_to_state_output_is_exactly_hermitian(rng):
    # coords_to_op writes it so, and nothing symmetrizes it again
    for basis in (random_mic(3, 4), wootters_wigner(3), builtin_sic(2)):
        op = probs_to_state(rng.standard_normal(len(basis)), basis).operator
        assert np.array_equal(op, op.conj().T)


def test_probs_to_state_flags_non_state():
    F = wootters_wigner(2)
    rec = probs_to_state(np.array([1.0, 0.0, 0.0, 0.0]), F)
    assert not rec.is_state
    assert rec.min_eigenvalue < -0.1
    # the reconstruction is the rescaled dual element F_1 / f_1
    np.testing.assert_allclose(
        rec.operator, F.elements[0] / F.weights[0], atol=1e-12
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probs_to_state_rejects_non_finite(bad):
    basis = random_mic(2, 5)
    p = basis.weights / 2
    p[2] = bad
    with pytest.raises(ValueError,
                       match=f"non-finite coefficient {bad} at index 2"):
        probs_to_state(p, basis)


def test_probs_round_trip_across_the_admitted_conditioning():
    # collinear members of random unbiased MICs close to the identity: the
    # Gram condition kappa runs from ~1e6 to ~7e11. The dual comes from the
    # SVD of the coordinates, so the round trip loses eps * sqrt(kappa), not
    # eps * kappa: the measured worst is 0.28 eps sqrt(kappa) (1.4e-11)
    eps = np.finfo(float).eps
    kappas = []
    for d in (3, 4, 6):
        for seed in range(1, 9):
            L = random_unbiased_mic(d, seed)
            rng = np.random.default_rng(1000 * d + seed)
            psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            psi /= np.linalg.norm(psi)
            rho = np.eye(d) / (2 * d) + np.outer(psi, psi.conj()) / 2
            for t in (1e-2, 3e-3, 1e-3, -1e-3, 3e-4, -3e-4):
                try:
                    B = collinear(L, t)
                except BasisValidationError:
                    continue  # condition beyond MAX_GRAM_CONDITION
                kappa = B.classify().gram_condition
                rec = probs_to_state(state_to_probs(rho, B), B)
                err = np.max(np.abs(rec.operator - rho))
                case = (d, seed, t, kappa, err)
                assert rec.is_state, case
                assert err <= 4 * eps * np.sqrt(kappa), case
                kappas.append(kappa)
    assert len(kappas) >= 100
    assert sum(k >= 1e10 for k in kappas) >= 20 and max(kappas) >= 1e11


@pytest.mark.parametrize("call, arg, expected", [
    (validate_state, np.stack([np.eye(2) / 2] * 3),
     "expected (d, d) state, got shape (3, 2, 2)"),
    (validate_state, np.ones(2) / 2, "expected (d, d) state, got shape (2,)"),
    (validate_povm, np.eye(2), "expected (n, d, d) effects, got shape (2, 2)"),
    (dual_basis, np.eye(2), "expected (n, d, d) elements, got shape (2, 2)"),
    (dual_basis, np.ones((4, 2, 3)),
     "expected (n, d, d) elements, got shape (4, 2, 3)"),
    (MeasureBasis, np.eye(2), "expected (n, d, d) elements, got shape (2, 2)"),
    (lambda X: ebmc_apply(random_mic(3, 1), X), np.stack([np.eye(3) / 3] * 3),
     "expected (d, d) operator, got shape (3, 3, 3)"),
    (lambda D: conditional_matrix(D, random_mic(3, 1)), np.eye(3),
     "expected (n, d, d) effects, got shape (3, 3)"),
    (lambda D: conditional_matrix(D, random_mic(3, 1)), np.ones(3),
     "expected (n, d, d) effects, got shape (3,)"),
    (as_hermitian, np.ones(3),
     "expected (d, d) or (n, d, d) operator, got shape (3,)"),
    (op_to_coords, np.ones((2, 2, 2, 2)),
     "expected (d, d) or (n, d, d) operator, got shape (2, 2, 2, 2)"),
    (lambda A: hs_inner(A, np.eye(2)), np.stack([np.eye(2)] * 3),
     "expected (d, d) operator, got shape (3, 2, 2)"),
    (sic_gram_deviation, np.eye(2),
     "expected (n, d, d) elements, got shape (2, 2)"),
    (sic_from_fiducial, np.eye(2) / np.sqrt(2),
     "expected (d,) fiducial, got shape (2, 2)"),
    (lambda f: write_fiducial(f, os.devnull), np.eye(2),
     "expected (d,) fiducial, got shape (2, 2)"),
    (lambda rho: write_state(rho, os.devnull), np.ones((2, 3)),
     "expected (d, d) state, got shape (2, 3)"),
], ids=["state-stack", "state-vector", "povm-matrix", "dual-matrix",
        "dual-non-square", "basis-matrix", "ebmc-stack", "conditional-matrix",
        "conditional-vector", "hermitian-vector", "coords-4d",
        "hs-inner-stack", "sic-deviation-matrix", "fiducial-matrix",
        "write-fiducial-matrix", "write-state-non-square"])
def test_wrong_shapes_name_the_expected_shape(call, arg, expected):
    with pytest.raises(ValueError, match=re.escape(expected)):
        call(arg)


def test_conditional_matrix_columns_sum_to_one(rng):
    basis = random_mic(3, 6)
    D = random_povm(3, 5, rng)
    cond = conditional_matrix(D, basis)
    np.testing.assert_allclose(cond.sum(axis=0), 1.0, atol=1e-10)
    assert cond.min() >= -1e-12 and cond.max() <= 1 + 1e-12


def test_two_step_agreement(rng):
    basis = random_mic(3, 7)
    for _ in range(100):
        D = random_povm(3, 4, rng)
        rho = random_density(3, rng)
        q_direct, q_cascade = two_step_q(D, basis, rho)
        assert np.max(np.abs(q_direct - q_cascade)) <= 1e-9


def test_two_step_on_basis_states():
    # computational projectors after a Wootters reference still predict
    # the direct Born probabilities
    F = wootters_wigner(3)
    D = np.stack([np.diag([1.0 + 0j if i == j else 0.0 for j in range(3)])
                  for i in range(3)])
    rho = np.diag([1.0 + 0j, 0, 0])
    q_direct, q_cascade = two_step_q(D, F, rho)
    np.testing.assert_allclose(q_direct, [1, 0, 0], atol=1e-13)
    np.testing.assert_allclose(q_cascade, [1, 0, 0], atol=1e-10)


def test_classical_ltp_fails():
    # dropping the Born matrix (classical law of total probability) must
    # change the answer for a generic state
    E = builtin_sic(2)
    rho = 2 * E.elements[0]
    cond = conditional_matrix(E.elements, E)
    p_ref = state_to_probs(rho, E)
    q_classical = cond @ p_ref
    q_direct = state_to_probs(rho, E)
    assert np.max(np.abs(q_classical - q_direct)) > 1e-3


def test_gauge_split_right_is_pw_wigner_function():
    E = builtin_sic(2)
    rho = 2 * E.elements[0]
    split = gauge_split(E.elements, E, rho)
    pw = principal_wigner(E).basis
    np.testing.assert_allclose(
        split.right.values, state_to_probs(rho, pw), atol=1e-12
    )


def test_gauge_split_trivial_for_wigner_reference(rng):
    # sqrt(Phi) = I for a Wigner reference, so the split changes nothing
    F = wootters_wigner(3)
    rho = random_density(3, rng)
    D = random_povm(3, 4, rng)
    split = gauge_split(D, F, rho)
    np.testing.assert_allclose(
        split.right.values, state_to_probs(rho, F), atol=1e-12
    )
    np.testing.assert_allclose(
        split.left, conditional_matrix(D, F), atol=1e-12
    )


def test_gauge_split_reconstruction(rng):
    basis = random_unbiased_mic(3, 8)
    for _ in range(20):
        D = random_povm(3, 4, rng)
        rho = random_density(3, rng)
        split = gauge_split(D, basis, rho)
        assert split.reconstruction_residual <= 1e-9
        np.testing.assert_allclose(split.left.sum(axis=0), 1.0, atol=1e-9)
        assert split.right.values.sum() == pytest.approx(1.0, abs=1e-10)


def test_gauge_split_fails_closed_on_nan(monkeypatch, rng):
    basis = random_unbiased_mic(3, 8)
    real_conditional = representations._conditional

    def one_nan_conditional(D, basis):
        M = real_conditional(D, basis)
        M[0, 0] = np.nan
        return M

    monkeypatch.setattr(representations, "_conditional", one_nan_conditional)
    with pytest.raises(ArithmeticError, match=r"\(residual nan\)"):
        gauge_split(random_povm(3, 4, rng), basis, random_density(3, rng))


def test_gauge_split_checks_a_non_mic_basis_own_elements_as_effects():
    # read off the basis's cached element spectra, with validate_povm's
    # message for the same stack
    F = wootters_wigner(3)
    with pytest.raises(POVMValidationError) as want:
        representations.validate_povm(np.array(F.elements))
    with pytest.raises(POVMValidationError) as got:
        gauge_split(F.elements, F, np.eye(3) / 3)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("effect minimum eigenvalue")
    with pytest.raises(POVMValidationError) as got:
        two_step_q(F.elements, F, np.eye(3) / 3)
    assert str(got.value) == str(want.value)


def test_gauge_split_rejects_biased_reference():
    basis = random_mic(2, 9)  # generically biased
    assert not basis.classify().is_unbiased
    with pytest.raises(ValueError, match="unbiased"):
        gauge_split(basis.elements, basis, np.eye(2) / 2)


def test_quasidistribution_negativity():
    qd = QuasiDistribution(np.array([0.7, 0.5, -0.2, 0.0]))
    assert qd.negativity == pytest.approx(0.2)
    with pytest.raises(ValueError, match="sums"):
        QuasiDistribution(np.array([0.5, 0.2]))


@pytest.mark.parametrize("values,text", [
    ([0.5, 0.5 + 3e-9], "sums to 1.000000003, 3.000e-09 away from 1"),
    ([0.5, 0.2], "sums to 0.7, 3.000e-01 away from 1"),
    ([2.0, -0.5, 1.5], "sums to 3, 2.000e+00 away from 1"),
    ([np.nan, 1.0], "sums to nan, nan away from 1"),
])
def test_quasidistribution_sum_error_names_the_sum(values, text):
    with pytest.raises(ValueError) as info:
        QuasiDistribution(np.array(values))
    assert str(info.value) == "quasidistribution " + text


def test_wigner_negativity_bounded_by_ceiling(rng):
    F = wootters_wigner(3)
    ceiling = ceiling_negativity(F)
    for _ in range(30):
        qd = QuasiDistribution(state_to_probs(random_pure_state(3, rng), F))
        assert 0.0 <= qd.negativity <= 9 * ceiling + 1e-12


def test_ebmc_fixes_identity():
    basis = random_mic(3, 10)
    np.testing.assert_allclose(
        ebmc_apply(basis, np.eye(3)), np.eye(3), atol=1e-12
    )


def test_ebmc_wigner_reference_is_identity_map(rng):
    F = wootters_wigner(3)
    X = random_density(3, rng)
    np.testing.assert_allclose(ebmc_apply(F, X), X, atol=1e-12)


def test_ebmc_depolarizes_qubit_sic():
    E = builtin_sic(2)
    rho = (np.eye(2) + SZ) / 2
    out = ebmc_apply(E, rho)
    bloch = np.array([np.trace(out @ P).real for P in (SX, SY, SZ)])
    np.testing.assert_allclose(bloch, [0, 0, 1 / 3], atol=1e-12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)


def test_ebmc_maps_states_to_states(rng):
    basis = random_mic(3, 12)
    for _ in range(20):
        out = ebmc_apply(basis, random_density(3, rng))
        assert np.linalg.eigvalsh(out)[0] >= -1e-10


def test_conditional_matrix_rejects_non_hermitian_effects():
    # Re tr(D L) of D = i L_j would read as zero rather than fail
    E = builtin_sic(2)
    with pytest.raises(NonHermitianError):
        conditional_matrix(1j * E.elements, E)


def test_conditional_matrix_rejects_zero_weight():
    from test_bases import zero_weight_basis

    with pytest.raises(ValueError, match="zero-weight"):
        conditional_matrix(np.stack([np.eye(2)]), zero_weight_basis())


def test_born_contraction_matches_trace(rng):
    D = random_povm(4, 5, rng)
    rho = random_density(4, rng)
    np.testing.assert_allclose(
        _born(D, rho), np.einsum("jab,ba->j", D, rho).real, atol=1e-15
    )
    with pytest.raises(ValueError, match="dimension mismatch"):
        _born(D, np.eye(3) / 3)


def test_born_layer_validates_each_state_once(monkeypatch, rng):
    calls = []
    real = representations.validate_state

    def counting(rho):
        calls.append(1)
        return real(rho)

    monkeypatch.setattr(representations, "validate_state", counting)
    basis = random_unbiased_mic(3, 8)
    D = random_povm(3, 4, rng)
    rho = random_density(3, rng)
    for call in (gauge_split, two_step_q):
        calls.clear()
        call(D, basis, rho)
        assert len(calls) == 1, call.__name__
