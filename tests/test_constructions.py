import numpy as np
import pytest

from quasibasis.bases import MeasureBasis, gram
from quasibasis.constructions import (
    SicOrbitError,
    builtin_sic,
    collinear,
    composite_wootters,
    mic_t_range,
    parity_operator,
    random_mic,
    random_unbiased_mic,
    random_unbiased_wigner,
    sic_from_fiducial,
    sic_gram,
    tensor_basis,
    tensorhedron,
    wh_displacement,
    wh_flat_index,
    wh_index_pair,
    wootters_wigner,
)
from quasibasis.analysis import wh_covariant

from conftest import SX, SZ, random_unitary


def test_wh_displacement_paulis():
    np.testing.assert_allclose(wh_displacement(2, 1, 0), SX)
    np.testing.assert_allclose(wh_displacement(2, 0, 1), SZ)


@pytest.mark.parametrize("d,k,l", [(3, 1, 1), (5, 2, 4), (4, 3, 1)])
def test_wh_displacement_unitary(d, k, l):
    D = wh_displacement(d, k, l)
    np.testing.assert_allclose(D @ D.conj().T, np.eye(d), atol=1e-12)


def test_wh_index_round_trip():
    d = 5
    for flat in range(d * d):
        k, l = wh_index_pair(d, flat)
        assert wh_flat_index(d, k, l) == flat


def test_sic_from_fiducial_qubit():
    # Bloch vector (1,1,1)/sqrt(3) lifts to this ket up to phase
    theta = np.arccos(1 / np.sqrt(3))
    fid = np.array(
        [np.cos(theta / 2), np.exp(1j * np.pi / 4) * np.sin(theta / 2)]
    )
    basis = sic_from_fiducial(fid)
    np.testing.assert_allclose(gram(basis), sic_gram(2), atol=1e-13)


def test_sic_from_fiducial_hesse():
    fid = np.array([0, 1, -1]) / np.sqrt(2)
    basis = sic_from_fiducial(fid)
    np.testing.assert_allclose(gram(basis), sic_gram(3), atol=1e-13)


def test_sic_from_fiducial_rejects_basis_state():
    with pytest.raises(SicOrbitError) as err:
        sic_from_fiducial(np.array([1.0, 0.0, 0.0]))
    assert err.value.max_deviation > 1e-3


def test_sic_from_fiducial_rejects_unnormalized():
    with pytest.raises(ValueError, match="unit norm"):
        sic_from_fiducial(np.array([1.0, 1.0]))


def test_builtin_sic_qubit():
    basis = builtin_sic(2)
    cls = basis.classify()
    assert cls.is_mic and cls.is_unbiased and cls.is_rank1
    np.testing.assert_allclose(
        basis.elements.sum(axis=0), np.eye(2), atol=1e-15
    )


def test_builtin_sic_hesse():
    basis = builtin_sic(3)
    assert len(basis) == 9
    cls = basis.classify()
    assert cls.is_rank1
    np.testing.assert_allclose(basis.weights, 1 / 3, atol=1e-13)


def test_builtin_sic_unsupported():
    with pytest.raises(ValueError, match="no built-in SIC"):
        builtin_sic(7)


def test_wootters_qubit_gram():
    F = wootters_wigner(2)
    np.testing.assert_allclose(gram(F), np.eye(4) / 2, atol=1e-14)


def test_wootters_qutrit():
    F = wootters_wigner(3)
    np.testing.assert_allclose(F.weights, 1 / 3, atol=1e-13)
    cls = F.classify()
    assert cls.is_wigner and not cls.is_mic
    assert cls.min_eigenvalue < -1e-3


def test_parity_operator_trace_one():
    for d in (3, 5, 7):
        assert np.trace(parity_operator(d)).real == pytest.approx(1.0)


def test_wootters_rejects_composite():
    with pytest.raises(ValueError, match="composite_wootters"):
        wootters_wigner(4)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_wootters_wh_covariant(d):
    assert wh_covariant(wootters_wigner(d))


def test_composite_wootters_two_qubits():
    F = composite_wootters([2, 2])
    assert F.dim == 4 and len(F) == 16
    cls = F.classify()
    assert cls.is_wigner and cls.is_unbiased


def test_composite_wootters_single_factor():
    np.testing.assert_allclose(
        composite_wootters([3]).elements, wootters_wigner(3).elements
    )


def test_composite_wootters_bias():
    F = composite_wootters([2, 3])
    np.testing.assert_allclose(F.weights, 1 / 6, atol=1e-13)


def test_composite_wootters_rejects_nonprime():
    with pytest.raises(ValueError, match="not prime"):
        composite_wootters([4])


def test_collinear_t_one_is_identity():
    L = builtin_sic(2)
    np.testing.assert_allclose(collinear(L, 1.0).elements, L.elements)


def test_collinear_t_zero_rejected():
    with pytest.raises(ValueError):
        collinear(builtin_sic(2), 0.0)


def test_collinear_antiparallel_qubit_sic():
    L = builtin_sic(2)
    anti = collinear(L, -1.0)
    np.testing.assert_allclose(
        anti.elements, np.eye(2) / 2 - L.elements, atol=1e-15
    )
    eigs = np.linalg.eigvalsh(anti.elements)
    np.testing.assert_allclose(
        np.sort(eigs, axis=1), [[0.0, 0.5]] * 4, atol=1e-14
    )


def test_collinear_preserves_bias():
    L = random_mic(3, 6)
    for t in (0.5, -0.7, 2.0):
        np.testing.assert_allclose(
            collinear(L, t).weights, L.weights, atol=1e-12
        )


def test_collinear_composes_multiplicatively():
    L = random_mic(2, 12)
    inner = collinear(collinear(L, 0.8), -0.5)
    np.testing.assert_allclose(
        inner.elements, collinear(L, -0.4).elements, atol=1e-10
    )


def test_t_range_qubit_sic():
    t_min, t_max = mic_t_range(builtin_sic(2))
    assert t_min == pytest.approx(-1.0, abs=1e-12)
    assert t_max == pytest.approx(1.0, abs=1e-12)


def test_t_range_wootters_boundary():
    F = wootters_wigner(3)
    t_min, t_max = mic_t_range(F)
    boundary = collinear(F, t_max)
    min_eig = np.linalg.eigvalsh(boundary.elements)[:, 0].min()
    assert abs(min_eig) <= 1e-8
    outside = collinear(F, 1.01 * t_max)
    assert np.linalg.eigvalsh(outside.elements)[:, 0].min() < -1e-6


@pytest.mark.parametrize("seed", [0, 3])
def test_t_range_interior_and_exterior(seed):
    L = random_mic(2, seed)
    t_min, t_max = mic_t_range(L)
    samples = [t for t in np.linspace(t_min, t_max, 12) if abs(t) > 1e-6]
    assert len(samples) >= 10
    for t in samples:
        assert collinear(L, t).classify().is_mic
    assert not collinear(L, 1.05 * t_max).classify().is_mic
    assert not collinear(L, 1.05 * t_min).classify().is_mic


def test_tensor_basis_bias_and_gram():
    L, M = builtin_sic(2), wootters_wigner(3)
    T = tensor_basis(L, M)
    np.testing.assert_allclose(
        T.weights, np.outer(L.weights, M.weights).ravel(), atol=1e-13
    )
    np.testing.assert_allclose(
        gram(T), np.kron(gram(L), gram(M)), atol=1e-13
    )
    kron_loop = [np.kron(A, B) for A in L.elements for B in M.elements]
    np.testing.assert_array_equal(T.elements, kron_loop)


def test_tensor_of_mics_is_mic():
    T = tensor_basis(builtin_sic(2), builtin_sic(3))
    assert T.classify().is_mic


def test_tensorhedron_one_is_qubit_sic():
    np.testing.assert_allclose(
        tensorhedron(1).elements, builtin_sic(2).elements
    )


def test_tensorhedron_two():
    T = tensorhedron(2)
    assert T.dim == 4 and len(T) == 16
    cls = T.classify()
    assert cls.is_mic and cls.is_unbiased and cls.is_rank1
    G2 = gram(builtin_sic(2))
    np.testing.assert_allclose(gram(T), np.kron(G2, G2), atol=1e-14)


def test_random_mic_validates():
    assert random_mic(3, 42).classify().is_mic


def test_random_mic_deterministic():
    np.testing.assert_array_equal(
        random_mic(3, 42).elements, random_mic(3, 42).elements
    )


def test_random_unbiased_mic_weights():
    basis = random_unbiased_mic(2, 7)
    np.testing.assert_allclose(basis.weights, 0.5, atol=1e-10)
    assert basis.classify().is_mic


def test_random_unbiased_wigner():
    F = random_unbiased_wigner(3, 1)
    np.testing.assert_allclose(gram(F), np.eye(9) / 3, atol=1e-12)
    np.testing.assert_allclose(F.elements.sum(axis=0), np.eye(3), atol=1e-12)


@pytest.mark.parametrize("d", [4, 6])
def test_random_unbiased_wigner_composite_dims(d):
    cls = random_unbiased_wigner(d, 5).classify()
    assert cls.is_wigner and cls.is_unbiased


def test_random_builders_reject_bad_dim():
    with pytest.raises(ValueError):
        random_mic(9, 0)


def test_gram_unitarily_invariant(rng):
    E = random_mic(3, 3)
    U = random_unitary(3, rng)
    rotated = MeasureBasis(
        np.einsum("ij,njk,lk->nil", U, E.elements, U.conj())
    )
    assert np.max(np.abs(gram(rotated) - gram(E))) <= 1e-10
