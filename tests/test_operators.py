import numpy as np
import pytest

from quasibasis.operators import (
    NonHermitianError,
    as_hermitian,
    coords_to_op,
    herm_onb,
    hs_inner,
    op_to_coords,
)

from conftest import SX, SY, SZ, random_hermitian


def test_hs_inner_identity():
    assert hs_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_hs_inner_orthogonal_paulis():
    assert hs_inner(SZ, SX) == pytest.approx(0.0, abs=1e-15)


def test_hs_inner_projector_idempotent():
    proj = np.array([[1, 0], [0, 0]], dtype=complex)
    assert hs_inner(proj, proj) == pytest.approx(1.0)


def test_hs_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))


@pytest.mark.parametrize("A,B", [(1j * np.eye(2), np.eye(2)),
                                 (np.eye(2), SX + 1j * SZ)])
def test_hs_inner_rejects_non_hermitian(A, B):
    # Re tr(AB) of A = i I, B = I would read as 0.0 rather than fail
    with pytest.raises(NonHermitianError):
        hs_inner(A, B)


def test_hs_inner_symmetric(rng):
    A = random_hermitian(4, rng)
    B = random_hermitian(4, rng)
    assert hs_inner(A, B) == pytest.approx(hs_inner(B, A), abs=1e-12)


def test_as_hermitian_rejects_large_asymmetry():
    with pytest.raises(NonHermitianError):
        as_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


@pytest.mark.parametrize("shape", [(2, 2), (5, 5), (4, 2, 2), (9, 3, 3),
                                   (144, 12, 12)])
def test_as_hermitian_equals_half_sum_with_adjoint(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(5):
        Z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        A = Z + np.swapaxes(Z, -1, -2).conj() + 1e-12 * noise
        A.real[..., 0, 1] = A.real[..., 1, 0] = -0.0  # signed zeros
        for given in (A, np.asfortranarray(A)):  # strided input too
            out = as_hermitian(given)
            assert np.array_equal(out, (A + np.swapaxes(A, -1, -2).conj()) / 2)
            assert out.flags.c_contiguous
            assert out.dtype == complex


def test_as_hermitian_rejection_messages():
    with pytest.raises(NonHermitianError) as info:
        as_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))
    assert str(info.value) == "asymmetry 7.071e-01 exceeds 1.0e-09 * norm " \
        "1.000e+00"
    stack = np.stack([np.eye(3, dtype=complex)] * 3)
    stack[2] = np.diag([2.0, 0.0, 0.0]) + np.diag([1.0, 0.0], 1)
    with pytest.raises(NonHermitianError) as info:
        as_hermitian(stack)
    assert str(info.value) == "asymmetry 7.071e-01 exceeds 1.0e-09 * norm " \
        "2.236e+00 (element 2)"
    stack[2, 0, 0] = np.nan
    with pytest.raises(ValueError) as info:
        as_hermitian(stack)
    assert str(info.value) == "non-finite Frobenius norm (element 2): a " \
        "NaN or inf entry, or entries too large to square"


def test_as_hermitian_absorbs_noise():
    A = SX + 1e-13 * np.array([[0, 1j], [0, 0]])
    out = as_hermitian(A)
    np.testing.assert_allclose(out, out.conj().T)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e300])
def test_as_hermitian_rejects_non_finite_norm(bad):
    stack = np.stack([np.eye(2), np.eye(2), np.eye(2)]).astype(complex)
    stack[1, 0, 1] = stack[1, 1, 0] = bad
    with pytest.raises(ValueError, match=r"non-finite .*\(element 1\)"):
        as_hermitian(stack)
    with pytest.raises(ValueError, match="non-finite"):
        as_hermitian(stack[1])


def test_herm_onb_qubit_is_paulis():
    B = herm_onb(2)
    np.testing.assert_allclose(B[0], np.eye(2) / np.sqrt(2))
    np.testing.assert_allclose(B[1], SX / np.sqrt(2))
    np.testing.assert_allclose(B[2], SY / np.sqrt(2))
    np.testing.assert_allclose(B[3], SZ / np.sqrt(2))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_herm_onb_orthonormal_and_traces(d):
    B = herm_onb(d)
    G = np.einsum("aij,bji->ab", B, B).real
    np.testing.assert_allclose(G, np.eye(d * d), atol=1e-13)
    traces = np.einsum("aii->a", B).real
    expected = np.zeros(d * d)
    expected[0] = np.sqrt(d)
    np.testing.assert_allclose(traces, expected, atol=1e-13)


def test_coords_of_identity_and_sigma_x():
    np.testing.assert_allclose(
        op_to_coords(np.eye(2)), [np.sqrt(2), 0, 0, 0], atol=1e-15
    )
    np.testing.assert_allclose(
        op_to_coords(SX), [0, np.sqrt(2), 0, 0], atol=1e-15
    )


def test_coords_round_trip(rng):
    A = random_hermitian(4, rng)
    np.testing.assert_allclose(coords_to_op(op_to_coords(A), 4), A, atol=1e-13)


def test_coords_isometry(rng):
    for _ in range(20):
        A = random_hermitian(3, rng)
        B = random_hermitian(3, rng)
        assert op_to_coords(A) @ op_to_coords(B) == pytest.approx(
            hs_inner(A, B), abs=1e-11
        )
