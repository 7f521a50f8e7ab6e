"""The real-view Hilbert-Schmidt kernels against the einsum formulas they
replace, and a guard that the hot path never plans an einsum."""

import numpy as np
import pytest

from quasibasis import (
    MeasureBasis,
    collinear,
    distance,
    distance_bounds,
    gauge_split,
    lift,
    principal_wigner,
    random_mic,
    random_unbiased_mic,
    shifted,
    tensor_basis,
    wigner_equivalent,
)
from quasibasis.bases import _gram_of
from quasibasis.operators import _mix, coords_to_op, herm_onb, op_to_coords

DIMS = (2, 3, 4, 6, 8, 12)
RTOL = 1e-14


def random_stack(rng, n, d, hermitian=True):
    Z = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return (Z + np.swapaxes(Z, -1, -2).conj()) / 2 if hermitian else Z


def layouts(E):
    """The stack itself and non-contiguous views of the same operators
    (or, for the transpose, of their complex conjugates)."""
    strided = np.empty((2 * len(E),) + E.shape[1:], dtype=complex)
    strided[::2] = E
    return {
        "contiguous": E,
        "strided": strided[::2],
        "reversed": E[::-1],
        "transposed": np.swapaxes(E, -1, -2),
        "fortran": np.asfortranarray(E),
    }


def close(got, ref, scale):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= RTOL * scale


@pytest.mark.parametrize("d", DIMS)
def test_op_to_coords_matches_einsum(d):
    rng = np.random.default_rng(d)
    onb = herm_onb(d)
    for hermitian in (True, False):
        E = random_stack(rng, 5, d, hermitian)
        for X in layouts(E).values():
            ref = np.einsum("aij,...ji->...a", onb, X).real
            scale = np.max(np.linalg.norm(X, axis=(-2, -1)))
            close(op_to_coords(X), ref, scale)
            close(op_to_coords(X[1]), ref[1], scale)


@pytest.mark.parametrize("d", DIMS)
def test_coords_to_op_matches_einsum(d):
    rng = np.random.default_rng(100 + d)
    onb = herm_onb(d)
    V = rng.standard_normal((d * d, 7))
    for v in (V.T, np.ascontiguousarray(V.T), V[:, 3], V.T[::2]):
        ref = np.einsum("...a,aij->...ij", v, onb)
        close(coords_to_op(v, d), ref, np.max(np.linalg.norm(v, axis=-1)))
    # round trip through the coordinates of a Hermitian stack
    E = random_stack(rng, 4, d)
    close(coords_to_op(op_to_coords(E), d), E,
          np.max(np.linalg.norm(E, axis=(-2, -1))))


@pytest.mark.parametrize("d", DIMS)
def test_gram_of_matches_einsum(d):
    rng = np.random.default_rng(200 + d)
    E = random_stack(rng, d * d, d)
    for X in layouts(E).values():
        ref = np.einsum("aij,bji->ab", X, X).real
        ref = (ref + ref.T) / 2
        G = _gram_of(X)
        close(G, ref, np.max(np.linalg.norm(X, axis=(-2, -1))) ** 2)
        assert np.array_equal(G, G.T)


@pytest.mark.parametrize("d", DIMS)
def test_mix_matches_einsum(d):
    rng = np.random.default_rng(300 + d)
    n = d * d
    E = random_stack(rng, n, d)
    C = rng.standard_normal((n, n))
    for X in layouts(E).values():
        for c in (C, C.T, C[:3]):
            ref = np.einsum("ij,jab->iab", c, X)
            scale = (np.max(np.linalg.norm(c, axis=1))
                     * np.max(np.linalg.norm(X, axis=0)))
            close(_mix(c, X), ref, scale)


def test_hot_path_plans_no_einsum(monkeypatch):
    # np.einsum calls einsum_path (a Python search) for optimize=True;
    # count the calls through the global that einsum itself looks up
    calls = [0]
    real_path = np.einsum_path

    def counting(*args, **kwargs):
        calls[0] += 1
        return real_path(*args, **kwargs)

    monkeypatch.setitem(np.einsum.__wrapped__.__globals__, "einsum_path",
                        counting)
    a = np.ones((3, 3))
    np.einsum("ij,jk,kl->il", a, a, a, optimize=True)
    assert calls[0] == 1  # the wrapper sees einsum's own planning
    calls[0] = 0

    # one d = 4 theorem session on an unbiased MIC
    raw = np.array(random_unbiased_mic(4, 1).elements)
    shuffle = np.random.default_rng(0).permutation(16)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    L = MeasureBasis(raw)
    pw = principal_wigner(L).basis
    spw = shifted(pw)
    distance_bounds(L)
    distance(L, pw)
    distance(L, spw)
    principal_wigner(collinear(L, 0.5))
    principal_wigner(collinear(L, -0.5))
    partner = MeasureBasis(collinear(L, 0.5).elements[shuffle])
    assert wigner_equivalent(L, partner, mode="permuted").equivalent
    lift(pw, L)
    gauge_split(L.elements, L, rho)

    # one d = 12 principal Wigner basis of a fresh basis
    raw12 = np.array(tensor_basis(random_mic(4, 2), random_unbiased_mic(3, 2))
                     .elements)
    principal_wigner(MeasureBasis(raw12))
    assert calls[0] == 0
