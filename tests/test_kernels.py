"""The real-view Hilbert-Schmidt kernels and the builders' operator-stack
contractions against the einsum formulas they replace, a guard that the hot
path never plans an einsum, a guard that no module contracts more than
two arrays in one einsum, a guard that the inverse maps of a basis
factorize nothing once its Loewdin SVD and element spectra are cached, and
a guard that pins the factorizations of one theorem session in order."""

import ast
from pathlib import Path

import numpy as np
import pytest

import quasibasis

from quasibasis import (
    MeasureBasis,
    born_matrix,
    collinear,
    distance,
    distance_bounds,
    dual_basis,
    gauge_split,
    lift,
    mic_t_range,
    principal_wigner,
    probs_to_state,
    random_mic,
    random_unbiased_mic,
    random_unbiased_wigner,
    shifted,
    sqrt_born,
    state_to_probs,
    tensor_basis,
    wigner_equivalent,
)
from quasibasis.analysis import (
    ceiling_negativity,
    ceiling_negativity_sampled,
    verify_negativity,
    verify_theorem2,
)
from quasibasis.bases import _gram_of
from quasibasis.constructions import (
    _whiten_to_identity,
    _wh_orbit,
    random_unbiased_wigner,
    wh_displacement,
)
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


@pytest.mark.parametrize("d", [2, 3, 4, 12, 16, 32])
def test_gram_of_is_exactly_symmetric(d):
    # _gram_of takes no (G + G^T) / 2 pass: X X^T must come out symmetric
    G = _gram_of(random_stack(np.random.default_rng(250 + d), d * d, d))
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


# The builders' operator-stack contractions against the three-operand
# einsums they replace, at the dimensions the builders took before d = 32;
# the Weyl-Heisenberg orbit, a gather with a phase table, also at d = 13
# and d = 32.
STACK_DIMS = (2, 3, 5, 8)


@pytest.mark.parametrize("d", STACK_DIMS)
def test_whiten_to_identity_matches_einsum(d):
    rng = np.random.default_rng(400 + d)
    W = random_stack(rng, d * d, d, hermitian=False)
    ops = W @ np.swapaxes(W, -1, -2).conj()
    total = ops.sum(axis=0)
    vals, vecs = np.linalg.eigh((total + total.conj().T) / 2)
    root_inv = (vecs * (1.0 / np.sqrt(vals))) @ vecs.conj().T
    root_inv = (root_inv + root_inv.conj().T) / 2
    ref = np.einsum("ij,njk,kl->nil", root_inv, ops, root_inv)
    scale = (np.linalg.norm(root_inv) ** 2
             * np.max(np.linalg.norm(ops, axis=(-2, -1))))
    close(_whiten_to_identity(ops), ref, scale)


@pytest.mark.parametrize("d", STACK_DIMS + (13, 32))
def test_wh_orbit_matches_einsum(d):
    rng = np.random.default_rng(500 + d)
    op = random_stack(rng, 1, d, hermitian=False)[0]
    D = np.stack([wh_displacement(d, k, l)
                  for k in range(d) for l in range(d)])
    # one operand pair at a time: the plain three-operand loop takes
    # seconds at d = 32
    ref = np.einsum("nij,jk,nlk->nil", D, op, D.conj(), optimize=True) / d
    close(_wh_orbit(op), ref, np.linalg.norm(op))


def ceiling_negativity_sampled_einsum(F, n_samples, seed):
    """ceiling_negativity_sampled with its contractions as the einsums
    "sa,iab,sb->si" and "ia,iab,ib->i"."""
    F = F.elements
    d = F.shape[-1]
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal(
        (n_samples, d)
    )
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    w = np.einsum("sa,iab,sb->si", kets.conj(), F, kets).real
    v = kets[np.argmin(w, axis=0)]
    c = np.linalg.norm(F, axis=(1, 2))[:, None]
    for _ in range(100):
        v = c * v - (F @ v[:, :, None])[:, :, 0]
        v /= np.linalg.norm(v, axis=1)[:, None]
    rayleigh = np.einsum("ia,iab,ib->i", v.conj(), F, v).real
    rayleigh += d * d * np.finfo(float).eps * c[:, 0]
    return max(0.0, float(-rayleigh.min()))


@pytest.mark.parametrize("d", STACK_DIMS)
def test_ceiling_negativity_sampled_matches_einsum(d):
    # 1000 samples: four blocks of the score matrix, the last one partial
    F = random_unbiased_wigner(d, d)
    scale = np.max(np.linalg.norm(F.elements, axis=(-2, -1)))
    for seed in (0, 1):
        got = ceiling_negativity_sampled(F, n_samples=1000, seed=seed)
        ref = ceiling_negativity_sampled_einsum(F, 1000, seed)
        assert abs(got - ref) <= RTOL * scale


def wide_einsums(source, filename):
    """(file, line) of every np.einsum call in source that contracts more
    than two array operands; a leading subscripts string is not one."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "einsum"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "np"):
            continue
        operands = node.args
        if operands and isinstance(operands[0], ast.Constant):
            operands = operands[1:]
        if len(operands) > 2:
            found.append((filename, node.lineno))
    return found


def test_no_module_contracts_three_operands_in_one_einsum():
    planted = ('y = np.einsum("ij,jk,kl->il", a, b, c)\n'
               'z = np.einsum("i,i", a, b)\n')
    assert wide_einsums(planted, "planted.py") == [("planted.py", 1)]
    modules = sorted(Path(quasibasis.__file__).parent.glob("*.py"))
    assert modules
    found = [hit for path in modules
             for hit in wide_einsums(path.read_text(), path.name)]
    assert found == []


def test_inverse_maps_reuse_the_cached_factorizations(count_linalg):
    L = collinear(random_unbiased_mic(4, 3), 0.5)
    F = principal_wigner(L).basis
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    p = state_to_probs(rho, L)
    fresh = MeasureBasis(L.elements)
    raw = np.array(L.elements)
    L._lowdin, L._element_spectra  # the factorizations a basis caches

    calls = count_linalg()
    np.linalg.eigvalsh(np.eye(2))
    assert calls == ["eigvalsh"]  # the wrappers see a direct call

    for call in (dual_basis, born_matrix, sqrt_born, mic_t_range):
        calls.clear()
        call(L)
        assert calls == [], call.__name__
    calls.clear()
    rec = probs_to_state(p, L)
    assert calls == ["eigvalsh"]  # of the output, for is_state
    assert rec.is_state

    # lift factorizes only to validate its output, as any new basis does:
    # one shifted Cholesky of its Gram proves independence
    calls.clear()
    out = lift(F, L)
    lifted = list(calls)
    calls.clear()
    MeasureBasis(out.elements)
    assert lifted == calls == ["cholesky"]

    # an uncached basis takes the one Loewdin SVD, then reuses it; a raw
    # stack takes one SVD of its coordinates
    calls.clear()
    dual_basis(fresh)
    probs_to_state(p, fresh)
    assert calls == ["svd", "eigvalsh"]
    calls.clear()
    dual_basis(raw)
    assert calls == ["svd"]


# The numpy.linalg calls of one d = 4 theorem session, in order, as the
# suite-small benchmark workload runs it on a fresh basis.
SESSION_FACTORIZATIONS = [
    "cholesky",  # MeasureBasis(raw): independence
    "svd", "eigh",  # principal_wigner(L): polar route, check route
    # shifted(PW): a Wigner basis, certified from its Gram diagonal
    "eigvalsh", "eigvalsh",  # distance_bounds: element and Gram spectra
    "cholesky", "cholesky",  # collinear(L, +-0.5)
    "cholesky",  # the shuffled partner of the t = 0.5 member
    "svd", "eigh", "svd", "eigh",  # PW of the two collinear members
    "svd", "eigh",  # wigner_equivalent: PW of the partner
    "cholesky",  # lift of PW(L)
    # gauge_split: the state spectrum; L's own elements are checked as
    # effects on the spectra that distance_bounds cached
    "eigvalsh",
]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_theorem_session_factorizations_are_pinned(count_linalg, seed):
    raw = np.array(random_unbiased_mic(4, seed).elements)
    shuffle = np.random.default_rng(0).permutation(16)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)

    calls = count_linalg()
    L = MeasureBasis(raw)
    pw = principal_wigner(L).basis
    spw = shifted(pw)
    distance_bounds(L)
    distance(L, pw)
    distance(L, spw)
    plus, minus = collinear(L, 0.5), collinear(L, -0.5)
    partner = MeasureBasis(plus.elements[shuffle])
    principal_wigner(plus)
    principal_wigner(minus)
    assert wigner_equivalent(L, partner, mode="permuted").equivalent
    lift(pw, L)
    gauge_split(L.elements, L, rho)
    assert calls == SESSION_FACTORIZATIONS


def test_scope_gates_take_no_gram_eigvalsh(count_linalg):
    # Each gate reads the flags set at construction and the MIC decision
    # from the batched element eigvalsh; none asks for the (n, n) Gram
    # spectrum that only classify() and distance_bounds use.
    mic = random_unbiased_mic(6, 1)
    calls = count_linalg(shapes=True)
    verify_theorem2(mic)
    assert ("eigvalsh", (36, 36)) not in calls
    assert calls.count(("eigvalsh", (36, 6, 6))) == 1
    for gate in (ceiling_negativity,
                 lambda F: verify_negativity(F, samples=64)):
        wig = random_unbiased_wigner(4, 1)
        calls.clear()
        gate(wig)
        assert [c for c in calls if c[0] != "norm"] == [
            ("eigvalsh", (16, 4, 4))]
    calls.clear()
    random_mic(6, 1)
    assert ("eigvalsh", (36, 36)) not in calls
