import numpy as np
import pytest

from quasibasis import bases
from quasibasis.bases import (
    BasisValidationError,
    MeasureBasis,
    bias,
    bias_matrix,
    born_matrix,
    dual_basis,
    frame_operator,
    gram,
    rescaled_frame_operator,
    validate,
)
from quasibasis.constructions import (
    builtin_sic,
    collinear,
    mic_t_range,
    random_mic,
    random_unbiased_mic,
    random_unbiased_wigner,
    sic_gram,
    tensor_basis,
    tensorhedron,
    wootters_wigner,
)
from quasibasis.operators import (
    SingularOperatorError,
    as_hermitian,
    coords_to_op,
    herm_onb,
    op_to_coords,
)
from quasibasis.wigner import principal_wigner, shifted

from conftest import SX, SY, SZ, random_hermitian


def zero_weight_basis():
    """Measure basis with one trace-zero element (allowed by validation,
    rejected by everything that divides by weights)."""
    eye = np.eye(2)
    return MeasureBasis([
        SX / 2,
        eye / 3 + SY / 4,
        eye / 3 + SZ / 4,
        eye / 3 - SX / 2 - SY / 4 - SZ / 4,
    ])


def test_validate_qubit_sic():
    cls = validate(builtin_sic(2).elements)
    assert cls.is_mic and cls.is_unbiased and cls.is_rank1
    assert not cls.is_wigner
    assert not cls.failures


def test_validate_wootters_qubit():
    cls = validate(wootters_wigner(2).elements)
    assert cls.is_wigner and not cls.is_mic
    assert cls.min_eigenvalue == pytest.approx((1 - np.sqrt(3)) / 4, abs=1e-12)


def test_validate_repeated_identity_fails():
    candidate = np.stack([np.eye(2) / 2] * 4)
    cls = validate(candidate)
    assert not cls.is_measure_basis
    assert "linear_independence" in cls.failures


def test_validate_wrong_count():
    with pytest.raises(ValueError, match="expected 4 elements"):
        validate(np.stack([np.eye(2)] * 3))


def test_measure_basis_rejects_bad_sum():
    with pytest.raises(BasisValidationError, match="sum_to_identity"):
        MeasureBasis(np.stack([np.eye(2)] * 4))


def _outside_mic_range(L):
    lo, hi = mic_t_range(L)
    return [collinear(L, 2 * lo), collinear(L, 2 * hi)]


CLASSIFY_CASES = {
    "sic2": lambda: [builtin_sic(2)],
    "sic3": lambda: [builtin_sic(3)],
    "random_mic": lambda: [random_mic(d, s) for d in (2, 3, 4) for s in (1, 2)],
    "unbiased_mic": lambda: [random_unbiased_mic(d, s)
                             for d in (2, 3, 4) for s in (1, 2)],
    "pw": lambda: [principal_wigner(L).basis
                   for L in (builtin_sic(3), random_mic(3, 4),
                             random_unbiased_mic(4, 2))],
    "shifted_pw": lambda: [shifted(principal_wigner(L).basis)
                           for L in (builtin_sic(2), random_mic(4, 5))],
    "wootters": lambda: [wootters_wigner(p) for p in (2, 3, 5)],
    "unbiased_wigner": lambda: [random_unbiased_wigner(d, s)
                                for d in (2, 3, 4) for s in (1, 2)],
    "tensor": lambda: [tensorhedron(2),
                       tensor_basis(random_mic(2, 3), wootters_wigner(3))],
    "collinear": lambda: (_outside_mic_range(random_unbiased_mic(3, 2))
                          + _outside_mic_range(random_mic(2, 7))),
}


def _eager_gram_condition(raw) -> float:
    """The Gram condition from a full eigvalsh, independently of the
    construction-time checks."""
    gvals = np.linalg.eigvalsh(bases._gram_of(as_hermitian(raw)))
    return np.inf if gvals[0] <= 0 else float(gvals[-1] / gvals[0])


@pytest.mark.parametrize("kind", CLASSIFY_CASES)
def test_classify_on_demand_equals_eager_validate(kind):
    for basis in CLASSIFY_CASES[kind]():
        raw = np.array(basis.elements)
        fresh = MeasureBasis(raw)
        assert "_class" not in vars(fresh)  # nothing classified yet
        # every kind proves independence without a Gram spectrum: the
        # Wigner kinds from their Gram diagonal, the others (condition at
        # most 2.4e4) from one shifted Cholesky
        assert fresh._structure.gram_spectrum is None
        # every field, failures, the float residuals and gram_condition
        assert fresh.classify() == validate(raw)
        assert validate(fresh) is fresh.classify()
        assert fresh.classify().gram_condition == _eager_gram_condition(raw)


def _diagonal_gram_candidate(weights) -> np.ndarray:
    """Elements sqrt(w_a) sum_b O_ab B_b over herm_onb(d) B, where O is
    orthogonal with first column sqrt(w / d): they sum to I, have traces w,
    and their Gram matrix is diag(w) up to roundoff."""
    w = np.asarray(weights, dtype=float)
    n = len(w)
    d = int(round(np.sqrt(n)))
    v = np.sqrt(w / d)
    u = np.eye(n)[0] - v
    reflect = np.eye(n) - 2 * np.outer(u, u) / (u @ u)  # first column v
    rotate = np.linalg.qr(np.random.default_rng(5).standard_normal(
        (n - 1, n - 1)))[0]
    O = reflect @ np.block([[np.ones((1, 1)), np.zeros((1, n - 1))],
                            [np.zeros((n - 1, 1)), rotate]])
    return coords_to_op(np.sqrt(w)[:, None] * O, d)


def _weights_with_condition(kappa: float) -> np.ndarray:
    """d = 2 weights (summing to 2) whose ratio of largest to smallest is
    kappa."""
    top = 2.0 / (3.0 + 1.0 / kappa)
    return np.array([top / kappa, top, top, top])


@pytest.mark.parametrize("kappa", [5e12, 0.999e12])
def test_uncertified_diagonal_gram_is_decided_by_eigvalsh(kappa):
    # Gram diag(w) that the certificate cannot decide: condition 5e12 is
    # near-singular, and 0.999e12 is admitted but too close to
    # MAX_GRAM_CONDITION for the certificate's rounding margin
    raw = _diagonal_gram_candidate(_weights_with_condition(kappa))
    G = bases._gram_of(as_hermitian(raw))
    max_offdiag, offdiag = bases._offdiagonal(G)
    assert max_offdiag <= bases.VALIDATION_TOL
    assert not bases._certified_independent(G, max_offdiag, offdiag)
    report = validate(raw)
    assert report.gram_condition == pytest.approx(kappa, rel=1e-6)
    if kappa > bases.MAX_GRAM_CONDITION:
        # raises with the failures of the eager eigvalsh path
        assert set(report.failures) == {"linear_independence"}
        with pytest.raises(BasisValidationError) as info:
            MeasureBasis(raw)
        assert info.value.failures == report.failures
        assert str(info.value) == report.summary()
    else:
        basis = MeasureBasis(raw)
        assert basis._structure.gram_spectrum is not None
        assert basis.classify() == report
        assert report.is_wigner and not report.failures


@pytest.mark.parametrize("offdiag", [0.0, 1e-17, 1e-13, 1e-10, 1e-9])
def test_certificate_never_admits_what_eigvalsh_rejects(offdiag):
    rng = np.random.default_rng(17)
    n = 16
    for kappa in np.geomspace(1e6, 1e13, 57):
        diag = np.geomspace(1.0, 1.0 / kappa, n)
        noise = rng.uniform(-offdiag, offdiag, (n, n))
        G = np.diag(diag) + (noise + noise.T) / 2 * (1 - np.eye(n))
        if bases._certified_independent(G, *bases._offdiagonal(G)):
            gvals = np.linalg.eigvalsh(G)
            assert gvals[0] > 0
            assert gvals[-1] / gvals[0] <= bases.MAX_GRAM_CONDITION
    # and a well-conditioned diagonal is certified
    G = np.diag(np.geomspace(1, 1e-3, n))
    assert bases._certified_independent(G, *bases._offdiagonal(G))


def _rotated_gram(rng, spectrum) -> np.ndarray:
    """Q diag(spectrum) Q^T for a random orthogonal Q: a Gram matrix far
    from diagonal."""
    n = len(spectrum)
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    G = (Q * spectrum) @ Q.T
    return (G + G.T) / 2


@pytest.mark.parametrize("n", [4, 16, 144])
def test_cholesky_certificate_never_admits_what_eigvalsh_rejects(n):
    rng = np.random.default_rng(n)
    certified = []
    for kappa in np.geomspace(1e6, 1e13, 29):
        G = _rotated_gram(rng, np.geomspace(1.0, 1.0 / kappa, n))
        max_offdiag, offdiag = bases._offdiagonal(G)
        assert max_offdiag > bases.VALIDATION_TOL  # only the Cholesky rule
        certified_here = bases._certified_independent(G, max_offdiag, offdiag)
        # the shift lands on the diagonal whatever G's memory layout
        F = np.asfortranarray(G)
        assert bases._certified_independent(
            F, *bases._offdiagonal(F)) == certified_here
        if certified_here:
            certified.append(kappa)
            gvals = np.linalg.eigvalsh(G)
            assert gvals[0] > 0
            assert gvals[-1] / gvals[0] <= bases.MAX_GRAM_CONDITION
    # the rule decides well past desk-scale conditions, not only easy ones
    assert max(certified) >= 1e10
    G = _rotated_gram(rng, np.geomspace(1.0, 1e-3, n))
    assert bases._certified_independent(G, *bases._offdiagonal(G))


def _without_cholesky_rule(monkeypatch):
    """Every Cholesky breaks down, so only the Gram diagonal or an eigvalsh
    can decide independence."""
    def breaks_down(a):
        raise np.linalg.LinAlgError("Cholesky rule switched off")

    monkeypatch.setattr(np.linalg, "cholesky", breaks_down)


def _collinear_sweep() -> list[np.ndarray]:
    """The raw members collinear(random_unbiased_mic(d, s), t) of the
    near-dependent sweep, d in {3, 4, 6, 8}, s = 1-8, six t each, built
    with collinear's arithmetic so that members it rejects are kept."""
    raws = []
    for d in (3, 4, 6, 8):
        for s in range(1, 9):
            L = random_unbiased_mic(d, s)
            for t in (1e-2, 3e-3, 1e-3, -1e-3, 3e-4, -3e-4):
                raws.append(t * L.elements + ((1 - t) / d)
                            * L.weights[:, None, None] * np.eye(d))
    return raws


def _decisions(raw):
    """validate's report, and what construction gives: a classified
    basis, or the BasisValidationError it raised."""
    report = validate(raw)
    try:
        basis = MeasureBasis(raw)
    except BasisValidationError as exc:
        return report, exc
    basis.classify()
    return report, basis


def test_cholesky_rule_flips_no_decision(monkeypatch):
    raws = _collinear_sweep()
    seeds = [(d, s) for d in range(2, 9) for s in range(1, 21)]
    with_rule = [_decisions(raw) for raw in raws]
    drawn = [(random_mic(d, s), random_unbiased_mic(d, s)) for d, s in seeds]
    _without_cholesky_rule(monkeypatch)
    for (report, on), raw in zip(with_rule, raws):
        report_off, off = _decisions(raw)
        assert report == report_off
        assert type(on) is type(off)
        if isinstance(on, MeasureBasis):
            assert on.classify() == off.classify()
            assert np.array_equal(on.elements, off.elements)
            assert off._structure.gram_spectrum is not None  # eigvalsh decided
        else:
            assert on.failures == off.failures and str(on) == str(off)
    # the sweep reaches near dependence, and the rule decides nearly all of
    # it: 114 admitted members with condition in [1e9, 1e12)
    near = [b for _, b in with_rule if isinstance(b, MeasureBasis)
            and 1e9 <= b.classify().gram_condition < 1e12]
    assert len(near) == 114
    assert sum(b._structure.gram_spectrum is None for b in near) \
        >= 0.9 * len(near)
    # the builders redraw on a rejection, so equal draws mean that every
    # decision along the way was equal
    for (mic, umic), (d, s) in zip(drawn, seeds):
        assert np.array_equal(mic.elements, random_mic(d, s).elements)
        assert np.array_equal(umic.elements,
                              random_unbiased_mic(d, s).elements)


def test_mic_and_its_pw_factorize_once_each(monkeypatch):
    raw = np.array(random_mic(6, 1).elements)
    calls = []

    def counting(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh", "eig", "eigvals", "svd", "cond", "inv",
                 "pinv", "solve", "lstsq", "qr", "cholesky"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    principal_wigner(MeasureBasis(raw))
    # n = 36, where the check route may run on PW's executor: the input's
    # independence (shifted Cholesky), the Loewdin SVD and the check
    # route's eigh; the output is certified by its Gram diagonal
    assert sorted(calls) == ["cholesky", "eigh", "svd"]


def test_mic_and_wigner_guard_runs_at_construction(monkeypatch):
    # At tolerance 1 the qubit SIC (off-diagonal Gram 1/12) reads as both
    # MIC and Wigner; the Gram-diagonal certificate cannot rule out a MIC,
    # so construction falls back to the element spectra and raises.
    raw = np.array(builtin_sic(2).elements)
    monkeypatch.setattr(bases, "VALIDATION_TOL", 1.0)
    with pytest.raises(BasisValidationError, match="both MIC and Wigner"):
        MeasureBasis(raw)


def test_validation_error_carries_failures():
    raw = np.stack([np.eye(2) / 2] * 4)
    with pytest.raises(BasisValidationError) as info:
        MeasureBasis(raw)
    report = validate(raw)
    assert str(info.value) == report.summary()
    assert info.value.failures == report.failures
    assert set(info.value.failures) == {"sum_to_identity",
                                        "linear_independence"}


def test_gram_qubit_sic_closed_form():
    G = gram(builtin_sic(2))
    expected = np.full((4, 4), 1 / 12) + np.eye(4) * (1 / 4 - 1 / 12)
    np.testing.assert_allclose(G, expected, atol=1e-15)
    np.testing.assert_allclose(G, sic_gram(2), atol=1e-15)


def test_gram_hesse_closed_form():
    G = gram(builtin_sic(3))
    expected = np.full((9, 9), 1 / 36) + np.eye(9) * (1 / 9 - 1 / 36)
    np.testing.assert_allclose(G, expected, atol=1e-14)


def test_gram_of_wigner_basis_is_bias_matrix():
    F = wootters_wigner(3)
    np.testing.assert_allclose(gram(F), np.diag(F.weights), atol=1e-14)


def test_bias_qubit_sic():
    np.testing.assert_allclose(bias(builtin_sic(2)), [0.5] * 4, atol=1e-15)
    np.testing.assert_allclose(
        bias_matrix(builtin_sic(2)), np.eye(4) / 2, atol=1e-15
    )


def test_bias_sums_to_d():
    for basis in (builtin_sic(3), random_mic(3, 5)):
        assert bias(basis).sum() == pytest.approx(basis.dim, abs=1e-12)


def test_dual_of_wigner_is_rescaled():
    F = wootters_wigner(3)
    duals = dual_basis(F)
    np.testing.assert_allclose(
        duals, F.elements / F.weights[:, None, None], atol=1e-13
    )


def test_dual_of_orthonormal_basis_is_itself():
    B = herm_onb(2)
    np.testing.assert_allclose(dual_basis(B), B, atol=1e-13)


def test_dual_gram_is_inverse_gram():
    basis = random_mic(3, 9)
    duals = dual_basis(basis)
    dual_gram = np.einsum("aij,bji->ab", duals, duals).real
    np.testing.assert_allclose(
        dual_gram @ gram(basis), np.eye(9), atol=1e-10
    )


def test_reconstruction_identities(rng):
    basis = random_mic(3, 2)
    duals = dual_basis(basis)
    for _ in range(100):
        X = random_hermitian(3, rng)
        coeffs_dual = np.einsum("ij,nji->n", X, duals).real
        coeffs_basis = np.einsum("ij,nji->n", X, basis.elements).real
        X1 = np.einsum("n,nij->ij", coeffs_dual, basis.elements)
        X2 = np.einsum("n,nij->ij", coeffs_basis, duals)
        np.testing.assert_allclose(X1, X, atol=1e-9)
        np.testing.assert_allclose(X2, X, atol=1e-9)


def biorthogonality(duals, elements):
    """max |tr(D_i L_j) - delta_ij|."""
    pairing = np.einsum("aij,bji->ab", duals, elements).real
    return np.max(np.abs(pairing - np.eye(len(elements))))


def test_dual_of_zero_weight_basis_is_biorthogonal():
    # no Loewdin factor divides by the zero weight: one SVD of C instead
    basis = zero_weight_basis()
    assert biorthogonality(dual_basis(basis), basis.elements) <= 1e-14


def test_dual_of_tiny_weight_basis_is_biorthogonal():
    # Gram condition ~10, but rescaling by a weight of 2e-12 takes the
    # Loewdin factor past MAX_GRAM_CONDITION: the dual falls back to C
    w = 2e-12
    eye = np.eye(2)
    basis = MeasureBasis([
        SX / 2 + w * eye / 2,
        eye / 3 + SY / 4,
        eye / 3 + SZ / 4,
        eye / 3 - w * eye / 2 - SX / 2 - SY / 4 - SZ / 4,
    ])
    assert basis.classify().gram_condition < 20
    with pytest.raises(SingularOperatorError, match="rescaled"):
        principal_wigner(basis)
    assert biorthogonality(dual_basis(basis), basis.elements) <= 1e-14


def nearly_dependent(eps):
    """herm_onb(2) with its last element moved to within eps of another."""
    E = herm_onb(2).copy()
    E[3] = E[2] + eps * E[3]
    return E


@pytest.mark.parametrize("E, admitted", [
    (nearly_dependent(1e-5), True),  # Gram condition ~1e10
    (nearly_dependent(1e-7), False),  # ~1e14, beyond MAX_GRAM_CONDITION
    (nearly_dependent(0.0), False),
    (np.concatenate([herm_onb(2), herm_onb(2)[:1]]), False),  # 5 in 4 dims
], ids=["kappa-1e10", "kappa-1e14", "dependent", "over-full"])
def test_dual_of_raw_stack_rejects_dependence(E, admitted):
    if admitted:
        # eps sqrt(kappa) scale; inverting G lost 2e-6 here
        assert biorthogonality(dual_basis(E), E) <= 1e-10
    else:
        with pytest.raises(SingularOperatorError,
                           match="Gram matrix is singular"):
            dual_basis(E)


def test_rescaled_frame_operator_of_wigner_is_identity():
    F = wootters_wigner(3)
    S = rescaled_frame_operator(F)
    np.testing.assert_allclose(S, np.eye(9), atol=1e-13)


def apply(S, X):
    """The operator whose herm_onb coordinates are S @ coords(X)."""
    return coords_to_op(S @ op_to_coords(X), X.shape[0])


def test_rescaled_frame_operator_trace_preserving(rng):
    basis = random_mic(3, 7)
    S = rescaled_frame_operator(basis)
    for _ in range(10):
        X = random_hermitian(3, rng)
        assert np.trace(apply(S, X)).real == pytest.approx(
            np.trace(X).real, abs=1e-10
        )


def test_rescaled_frame_operator_fixes_identity():
    basis = random_mic(2, 3)
    S = rescaled_frame_operator(basis)
    np.testing.assert_allclose(apply(S, np.eye(2)), np.eye(2), atol=1e-12)


def test_frame_operator_spectrum_qubit_sic():
    S = frame_operator(builtin_sic(2))
    np.testing.assert_allclose(
        np.linalg.eigvalsh(S), [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12
    )


@pytest.mark.parametrize("basis_seed", [(2, 0), (3, 1), (4, 2)])
def test_frame_operator_isospectral_to_gram(basis_seed):
    d, seed = basis_seed
    basis = random_mic(d, seed)
    s_spec = np.linalg.eigvalsh(frame_operator(basis))
    g_spec = np.linalg.eigvalsh(gram(basis))
    np.testing.assert_allclose(s_spec, g_spec, atol=1e-9)


def test_frame_operators_self_adjoint():
    basis = random_mic(3, 4)
    for S in (frame_operator(basis), rescaled_frame_operator(basis)):
        assert np.max(np.abs(S - S.T)) <= 1e-10


def test_frame_operator_apply_matches_action(rng):
    basis = random_mic(3, 5)
    S = frame_operator(basis)
    for _ in range(3):
        X = random_hermitian(3, rng)
        action = sum(np.trace(X @ L).real * L for L in basis)
        np.testing.assert_allclose(apply(S, X), action, atol=1e-12)


@pytest.mark.parametrize("build", [
    lambda: builtin_sic(2),
    lambda: random_mic(3, 4),
    lambda: random_unbiased_mic(4, 2),
    lambda: random_mic(6, 1),
], ids=["sic2", "mic3", "unbiased4", "mic6"])
def test_lowdin_svd_gives_rescaled_frame_root(build):
    # A^{-1/2} C = U Sigma V^T, so S_L = (V Sigma V^T)^2 and S_L^{-1/2}
    # = V Sigma^{-1} V^T maps the element coordinates to PW's.
    basis = build()
    _, s, Vt = basis._lowdin
    root = (Vt.T * s) @ Vt
    np.testing.assert_allclose(
        root @ root, rescaled_frame_operator(basis), atol=1e-12
    )
    inv_root = (Vt.T / s) @ Vt
    np.testing.assert_allclose(
        basis.coords @ inv_root, principal_wigner(basis).basis.coords,
        atol=1e-12,
    )


def test_born_matrix_qubit_sic_closed_form():
    phi = born_matrix(builtin_sic(2)).phi
    np.testing.assert_allclose(phi, 3 * np.eye(4) - 0.5, atol=1e-13)


def test_born_matrix_of_wigner_is_identity():
    np.testing.assert_allclose(
        born_matrix(wootters_wigner(3)).phi, np.eye(9), atol=1e-13
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_born_matrix_invariants_random_mic(seed):
    bm = born_matrix(random_mic(3, seed))
    assert bm.column_sum_residual() <= 1e-10
    assert bm.weight_eigvec_residual() <= 1e-10
    # a MIC's Born matrix must carry negativity
    assert bm.phi.min() < 0


def test_mic_is_never_wigner():
    for seed in range(5):
        cls = random_mic(2, seed).classify()
        assert cls.is_mic and not cls.is_wigner
    offdiag = gram(builtin_sic(2)) - np.diag(np.diag(gram(builtin_sic(2))))
    assert np.max(np.abs(offdiag)) > 1e-3


def test_unbiased_mic_bias():
    basis = random_unbiased_mic(3, 11)
    np.testing.assert_allclose(basis.weights, 1 / 3, atol=1e-10)


def test_zero_weight_accepted_by_validation():
    basis = zero_weight_basis()
    cls = basis.classify()
    assert cls.is_measure_basis
    assert basis.weights.min() == pytest.approx(0.0, abs=1e-12)


def test_zero_weight_rejected_downstream():
    basis = zero_weight_basis()
    with pytest.raises(SingularOperatorError, match="zero-weight"):
        rescaled_frame_operator(basis)
    with pytest.raises(SingularOperatorError, match="zero-weight"):
        born_matrix(basis)


def test_elements_are_immutable():
    basis = builtin_sic(2)
    with pytest.raises(ValueError):
        basis.elements[0, 0, 0] = 1.0


def test_garbage_state_probabilities_are_bias_over_d():
    basis = random_mic(3, 8)
    probs = np.einsum("ij,nji->n", np.eye(3) / 3, basis.elements).real
    np.testing.assert_allclose(probs, basis.weights / 3, atol=1e-13)


def test_frame_operator_handles_zero_weight():
    # the plain frame operator never divides by weights, so the boundary
    # basis is fine there and keeps the Gram spectrum
    basis = zero_weight_basis()
    s_spec = np.linalg.eigvalsh(frame_operator(basis))
    g_spec = np.linalg.eigvalsh(gram(basis))
    np.testing.assert_allclose(s_spec, g_spec, atol=1e-10)
