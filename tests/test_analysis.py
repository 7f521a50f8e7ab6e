import numpy as np
import pytest

from quasibasis.analysis import (
    _triple_tensor,
    affine_area,
    ceiling_negativity,
    ceiling_negativity_sampled,
    diagnostics,
    distance,
    distance_bounds,
    distance_report,
    sic_bounds,
    sic_triple_relation_check,
    triple_products,
    wh_covariant,
    wootters_triple_oracle,
)
from quasibasis.constructions import (
    builtin_sic,
    collinear,
    mic_t_range,
    random_mic,
    random_unbiased_mic,
    random_unbiased_wigner,
    tensorhedron,
    wootters_wigner,
)
from quasibasis.wigner import principal_wigner, shifted


def test_distance_to_self_is_zero():
    E = builtin_sic(2)
    assert distance(E, E) == pytest.approx(0.0, abs=1e-15)


def test_distance_qubit_sic_to_pw():
    E = builtin_sic(2)
    pw = principal_wigner(E).basis
    assert distance(E, pw) == pytest.approx(2 - np.sqrt(3), abs=1e-12)
    assert distance(E, shifted(pw)) == pytest.approx(2 + np.sqrt(3), abs=1e-12)


def test_distance_symmetric():
    E = builtin_sic(2)
    F = wootters_wigner(2)
    assert distance(E, F) == pytest.approx(distance(F, E), abs=1e-14)


def test_distance_shape_mismatch():
    with pytest.raises(ValueError):
        distance(builtin_sic(2), builtin_sic(3))


def test_distance_bounds_qubit_sic():
    report = distance_bounds(builtin_sic(2))
    assert report.lower_bound == pytest.approx(2 - np.sqrt(3), abs=1e-12)
    assert report.upper_bound == pytest.approx(2 + np.sqrt(3), abs=1e-12)
    np.testing.assert_allclose(
        report.spectrum, [1 / 6, 1 / 6, 1 / 6, 1 / 2], atol=1e-12
    )


def test_distance_bounds_reject_biased():
    with pytest.raises(ValueError, match="unbiased"):
        distance_bounds(random_mic(2, 0))


@pytest.mark.parametrize("d,seed", [(2, 0), (2, 5), (3, 1), (3, 6), (4, 2)])
def test_bound_saturation_random_unbiased(d, seed):
    E = random_unbiased_mic(d, seed)
    pw = principal_wigner(E).basis
    rep_low = distance_report(E, pw)
    assert rep_low.saturates_lower and not rep_low.saturates_upper
    assert rep_low.distance == pytest.approx(rep_low.lower_bound, abs=1e-9)
    rep_high = distance_report(E, shifted(pw))
    assert rep_high.saturates_upper and not rep_high.saturates_lower
    assert rep_high.distance == pytest.approx(rep_high.upper_bound, abs=1e-9)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_sandwich_property(d):
    for seed in range(10):
        E = random_unbiased_mic(d, seed)
        F = random_unbiased_wigner(d, seed + 100)
        rep = distance_report(E, F)
        assert rep.lower_bound - 1e-9 <= rep.distance <= rep.upper_bound + 1e-9


def test_sic_bounds_closed_forms():
    lo2, hi2 = sic_bounds(2)
    assert lo2 == pytest.approx(2 - np.sqrt(3), abs=1e-14)
    assert hi2 == pytest.approx(2 + np.sqrt(3), abs=1e-14)
    lo3, hi3 = sic_bounds(3)
    assert lo3 == pytest.approx(2 / 3, abs=1e-14)
    assert hi3 == pytest.approx(6.0, abs=1e-14)


@pytest.mark.parametrize("d,seed", [(2, 3), (3, 4), (4, 5)])
def test_sic_is_globally_extremal(d, seed):
    E = random_unbiased_mic(d, seed)
    lower, _ = sic_bounds(d)
    assert distance_bounds(E).lower_bound >= lower - 1e-12
    assert distance(E, principal_wigner(E).basis) > lower + 1e-6


def test_ceiling_negativity_pw_sic():
    for d in (2, 3):
        pw = principal_wigner(builtin_sic(d)).basis
        expected = (np.sqrt(d + 1) - 1) / d**2
        assert ceiling_negativity(pw) == pytest.approx(expected, abs=1e-12)


def test_ceiling_negativity_spw_dominates_in_d3():
    E = builtin_sic(3)
    pw = principal_wigner(E).basis
    assert ceiling_negativity(shifted(pw)) > ceiling_negativity(pw) + 0.1


def test_ceiling_negativity_d2_equality():
    # every unbiased qubit Wigner basis has the same element spectra, so
    # PW and shifted PW of the SIC tie exactly
    pw = principal_wigner(builtin_sic(2)).basis
    assert ceiling_negativity(shifted(pw)) == pytest.approx(
        ceiling_negativity(pw), abs=1e-12
    )


def test_ceiling_negativity_sampling_oracle():
    pw = principal_wigner(builtin_sic(2)).basis
    exact = ceiling_negativity(pw)
    sampled = ceiling_negativity_sampled(pw, n_samples=10_000, seed=1)
    assert 0 <= exact - sampled <= 1e-3


@pytest.mark.parametrize("n_samples", [0, -1])
def test_ceiling_negativity_sampled_rejects_empty_sample(n_samples):
    pw = principal_wigner(builtin_sic(2)).basis
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        ceiling_negativity_sampled(pw, n_samples=n_samples)


def test_ceiling_negativity_random_wigner_matches_sic_in_d2():
    # in d=2 all unbiased Wigner bases are unitary/permutation equivalent
    pw_val = ceiling_negativity(principal_wigner(builtin_sic(2)).basis)
    for seed in range(5):
        F = random_unbiased_wigner(2, seed)
        assert ceiling_negativity(F) == pytest.approx(pw_val, abs=1e-9)


def test_ceiling_negativity_rejects_mic():
    with pytest.raises(ValueError, match="Wigner"):
        ceiling_negativity(builtin_sic(2))


def test_triple_products_diagonal_wootters():
    trip = triple_products(wootters_wigner(3))
    diag = np.einsum("jjj->j", trip.gamma)
    np.testing.assert_allclose(diag, 1 / 3, atol=1e-13)


def test_triple_products_invariants():
    F = wootters_wigner(3)
    trip = triple_products(F)
    assert trip.cyclic_residual() <= 1e-10
    assert trip.conjugation_residual() <= 1e-10
    assert trip.sum_rule_residual(F) <= 1e-9


def test_triple_products_memory_guard():
    trip = triple_products(random_unbiased_wigner(6, 0))
    assert trip.gamma.shape == (36, 36, 36)
    # d = 16 needs 32 d^6 bytes = 2^29, twice the budget
    with pytest.raises(ValueError, match="536870912 bytes"):
        triple_products(tensorhedron(4))


def test_triple_residuals_need_no_tensor_copies():
    import tracemalloc

    trip = triple_products(random_unbiased_wigner(6, 0))
    g = trip.gamma
    cyclic = max(np.max(np.abs(g - np.transpose(g, (1, 2, 0)))),
                 np.max(np.abs(g - np.transpose(g, (2, 0, 1)))))
    conjugation = np.max(np.abs(g - np.conj(np.transpose(g, (2, 1, 0)))))
    tracemalloc.start()
    try:
        got = (trip.cyclic_residual(), trip.conjugation_residual())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == (cyclic, conjugation)
    # one j-slab at a time: scratch memory is O(n^2), not O(n^3)
    assert peak <= g.nbytes / 8


@pytest.mark.parametrize("d", [2, 3, 5, 6])
def test_triple_kernel_matches_einsum(d):
    F = random_unbiased_wigner(d, 1).elements
    ref = d * d * np.einsum("jab,kbc,lca->jkl", F, F, F)
    assert np.max(np.abs(_triple_tensor(F) - ref)) <= 1e-14


@pytest.mark.parametrize("d", [3, 5])
def test_wootters_triples_match_affine_area(d):
    trip = triple_products(wootters_wigner(d))
    oracle = wootters_triple_oracle(d)
    assert np.max(np.abs(trip.gamma - oracle)) <= 1e-10
    n = d * d
    loop = np.array([
        [[np.exp(4j * np.pi * affine_area(d, j, k, l) / d) / d
          for l in range(n)] for k in range(n)] for j in range(n)
    ])
    assert np.array_equal(oracle, loop)


def test_affine_area_basics():
    # degenerate triangles have zero area; swapping two vertices flips sign
    assert affine_area(3, 0, 0, 0) == 0
    assert affine_area(3, 1, 4, 7) == 0  # collinear points (0,1),(1,1),(2,1)
    a = affine_area(3, 0, 1, 3)
    b = affine_area(3, 0, 3, 1)
    assert (a + b) % 3 == 0


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sign", [+1, -1])
def test_sic_triple_relation(d, sign):
    assert sic_triple_relation_check(builtin_sic(d), sign) <= 1e-9


def test_sic_triple_relation_rejects_non_sic():
    with pytest.raises(ValueError, match="not a SIC"):
        sic_triple_relation_check(random_unbiased_mic(2, 2), +1)


def test_diagnostics_qubit_sic():
    report = diagnostics(builtin_sic(2))
    assert report.equiangular and report.equiangular_spread <= 1e-12
    assert report.rank_profile == [1, 1, 1, 1]
    assert report.wh_covariant


def test_diagnostics_antiparallel_hesse_is_appleby_like():
    E = builtin_sic(3)
    t_min, _ = mic_t_range(E)
    assert t_min == pytest.approx(-0.5, abs=1e-12)
    anti = collinear(E, t_min)
    cls = anti.classify()
    assert cls.is_mic
    report = diagnostics(anti)
    assert report.equiangular and report.equiangular_spread < 1e-9
    assert report.rank_profile == [2] * 9
    assert report.wh_covariant


def test_diagnostics_random_mic_not_equiangular():
    report = diagnostics(random_mic(3, 14))
    assert not report.equiangular
    assert report.equiangular_spread > 1e-3
    assert not report.wh_covariant


def test_diagnostics_reads_the_classified_element_spectra(monkeypatch):
    basis = random_mic(3, 1)
    basis.classify()
    ndims = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        ndims.append(np.ndim(a))
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    report = diagnostics(basis)
    assert 3 not in ndims  # no batched eigen-analysis of the elements
    ranks = np.sum(np.abs(real_eigvalsh(basis.elements)) > 1e-8 * np.abs(
        real_eigvalsh(basis.elements)).max(axis=1, keepdims=True), axis=1)
    assert report.rank_profile == ranks.tolist()


def test_rank_profile_threshold_stability():
    from quasibasis.analysis import _rank_profile

    fixtures = [
        builtin_sic(2),
        builtin_sic(3),
        wootters_wigner(3),
        collinear(builtin_sic(3), -0.5),
    ]
    for basis in fixtures:
        profiles = {
            tuple(_rank_profile(basis, rtol)) for rtol in (1e-10, 1e-8, 1e-7)
        }
        assert len(profiles) == 1


def test_wh_covariance_of_wootters():
    assert wh_covariant(wootters_wigner(5))
