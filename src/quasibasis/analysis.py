"""Quantitative verification of the distance bounds, SIC extremality,
ceiling negativity, triple products, and structural diagnostics; the
verify_* suites check each claim clause by clause.

For an unbiased MIC E with frame-operator eigenvalues {lambda_k}, the
squared Hilbert-Schmidt distance to any unbiased Wigner basis F satisfies

    sum_k (sqrt(lambda_k) - sqrt(1/d))^2
        <= sum_i ||E_i - F_i||^2
        <= sum_k (sqrt(lambda_k) + sqrt(1/d))^2 - 4/d,

the lower bound saturated exactly by F = PW(E) and the upper by the
shifted PW(E). Over all unbiased MICs the extreme values of both bounds,
((d-1)/d)(d+2 -+ 2 sqrt(d+1)), are reached exactly by SICs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import RANK_EIG_RTOL, MeasureBasis, _element_ranks, born_matrix, gram
from .constructions import (
    SIC_TOL,
    _is_prime,
    _sic_deviation,
    _wh_orbit,
    collinear,
    parity_operator,
    wh_displacement,
)
from .operators import _flat, _square
from .wigner import _greedy_match, principal_wigner, shifted

SATURATION_TOL = 1e-9
MATCH_TOL = 1e-8
EQUIANGULAR_TOL = 1e-8
# Memory allowed to one triple-product tensor plus its E_j E_k stack,
# 32 d^6 bytes for a basis: admits d <= 14.
TRIPLE_BYTES_BUDGET = 2**28
# Memory allowed to ceiling_negativity_sampled's kets and score matrix,
# 16 d + 8 d^2 bytes per sample: 10 000 samples at d = 32 take 87 MB.
_SAMPLE_BYTES_BUDGET = 2**28


def distance(left: MeasureBasis, right: MeasureBasis) -> float:
    """Sum over elements of the squared Hilbert-Schmidt distance,
    sum_i tr((L_i - M_i)^2)."""
    R = _square(right.elements, 3, "right basis", left.dim)
    x = _flat(left.elements - R).ravel()
    return float(x @ x)


@dataclass
class DistanceReport:
    """Distance bounds of an unbiased MIC and its Gram spectrum:
    distance(mic, F) lies between them for every unbiased Wigner basis F."""

    lower_bound: float
    upper_bound: float
    spectrum: np.ndarray  # frame-operator eigenvalues, ascending


def distance_bounds(mic: MeasureBasis) -> DistanceReport:
    """Distance bounds from the frame-operator spectrum of an unbiased MIC.

    Rejects biased MICs: the bounds are proven only in the unbiased case.
    """
    if not (mic._structure.is_unbiased and mic._is_mic):
        raise ValueError(
            "distance bounds require an unbiased MIC "
            f"(classification: {mic.classify().summary()})"
        )
    d = mic.dim
    # The Gram spectrum (isospectral to the frame operator; one eigvalsh
    # of the stored Gram matrix, taken here on first use when construction
    # proved independence without it), not the Loewdin SVD that gives PW,
    # so lower_saturation compares two independent computations.
    lam = mic._gram_spectrum.copy()
    root = np.sqrt(np.maximum(lam, 0.0))
    ref = np.sqrt(1.0 / d)
    lower = float(np.sum((root - ref) ** 2))
    upper = float(np.sum((root + ref) ** 2) - 4.0 / d)
    return DistanceReport(lower_bound=lower, upper_bound=upper, spectrum=lam)


def sic_bounds(d: int) -> tuple[float, float]:
    """Extreme values ((d-1)/d)(d+2 -+ 2 sqrt(d+1)) of the distance bounds
    over all unbiased MICs; reached exactly when the MIC is a SIC."""
    if d < 2:
        raise ValueError("dimension must be >= 2")
    root = 2.0 * np.sqrt(d + 1.0)
    scale = (d - 1.0) / d
    return scale * (d + 2.0 - root), scale * (d + 2.0 + root)


def ceiling_negativity(wigner_basis: MeasureBasis) -> float:
    """Largest magnitude that the most negative quasiprobability entry can
    take over all quantum states: max(0, -min_i lambda_min(F_i)).

    The state maximization is achieved at the eigenstate of the most
    negative element eigenvalue, so the value is spectrally exact; see
    ceiling_negativity_sampled for an eigensolver-free check.
    """
    if not wigner_basis._structure.is_wigner:
        raise ValueError("ceiling negativity is defined for Wigner bases")
    return max(0.0, -float(wigner_basis._element_spectra[:, 0].min()))


def ceiling_negativity_sampled(wigner_basis: MeasureBasis,
                               n_samples: int = 10_000,
                               seed: int = 0) -> float:
    """Lower estimate of the ceiling negativity from pure states alone.

    Haar random kets are the starting points; each element's best one is
    refined by 100 steps of power iteration on c I - F_i, where c =
    ||F_i||_F is at least the spectral radius, so the iteration converges
    to the eigenvector of the smallest eigenvalue of F_i. Matrix-vector
    products only, no eigensolver. The result is the negativity of a real
    state, less a rounding bound, so it never exceeds ceiling_negativity.
    Raises ValueError if n_samples is below 1, or, before drawing anything,
    if the kets and the score matrix would exceed a 2^28-byte budget.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    F = wigner_basis.elements
    d = wigner_basis.dim
    nbytes = (16 * d + 8 * len(F)) * n_samples
    if nbytes > _SAMPLE_BYTES_BUDGET:
        raise ValueError(f"{n_samples} samples at d={d} need {nbytes} bytes, "
                         f"over the {_SAMPLE_BYTES_BUDGET}-byte budget")
    rng = np.random.default_rng(seed)
    kets = (rng.standard_normal((n_samples, d))
            + 1j * rng.standard_normal((n_samples, d)))
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    # w[s, i] = <psi_s| F_i |psi_s> = tr(F_i |psi_s><psi_s|), one real
    # matrix product per block of samples on the _flat views
    F_flat = _flat(F)
    w = np.empty((n_samples, len(F)))
    for s in range(0, n_samples, 256):
        psi = kets[s:s + 256]
        rho = psi[:, :, None] * psi[:, None, :].conj()
        w[s:s + 256] = _flat(rho) @ F_flat.T
    v = kets[np.argmin(w, axis=0)]  # (n, d): the best start of each element
    c = np.linalg.norm(F, axis=(1, 2))[:, None]
    Fv = (F @ v[:, :, None])[:, :, 0]
    for _ in range(100):
        v = c * v - Fv
        v /= np.linalg.norm(v, axis=1)[:, None]
        Fv = (F @ v[:, :, None])[:, :, 0]
    rayleigh = np.einsum("ia,ia->i", v.conj(), Fv).real
    # A converged quotient sits at the eigenvalue to within rounding, on
    # either side; raising it by a bound on that rounding keeps the
    # estimate at or below the spectral value in floating point too.
    rayleigh += d * d * np.finfo(float).eps * c[:, 0]
    return max(0.0, float(-rayleigh.min()))


@dataclass
class TripleProducts:
    """Tensor Gamma_jkl = d^2 tr(F_j F_k F_l) of a basis.

    Cyclically symmetric, with Gamma_jkl = conj(Gamma_lkj), and satisfying
    the sum rule sum_{kl} Gamma_jkl = d^2 tr(F_j).
    """

    dim: int
    gamma: np.ndarray

    # The residuals compare one j-slab Gamma_j.. at a time, so they need
    # O(n^2) scratch memory rather than copies of the n^3 tensor.

    def cyclic_residual(self) -> float:
        """max |Gamma_jkl - Gamma_klj| and |Gamma_jkl - Gamma_ljk|."""
        g = self.gamma
        return float(max(
            max(np.max(np.abs(g[j] - g[:, :, j])),
                np.max(np.abs(g[j] - g[:, j, :].T)))
            for j in range(len(g))
        ))

    def conjugation_residual(self) -> float:
        """max |Gamma_jkl - conj(Gamma_lkj)|."""
        g = self.gamma
        return float(max(
            np.max(np.abs(g[j] - g[:, :, j].T.conj())) for j in range(len(g))
        ))

    def sum_rule_residual(self, basis: MeasureBasis) -> float:
        target = self.dim**2 * basis.weights
        return float(np.max(np.abs(self.gamma.sum(axis=(1, 2)) - target)))


def _triple_tensor(E: np.ndarray) -> np.ndarray:
    """Gamma_jkl = d^2 tr(E_j E_k E_l) of an (n, d, d) Hermitian stack as one
    complex matrix product: the products E_j E_k, stacked as (n^2, d^2),
    times the transposes E_l^T, stacked as (d^2, n), since tr(P Q) =
    sum_ab P_ab (Q^T)_ab. Raises ValueError, before allocating, when the
    tensor and the E_j E_k stack together exceed TRIPLE_BYTES_BUDGET."""
    n, d, _ = E.shape
    nbytes = 16 * n * n * (n + d * d)
    if nbytes > TRIPLE_BYTES_BUDGET:
        raise ValueError(
            f"triple products at d={d} need {nbytes} bytes, over the "
            f"{TRIPLE_BYTES_BUDGET}-byte budget"
        )
    pairs = (E[:, None] @ E[None, :]).reshape(n * n, d * d)
    lasts = E.transpose(0, 2, 1).reshape(n, d * d)
    gamma = pairs @ lasts.T
    gamma *= d * d
    return gamma.reshape(n, n, n)


def triple_products(basis: MeasureBasis) -> TripleProducts:
    """Full triple-product tensor, d^6 complex entries; bases whose tensor
    would exceed TRIPLE_BYTES_BUDGET (d >= 15) raise ValueError."""
    return TripleProducts(dim=basis.dim, gamma=_triple_tensor(basis.elements))


def wootters_triple_oracle(d: int) -> np.ndarray:
    """Prediction (1/d) exp(4 pi i A_jkl / d) of the Wootters triple
    products from the affine-plane geometry alone: A_jkl is the signed area
    (mod d) of the triangle with vertices at the flat phase-space indices
    j, k, l, the cyclic sum of the symplectic products q p' - p q' of its
    vertices, over all index triples; independent of any operator
    arithmetic. The areas are one int16 n^3 array, summed in place from the
    n x n symplectic form mod d, that indexes a table of the d phases."""
    q, p = divmod(np.arange(d * d), d)
    symp = ((np.outer(q, p) - np.outer(p, q)) % d).astype(np.int16)
    area = np.add(symp[:, :, None], symp[None, :, :])  # <j,k> + <k,l>
    area += symp.T[:, None, :]  # + <l,j>
    area %= d
    return (np.exp(4j * np.pi * np.arange(d) / d) / d)[area]


def _sic_relation_residual(F: MeasureBasis, gamma: np.ndarray,
                           sign: int) -> float:
    """sic_triple_relation_check's residual for the Wigner basis F; gamma,
    the SIC's own Gamma, is subtracted slab by slab and left as is."""
    d = F.dim
    s = sign * np.sqrt(d + 1.0)
    resid = _triple_tensor(F.elements)
    resid *= d
    for slab, g in zip(resid, gamma):
        slab -= s**3 * d * g  # s^3 tr(Pi_j Pi_k Pi_l)
    i = np.arange(d * d)
    for diagonal in (np.s_[i, i, :], np.s_[:, i, i], np.s_[i, :, i]):
        resid[diagonal] -= 1.0 - s
    resid -= (s * (2.0 - d) - 2.0) / d**2
    return float(max(np.max(np.abs(slab)) for slab in resid))


def sic_triple_relation_check(sic: MeasureBasis, sign: int) -> float:
    """Max residual of the SIC triple-product relation

        d^3 tr(F_j F_k F_l) = s^3 tr(Pi_j Pi_k Pi_l)
            + (1 - s)(delta_jk + delta_kl + delta_jl) + (s(2-d) - 2)/d^2

    with s = +sqrt(d+1) and F the principal Wigner basis for sign=+1, and
    every occurrence of sqrt(d+1) negated (s = -sqrt(d+1), F the shifted
    principal Wigner basis) for sign=-1; Pi_j = d sic_j. Raises ValueError
    unless the input's stored Gram matrix is the SIC one within SIC_TOL.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    dev = _sic_deviation(sic._structure.gram, sic.dim)
    if dev > SIC_TOL:
        raise ValueError(
            f"input is not a SIC (Gram deviation {dev:.3e} > {SIC_TOL:.1e})"
        )
    F = principal_wigner(sic).basis
    return _sic_relation_residual(F if sign > 0 else shifted(F),
                                  _triple_tensor(sic.elements), sign)


@dataclass
class DiagnosticsReport:
    equiangular: bool
    equiangular_spread: float
    rank_profile: list[int]
    wh_covariant: bool


def _rank_profile(basis: MeasureBasis,
                  rtol: float = RANK_EIG_RTOL) -> list[int]:
    return [int(r) for r in _element_ranks(basis._element_spectra, rtol)]


def wh_covariant(basis: MeasureBasis) -> bool:
    """Whether conjugation by every Weyl-Heisenberg displacement D(k, l)
    permutes the basis elements (greedy matching within MATCH_TOL). As
    D(k, l) = X^k Z^l, only the shift X = D(1, 0) and the clock Z = D(0, 1)
    are checked; on a basis covariant only approximately, a composite
    displacement can add up their errors beyond MATCH_TOL unseen.
    """
    d = basis.dim
    E = basis.elements
    for k, l in ((1, 0), (0, 1)):
        D = wh_displacement(d, k, l)
        conj = D @ E @ D.conj().T
        perm = _greedy_match(conj, E)
        if np.max(np.abs(conj - E[perm])) > MATCH_TOL:
            return False
    return True


def diagnostics(basis: MeasureBasis) -> DiagnosticsReport:
    """Equiangularity spread (equiangular within EQUIANGULAR_TOL), element
    rank profile, and Weyl-Heisenberg covariance of a measure basis."""
    G = gram(basis)
    n = len(basis)
    off = G[~np.eye(n, dtype=bool)]
    spread = float(off.max() - off.min())
    return DiagnosticsReport(
        equiangular=spread <= EQUIANGULAR_TOL,
        equiangular_spread=spread,
        rank_profile=_rank_profile(basis),
        wh_covariant=wh_covariant(basis),
    )


def _clause(name: str, value: float, tolerance: float,
            comparison: str = "abs<=") -> dict:
    ok = {"abs<=": abs(value) <= tolerance, ">": value > tolerance,
          ">=": value >= tolerance}[comparison]
    return {"name": name, "pass": bool(ok), "value": float(value),
            "tolerance": float(tolerance), "comparison": comparison}


@dataclass(frozen=True)
class SuiteResult:
    """One verify suite's outcome: clause dicts of name, pass, value,
    tolerance and comparison ("abs<=", ">" or ">="), and the suite's other
    values in extras. In every suite tol=None keeps each clause's default
    tolerance and a value replaces them all; the fixed margins (1e-6 in
    non_sic_exceeds, 1e-12 in sampling_not_above_spectral) never move."""

    suite: str
    clauses: list[dict]
    extras: dict

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.clauses)


def verify_theorem1(mic: MeasureBasis, *,
                    tol: float | None = None) -> SuiteResult:
    """Theorem 1 on an unbiased MIC: PW saturates the lower distance bound
    and the shifted PW the upper one (default tol SATURATION_TOL), and
    neither distance leaves the bounds by more than tol. distance_bounds
    rejects any other input first."""
    report = distance_bounds(mic)
    tol = SATURATION_TOL if tol is None else tol
    pw = principal_wigner(mic).basis
    d_pw, d_spw = distance(mic, pw), distance(mic, shifted(pw))
    lower, upper = report.lower_bound, report.upper_bound
    return SuiteResult("theorem1", [
        _clause("lower_saturation", d_pw - lower, tol),
        _clause("upper_saturation", d_spw - upper, tol),
        _clause("sandwich_lower", d_pw - lower, -tol, ">="),
        _clause("sandwich_upper", upper - d_spw, -tol, ">="),
    ], {"lower_bound": lower, "upper_bound": upper, "distance_pw": d_pw,
        "distance_spw": d_spw, "spectrum": report.spectrum})


def verify_theorem2(mic: MeasureBasis, *,
                    tol: float | None = None) -> SuiteResult:
    """Theorem 2 on an unbiased MIC: the distance to PW is at least the SIC
    lower bound; a SIC (Gram deviation within SIC_TOL) saturates both SIC
    bounds (default tol SATURATION_TOL), and a non-SIC exceeds the lower
    one by more than 1e-6."""
    tol = SATURATION_TOL if tol is None else tol
    if not (mic._structure.is_unbiased and mic._is_mic):
        raise ValueError("theorem2 needs an unbiased MIC "
                         f"(got: {mic.classify().summary()})")
    lower, upper = sic_bounds(mic.dim)
    sic_dev = _sic_deviation(mic._structure.gram, mic.dim)
    is_sic = sic_dev <= SIC_TOL
    pw = principal_wigner(mic).basis
    d_pw = distance(mic, pw)
    clauses = [_clause("bound_holds", d_pw - lower, -tol, ">=")]
    if is_sic:
        d_spw = distance(mic, shifted(pw))
        clauses.append(_clause("sic_lower_saturation", d_pw - lower, tol))
        clauses.append(_clause("sic_upper_saturation", d_spw - upper, tol))
    else:
        clauses.append(_clause("non_sic_exceeds", d_pw - lower, 1e-6, ">"))
    return SuiteResult("theorem2", clauses, {
        "sic_lower": lower, "sic_upper": upper, "is_sic": is_sic,
        "sic_gram_deviation": sic_dev, "distance_pw": d_pw})


def verify_collinear(basis: MeasureBasis, ts, *,
                     tol: float | None = None) -> SuiteResult:
    """For each t in ts, PW(L^t) is PW(L) if t > 0 and the shifted PW(L) if
    t < 0 (default tol 1e-8); Phi(L^t) = Phi/t^2 + (1 - 1/t^2) a 1^T/d and
    sqrt(Phi(L^t)) = sqrt(Phi)/|t| + (1 - 1/|t|) a 1^T/d, a the weights
    (default tol 1e-9, times max(1, max |predicted entry|)). An empty ts
    or a t = 0 anywhere in it raises ValueError before any work."""
    ts = list(ts)
    if not ts:
        raise ValueError("verify_collinear needs at least one t")
    if 0 in ts:
        raise ValueError("t = 0 is excluded from the collinear family")
    pw_tol, identity_tol = (1e-8, 1e-9) if tol is None else (tol, tol)
    d, n = basis.dim, len(basis)
    pw = principal_wigner(basis).basis
    spw = shifted(pw)
    born = born_matrix(basis)
    AJ = np.outer(basis.weights, np.ones(n))
    clauses = []
    for t in ts:
        Lt = collinear(basis, t)
        target = pw if t > 0 else spw
        dev = np.max(np.abs(principal_wigner(Lt).basis.elements
                            - target.elements))
        clauses.append(_clause(f"pw_match[t={t:g}]", dev, pw_tol))
        born_t = born_matrix(Lt)
        pred = born.phi / t**2 + (1 - 1 / t**2) * AJ / d
        pred_s = born.phi_sqrt / abs(t) + (1 - 1 / abs(t)) * AJ / d
        # Relative to the predicted entries: Phi grows with the Gram
        # condition, and its roundoff with it.
        for name, got, want in (("phi_identity", born_t.phi, pred),
                                ("sqrt_phi_identity", born_t.phi_sqrt, pred_s)):
            clauses.append(_clause(
                f"{name}[t={t:g}]", np.max(np.abs(got - want)),
                identity_tol * max(1.0, float(np.max(np.abs(want)))),
            ))
    return SuiteResult("collinear", clauses, {})


def verify_triple(basis: MeasureBasis, products: TripleProducts | None = None,
                  *, tol: float | None = None) -> SuiteResult:
    """Triple-product symmetries (default tol 1e-10) and sum rule (1e-9); on
    a SIC (stored Gram within SIC_TOL), both SIC relations on this Gamma
    (1e-9); within 1e-8 of wootters_wigner(d), d an odd prime, the
    affine-area oracle (1e-10). That gate compares the elements with the
    parity operator's Weyl-Heisenberg orbit, wootters_wigner(d)'s elements,
    without building the basis. Gamma is products if given."""
    trip = triple_products(basis) if products is None else products
    tol, loose = (1e-10, 1e-9) if tol is None else (tol, tol)
    clauses = [
        _clause("cyclic_symmetry", trip.cyclic_residual(), tol),
        _clause("conjugation_symmetry", trip.conjugation_residual(), tol),
        _clause("sum_rule", trip.sum_rule_residual(basis), loose),
    ]
    d = basis.dim
    extras: dict = {"dimension": d}
    if _sic_deviation(basis._structure.gram, d) <= SIC_TOL:
        extras["is_sic"] = True
        pw = principal_wigner(basis).basis
        for F, sign, name in ((pw, +1, "plus"), (shifted(pw), -1, "minus")):
            resid = _sic_relation_residual(F, trip.gamma, sign)
            clauses.append(_clause(f"sic_relation_{name}", resid, loose))
    if d % 2 == 1 and _is_prime(d) and np.max(np.abs(
            basis.elements - _wh_orbit(parity_operator(d)))) <= 1e-8:
        extras["is_wootters"] = True
        resid = max(np.max(np.abs(g - o))
                    for g, o in zip(trip.gamma, wootters_triple_oracle(d)))
        clauses.append(_clause("affine_area_match", resid, tol))
    return SuiteResult("triple", clauses, extras)


def verify_negativity(wigner_basis: MeasureBasis, *, samples: int = 10_000,
                      seed: int = 0, tol: float | None = None) -> SuiteResult:
    """The sampled ceiling negativity never exceeds the spectral value
    (margin 1e-12) and comes within tol (default 1e-3) of it."""
    if not wigner_basis._structure.is_wigner:
        raise ValueError("negativity suite needs a Wigner basis")
    value = ceiling_negativity(wigner_basis)
    sampled = ceiling_negativity_sampled(wigner_basis, samples, seed)
    gap = value - sampled
    tol = 1e-3 if tol is None else tol
    return SuiteResult("negativity", [
        _clause("sampling_not_above_spectral", gap + 1e-12, 0.0, ">="),
        _clause("sampling_consistency", gap, tol),
    ], {"ceiling_negativity": value, "sampled": sampled, "samples": samples,
        "seed": seed})
