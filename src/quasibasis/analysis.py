"""Quantitative verification of the distance bounds, SIC extremality,
ceiling negativity, triple products, and structural diagnostics.

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

from .bases import RANK_EIG_RTOL, MeasureBasis, _element_ranks, gram
from .constructions import SIC_TOL, sic_gram_deviation, wh_displacement
from .operators import _flat, _square
from .wigner import _greedy_match, principal_wigner, shifted

SATURATION_TOL = 1e-9
MATCH_TOL = 1e-8
EQUIANGULAR_TOL = 1e-8
# Memory allowed to one triple-product tensor plus its E_j E_k stack,
# 32 d^6 bytes for a basis: admits d <= 14.
TRIPLE_BYTES_BUDGET = 2**28


def distance(left: MeasureBasis, right: MeasureBasis) -> float:
    """Sum over elements of the squared Hilbert-Schmidt distance,
    sum_i tr((L_i - M_i)^2)."""
    R = _square(right.elements, 3, "right basis", left.dim)
    x = _flat(left.elements - R).ravel()
    return float(x @ x)


@dataclass
class DistanceReport:
    """Distance bounds of an unbiased MIC, optionally with the distance to
    a specific Wigner basis and its saturation flags."""

    lower_bound: float
    upper_bound: float
    spectrum: np.ndarray  # frame-operator eigenvalues, ascending
    distance: float | None = None
    saturates_lower: bool = False
    saturates_upper: bool = False


def distance_bounds(mic: MeasureBasis) -> DistanceReport:
    """Distance bounds from the frame-operator spectrum of an unbiased MIC.

    Rejects biased MICs: the bounds are proven only in the unbiased case.
    """
    cls = mic.classify()
    if not (cls.is_mic and cls.is_unbiased):
        raise ValueError(
            "distance bounds require an unbiased MIC "
            f"(classification: {cls.summary()})"
        )
    d = mic.dim
    # The Gram spectrum (isospectral to the frame operator) from an
    # eigvalsh of the Gram matrix (for a MIC, the one taken at
    # construction), not from the Loewdin SVD that gives PW:
    # lower_saturation then compares two independent computations.
    lam = mic._gram_spectrum.copy()
    root = np.sqrt(np.maximum(lam, 0.0))
    ref = np.sqrt(1.0 / d)
    lower = float(np.sum((root - ref) ** 2))
    upper = float(np.sum((root + ref) ** 2) - 4.0 / d)
    return DistanceReport(lower_bound=lower, upper_bound=upper, spectrum=lam)


def distance_report(mic: MeasureBasis,
                    wigner_basis: MeasureBasis) -> DistanceReport:
    """Distance of an unbiased MIC to an unbiased Wigner basis with the
    bound values and saturation flags (within SATURATION_TOL) filled in."""
    checks = wigner_basis._structure
    if not (checks.is_wigner and checks.is_unbiased):
        raise ValueError(
            "distance report requires an unbiased Wigner basis "
            f"(classification: {wigner_basis.classify().summary()})"
        )
    report = distance_bounds(mic)
    dist = distance(mic, wigner_basis)
    report.distance = dist
    report.saturates_lower = abs(dist - report.lower_bound) <= SATURATION_TOL
    report.saturates_upper = abs(dist - report.upper_bound) <= SATURATION_TOL
    return report


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
    cls = wigner_basis.classify()
    if not cls.is_wigner:
        raise ValueError("ceiling negativity is defined for Wigner bases")
    return max(0.0, -cls.min_eigenvalue)


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
    Raises ValueError if n_samples is below 1.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    F = wigner_basis.elements
    d = wigner_basis.dim
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal(
        (n_samples, d)
    )
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


def sic_triple_relation_check(sic: MeasureBasis, sign: int) -> float:
    """Max residual of the SIC triple-product relation

        d^3 tr(F_j F_k F_l) = s^3 tr(Pi_j Pi_k Pi_l)
            + (1 - s)(delta_jk + delta_kl + delta_jl) + (s(2-d) - 2)/d^2

    with s = +sqrt(d+1) and F the principal Wigner basis for sign=+1, and
    every occurrence of sqrt(d+1) negated (s = -sqrt(d+1), F the shifted
    principal Wigner basis) for sign=-1. Raises ValueError unless the
    input's Gram matrix is the SIC one within SIC_TOL.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    d = sic.dim
    dev = sic_gram_deviation(sic.elements)
    if dev > SIC_TOL:
        raise ValueError(
            f"input is not a SIC (Gram deviation {dev:.3e} > {SIC_TOL:.1e})"
        )
    F = principal_wigner(sic).basis
    if sign < 0:
        F = shifted(F)
    s = sign * np.sqrt(d + 1.0)
    # lhs - rhs in place, the projector tensor dropped once subtracted
    resid = _triple_tensor(F.elements)
    resid *= d
    tri = _triple_tensor(d * sic.elements)
    tri *= s**3 / d**2
    resid -= tri
    del tri
    i = np.arange(d * d)
    for diagonal in (np.s_[i, i, :], np.s_[:, i, i], np.s_[i, :, i]):
        resid[diagonal] -= 1.0 - s
    resid -= (s * (2.0 - d) - 2.0) / d**2
    return float(max(np.max(np.abs(slab)) for slab in resid))


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
    permutes the basis elements (greedy matching within MATCH_TOL).

    D(k, l) = X^k Z^l, so every displacement permutes the basis if and only
    if the shift X = D(1, 0) and the clock Z = D(0, 1) do, and only those
    two generators are checked. On a basis that is covariant only
    approximately, a composite displacement can add up the generators'
    errors beyond MATCH_TOL; this check does not see that.
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
