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
from .constructions import sic_gram_deviation, wh_displacement
from .wigner import _greedy_match, principal_wigner, shifted

SATURATION_TOL = 1e-9
MATCH_TOL = 1e-8


def distance(left: MeasureBasis, right: MeasureBasis) -> float:
    """Sum over elements of the squared Hilbert-Schmidt distance,
    sum_i tr((L_i - M_i)^2)."""
    if left.dim != right.dim or len(left) != len(right):
        raise ValueError("shape mismatch between bases")
    diff = left.elements - right.elements
    return float(np.einsum("nij,nji->", diff, diff).real)


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
    lam = np.linalg.eigvalsh(gram(mic))  # isospectral to the frame operator
    root = np.sqrt(np.maximum(lam, 0.0))
    ref = np.sqrt(1.0 / d)
    lower = float(np.sum((root - ref) ** 2))
    upper = float(np.sum((root + ref) ** 2) - 4.0 / d)
    return DistanceReport(lower_bound=lower, upper_bound=upper, spectrum=lam)


def distance_report(mic: MeasureBasis, wigner_basis: MeasureBasis,
                    tol: float = SATURATION_TOL) -> DistanceReport:
    """Distance of an unbiased MIC to an unbiased Wigner basis with the
    bound values and saturation flags filled in."""
    wcls = wigner_basis.classify()
    if not (wcls.is_wigner and wcls.is_unbiased):
        raise ValueError(
            "distance report requires an unbiased Wigner basis "
            f"(classification: {wcls.summary()})"
        )
    report = distance_bounds(mic)
    dist = distance(mic, wigner_basis)
    report.distance = dist
    report.saturates_lower = abs(dist - report.lower_bound) <= tol
    report.saturates_upper = abs(dist - report.upper_bound) <= tol
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
    ceiling_negativity_sampled for an independent stochastic check.
    """
    cls = wigner_basis.classify()
    if not cls.is_wigner:
        raise ValueError("ceiling negativity is defined for Wigner bases")
    return max(0.0, -cls.min_eigenvalue)


def ceiling_negativity_sampled(wigner_basis: MeasureBasis,
                               n_samples: int = 10_000,
                               seed: int = 0) -> float:
    """Monte-Carlo lower estimate of the ceiling negativity from Haar
    random pure states."""
    d = wigner_basis.dim
    rng = np.random.default_rng(seed)
    kets = rng.standard_normal((n_samples, d)) + 1j * rng.standard_normal(
        (n_samples, d)
    )
    kets /= np.linalg.norm(kets, axis=1)[:, None]
    # w[s, i] = <psi_s| F_i |psi_s>
    w = np.einsum("sa,iab,sb->si", kets.conj(), wigner_basis.elements, kets).real
    return max(0.0, float(-w.min()))


@dataclass
class TripleProducts:
    """Tensor Gamma_jkl = d^2 tr(F_j F_k F_l) of a basis.

    Cyclically symmetric, with Gamma_jkl = conj(Gamma_lkj), and satisfying
    the sum rule sum_{kl} Gamma_jkl = d^2 tr(F_j).
    """

    dim: int
    gamma: np.ndarray

    def cyclic_residual(self) -> float:
        g = self.gamma
        return float(
            max(
                np.max(np.abs(g - np.transpose(g, (1, 2, 0)))),
                np.max(np.abs(g - np.transpose(g, (2, 0, 1)))),
            )
        )

    def conjugation_residual(self) -> float:
        g = self.gamma
        return float(np.max(np.abs(g - np.conj(np.transpose(g, (2, 1, 0))))))

    def sum_rule_residual(self, basis: MeasureBasis) -> float:
        target = self.dim**2 * basis.weights
        return float(np.max(np.abs(self.gamma.sum(axis=(1, 2)) - target)))


def triple_products(basis: MeasureBasis, force: bool = False) -> TripleProducts:
    """Full triple-product tensor. Guarded above d=5 (d^6 complex entries)
    unless force=True."""
    d = basis.dim
    if d > 5 and not force:
        raise MemoryError(
            f"triple products store d^6 = {d**6} complex entries for d={d}; "
            "pass force=True to compute anyway"
        )
    F = basis.elements
    gamma = d * d * np.einsum("jab,kbc,lca->jkl", F, F, F)
    return TripleProducts(dim=d, gamma=gamma)


def affine_area(d: int, j: int, k: int, l: int) -> int:
    """Signed area (mod d) of the triangle with vertices at the flat
    phase-space indices j, k, l of the d x d affine plane: the cyclic sum
    of symplectic products <(q,p),(q',p')> = q p' - p q' of the vertices.
    """
    pts = [divmod(i % (d * d), d) for i in (j, k, l)]

    def symp(a, b):
        return a[0] * b[1] - a[1] * b[0]

    area = symp(pts[0], pts[1]) + symp(pts[1], pts[2]) + symp(pts[2], pts[0])
    return area % d


def wootters_triple_oracle(d: int) -> np.ndarray:
    """Brute-force prediction (1/d) exp(4 pi i A_jkl / d) of the Wootters
    triple products from the affine-plane geometry alone; independent of
    any operator arithmetic."""
    n = d * d
    pred = np.empty((n, n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            for l in range(n):
                pred[j, k, l] = np.exp(
                    4j * np.pi * affine_area(d, j, k, l) / d
                ) / d
    return pred


def sic_triple_relation_check(sic: MeasureBasis, sign: int,
                              sic_tol: float = 1e-8) -> float:
    """Max residual of the SIC triple-product relation

        d^3 tr(F_j F_k F_l) = s^3 tr(Pi_j Pi_k Pi_l)
            + (1 - s)(delta_jk + delta_kl + delta_jl) + (s(2-d) - 2)/d^2

    with s = +sqrt(d+1) and F the principal Wigner basis for sign=+1, and
    every occurrence of sqrt(d+1) negated (s = -sqrt(d+1), F the shifted
    principal Wigner basis) for sign=-1.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    d = sic.dim
    dev = sic_gram_deviation(sic.elements)
    if dev > sic_tol:
        raise ValueError(
            f"input is not a SIC (Gram deviation {dev:.3e} > {sic_tol:.1e})"
        )
    projectors = d * sic.elements
    F = principal_wigner(sic).basis
    if sign < 0:
        F = shifted(F)
    s = sign * np.sqrt(d + 1.0)
    lhs = d**3 * np.einsum(
        "jab,kbc,lca->jkl", F.elements, F.elements, F.elements
    )
    tri = np.einsum("jab,kbc,lca->jkl", projectors, projectors, projectors)
    delta = np.eye(d * d)
    delta_sum = (
        delta[:, :, None] + delta[None, :, :] + delta[:, None, :]
    )
    rhs = s**3 * tri + (1.0 - s) * delta_sum + (s * (2.0 - d) - 2.0) / d**2
    return float(np.max(np.abs(lhs - rhs)))


@dataclass
class DiagnosticsReport:
    equiangular: bool
    equiangular_spread: float
    rank_profile: list[int]
    wh_covariant: bool


def _rank_profile(basis: MeasureBasis,
                  rtol: float = RANK_EIG_RTOL) -> list[int]:
    eigs = np.linalg.eigvalsh(basis.elements)
    return [int(r) for r in _element_ranks(eigs, rtol)]


def wh_covariant(basis: MeasureBasis, tol: float = MATCH_TOL) -> bool:
    """Whether conjugation by every Weyl-Heisenberg displacement permutes
    the basis elements (greedy matching within tol)."""
    d = basis.dim
    for k in range(d):
        for l in range(d):
            D = wh_displacement(d, k, l)
            conj = np.einsum("ij,njk,lk->nil", D, basis.elements, D.conj())
            perm = _greedy_match(conj, basis.elements)
            if np.max(np.abs(conj - basis.elements[perm])) > tol:
                return False
    return True


def diagnostics(basis: MeasureBasis,
                equiangular_tol: float = 1e-8) -> DiagnosticsReport:
    """Equiangularity spread, element rank profile, and Weyl-Heisenberg
    covariance of a measure basis."""
    G = gram(basis)
    n = len(basis)
    off = G[~np.eye(n, dtype=bool)]
    spread = float(off.max() - off.min())
    return DiagnosticsReport(
        equiangular=spread <= equiangular_tol,
        equiangular_spread=spread,
        rank_profile=_rank_profile(basis),
        wh_covariant=wh_covariant(basis),
    )
