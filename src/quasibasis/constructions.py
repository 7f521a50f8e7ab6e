"""Builders for the concrete basis families: Weyl-Heisenberg orbits, SICs,
Wootters Wigner bases and their composite tensor products, collinear
families, tensorhedra, and seeded random bases for property testing.

Randomness: every seeded builder draws from a single numpy PCG64 stream
(np.random.default_rng(seed)) in documented order, so runs are reproducible
for a fixed numpy version. Tests assert properties of the output, never
exact bytes.
"""

from __future__ import annotations

import math

import numpy as np

from .bases import BasisValidationError, MeasureBasis, _gram_of, _positive_weights
from .operators import mat_func_psd

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Bloch vectors of the built-in qubit SIC tetrahedron, in element order.
_TETRA_SIGNS = np.array(
    [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float
)


class SicOrbitError(ValueError):
    """A Weyl-Heisenberg orbit failed the SIC Gram-matrix check."""

    def __init__(self, message: str, max_deviation: float):
        super().__init__(f"{message} (max Gram deviation {max_deviation:.3e})")
        self.max_deviation = max_deviation


def wh_flat_index(d: int, k: int, l: int) -> int:
    """Flat index k*d + l of a Weyl-Heisenberg label pair, reduced mod d."""
    return (k % d) * d + (l % d)


def wh_index_pair(d: int, flat: int) -> tuple[int, int]:
    """Inverse of wh_flat_index."""
    if not 0 <= flat < d * d:
        raise ValueError(f"flat index {flat} out of range for d={d}")
    return divmod(flat, d)


def wh_displacement(d: int, k: int, l: int) -> np.ndarray:
    """Weyl-Heisenberg displacement X^k Z^l, where X|j> = |j+1 mod d> and
    Z|j> = omega^j |j> with omega = exp(2 pi i / d).

    No extra phase convention is applied; only orbits of projectors matter
    here and global phases cancel in them.
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    k %= d
    l %= d
    n = np.arange(d)
    D = np.zeros((d, d), dtype=complex)
    D[(n + k) % d, n] = np.exp(2j * np.pi * ((n * l) % d) / d)
    return D


def _wh_orbit(op: np.ndarray) -> np.ndarray:
    """(1/d) D_{k,l} op D_{k,l}^dag for every displacement, in flat
    (k*d + l) order."""
    d = op.shape[0]
    D = np.stack([wh_displacement(d, k, l) for k in range(d) for l in range(d)])
    return np.einsum("nij,jk,nlk->nil", D, op, D.conj()) / d


def sic_gram(d: int) -> np.ndarray:
    """The SIC Gram matrix (d delta_ij + 1) / (d^2 (d+1))."""
    n = d * d
    return (d * np.eye(n) + np.ones((n, n))) / (d * d * (d + 1))


def sic_gram_deviation(elements: np.ndarray) -> float:
    """Max entrywise deviation of a stack's Gram matrix from the SIC one."""
    return float(np.max(np.abs(_gram_of(elements) - sic_gram(elements.shape[1]))))


def sic_from_fiducial(fiducial, tol: float = 1e-8) -> MeasureBasis:
    """Weyl-Heisenberg orbit POVM of a unit fiducial vector, elements
    E_{k,l} = (1/d) D_{k,l} |f><f| D_{k,l}^dag in flat (k*d + l) order.

    Raises SicOrbitError (carrying the max deviation) unless the orbit's
    Gram matrix matches the SIC form within tol.
    """
    f = np.asarray(fiducial, dtype=complex).reshape(-1)
    d = f.shape[0]
    norm = np.linalg.norm(f)
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"fiducial is not unit norm (|f| = {norm:.15g})")
    elements = _wh_orbit(np.outer(f, f.conj()))
    # Gram check before basis validation: degenerate orbits (which are not
    # even linearly independent) should report as non-SIC, with the deviation.
    dev = sic_gram_deviation(elements)
    if dev > tol:
        raise SicOrbitError("orbit is not a SIC", dev)
    return MeasureBasis(elements, label=f"WH-orbit SIC d={d}")


def builtin_sic(d: int) -> MeasureBasis:
    """Built-in SIC: the Bloch tetrahedron for d=2, the orbit of the
    fiducial (0, 1, -1)/sqrt(2) (the Hesse SIC) for d=3."""
    if d == 2:
        bloch = _TETRA_SIGNS / np.sqrt(3.0)
        elements = np.stack([
            (np.eye(2) + s[0] * _PAULI["x"] + s[1] * _PAULI["y"]
             + s[2] * _PAULI["z"]) / 4
            for s in bloch
        ])
        return MeasureBasis(elements, label="qubit SIC tetrahedron")
    if d == 3:
        fid = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        basis = sic_from_fiducial(fid)
        basis.label = "Hesse SIC"
        return basis
    raise ValueError(
        f"no built-in SIC for d={d}; use sic_from_fiducial with your own "
        "fiducial vector"
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    factors = []
    m = n
    p = 2
    while m > 1:
        while m % p == 0:
            factors.append(p)
            m //= p
        p += 1
    return factors


def parity_operator(d: int) -> np.ndarray:
    """The parity permutation |j> -> |-j mod d>."""
    return np.eye(d, dtype=complex)[(-np.arange(d)) % d]


def wootters_wigner(d: int) -> MeasureBasis:
    """Wootters' Wigner basis for d = 2 or d an odd prime, in flat
    (q*d + p) order.

    F(q,p) = (1/d) D_{q,p} A0 D_{q,p}^dag with A0 the phase-point operator
    at the origin: the parity operator for odd prime d, and
    (I + sx + sy + sz)/2 for d=2, which gives
    F(q,p) = (1/4)(I + (-1)^q sz + (-1)^p sx + (-1)^{q+p} sy).
    """
    if d == 2:
        A0 = (np.eye(2) + _PAULI["x"] + _PAULI["y"] + _PAULI["z"]) / 2
        return MeasureBasis(_wh_orbit(A0), label="Wootters qubit")
    if not _is_prime(d) or d % 2 == 0:
        raise ValueError(
            f"d={d} is not 2 or an odd prime; use composite_wootters for "
            "composite dimensions"
        )
    return MeasureBasis(_wh_orbit(parity_operator(d)), label=f"Wootters d={d}")


def tensor_basis(left: MeasureBasis, right: MeasureBasis) -> MeasureBasis:
    """Elementwise tensor product basis {L_i (x) M_j} for the product
    dimension, flat index i * len(M) + j."""
    d = left.dim * right.dim
    elements = np.einsum(
        "iab,jcd->ijacbd", left.elements, right.elements
    ).reshape(len(left) * len(right), d, d)  # row (i, j) is L_i (x) M_j
    lab_l = left.label or "L"
    lab_r = right.label or "M"
    return MeasureBasis(elements, label=f"{lab_l} (x) {lab_r}")


def composite_wootters(primes) -> MeasureBasis:
    """Tensor product of per-prime Wootters bases, mixed-radix flat order."""
    primes = list(primes)
    if not primes:
        raise ValueError("need at least one prime factor")
    for p in primes:
        if p != 2 and not (_is_prime(p) and p % 2 == 1):
            raise ValueError(f"factor {p} is not prime")
    basis = wootters_wigner(primes[0])
    for p in primes[1:]:
        basis = tensor_basis(basis, wootters_wigner(p))
    return basis


def tensorhedron(n: int) -> MeasureBasis:
    """n-fold tensor power of the built-in qubit SIC; 4^n elements in
    dimension 2^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    basis = builtin_sic(2)
    for _ in range(n - 1):
        basis = tensor_basis(basis, builtin_sic(2))
    basis.label = f"tensorhedron n={n}"
    return basis


def collinear(basis: MeasureBasis, t: float) -> MeasureBasis:
    """The collinear family member L^t_i = t L_i + (1-t) (l_i/d) I.

    A measure basis with the same bias for every t != 0; parallel to L for
    t > 0, antiparallel for t < 0.
    """
    if t == 0:
        raise ValueError("t = 0 collapses every element onto the identity")
    d = basis.dim
    eye = np.eye(d)
    elements = t * basis.elements + (
        (1 - t) / d
    ) * basis.weights[:, None, None] * eye
    return MeasureBasis(elements, label=f"{basis.label} ^ t={t:g}")


def mic_t_range(basis: MeasureBasis) -> tuple[float, float]:
    """The closed interval of t (excluding 0) for which collinear(basis, t)
    is a MIC: [max_i 1/(1 - d lmax_i), min_i 1/(1 - d lmin_i)] with
    lmax_i, lmin_i the extreme eigenvalues of L_i / l_i.

    An element proportional to I/d constrains nothing and contributes
    -inf / +inf to the corresponding side.
    """
    w = _positive_weights(basis, "the t-range")
    d = basis.dim
    eps = 1e-12
    eigs = np.linalg.eigvalsh(basis.elements / w[:, None, None])
    lo = 1.0 - d * eigs[:, -1]
    hi = 1.0 - d * eigs[:, 0]
    t_min = np.max(1.0 / lo[lo < -eps], initial=-np.inf)
    t_max = np.min(1.0 / hi[hi > eps], initial=np.inf)
    return float(t_min), float(t_max)


def _wishart_stack(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    W = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return np.einsum("nij,nkj->nik", W, W.conj())


def _whiten_to_identity(ops: np.ndarray) -> np.ndarray:
    """Conjugate a stack of PSD operators by (sum)^(-1/2) so they sum to I."""
    total = ops.sum(axis=0)
    root_inv = mat_func_psd(total, "inv_sqrt")
    return np.einsum("ij,njk,kl->nil", root_inv, ops, root_inv)


def _check_dim(d: int):
    if not 2 <= d <= 8:
        raise ValueError(f"random builders support 2 <= d <= 8, got d={d}")


def random_mic(d: int, seed: int) -> MeasureBasis:
    """Random (generically biased) MIC: d^2 Wishart-random positive
    operators conjugated by the inverse square root of their sum."""
    _check_dim(d)
    rng = np.random.default_rng(seed)
    for _ in range(8):
        elements = _whiten_to_identity(_wishart_stack(rng, d * d, d))
        try:
            basis = MeasureBasis(elements, label=f"random MIC d={d} seed={seed}")
        except BasisValidationError:
            continue
        if basis.classify().is_mic:
            return basis
    raise RuntimeError(
        f"failed to draw a linearly independent MIC for d={d}, seed={seed}"
    )


def random_unbiased_mic(d: int, seed: int, bias_tol: float = 1e-10,
                        max_iter: int = 1000) -> MeasureBasis:
    """Random unbiased MIC via alternating trace normalization
    (A_i <- A_i / (d tr A_i)) and sum-conjugation, until the bias deviates
    from 1/d by less than bias_tol.

    The alternation has no convergence proof; on hitting max_iter the
    residual is reported in the raised error rather than silently accepted.
    """
    _check_dim(d)
    rng = np.random.default_rng(seed)
    ops = _wishart_stack(rng, d * d, d)
    residual = np.inf
    for _ in range(max_iter):
        traces = np.einsum("nii->n", ops).real
        ops = ops / (d * traces[:, None, None])
        ops = _whiten_to_identity(ops)
        residual = float(np.max(np.abs(np.einsum("nii->n", ops).real - 1.0 / d)))
        if residual < bias_tol:
            break
    else:
        raise RuntimeError(
            f"unbiased-MIC alternation did not converge in {max_iter} "
            f"iterations (bias residual {residual:.3e})"
        )
    return MeasureBasis(ops, label=f"random unbiased MIC d={d} seed={seed}")


def _haar_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def _orthogonal_fixing_ones(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-random real orthogonal n x n matrix with the normalized
    all-ones vector as a fixed point."""
    u = np.ones((n, 1)) / np.sqrt(n)
    Q, _ = np.linalg.qr(np.hstack([u, np.eye(n)[:, : n - 1]]))
    if Q[:, 0] @ u[:, 0] < 0:
        Q = -Q
    V = Q[:, 1:]
    mix = _haar_orthogonal(rng, n - 1)
    return u @ u.T + V @ mix @ V.T


def random_unbiased_wigner(d: int, seed: int) -> MeasureBasis:
    """Random unbiased Wigner basis: the composite Wootters basis in
    dimension d, mixed by a seeded random orthogonal matrix that fixes the
    normalized all-ones coefficient vector (which preserves orthogonality,
    the bias, and the sum condition for unbiased inputs)."""
    _check_dim(d)
    start = composite_wootters(prime_factors(d))
    rng = np.random.default_rng(seed)
    O = _orthogonal_fixing_ones(rng, d * d)
    elements = np.einsum("ij,jab->iab", O, start.elements)
    return MeasureBasis(
        elements, label=f"random unbiased Wigner d={d} seed={seed}"
    )
