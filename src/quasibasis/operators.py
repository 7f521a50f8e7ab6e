"""Hermitian operator algebra: validation, inner products and operator
coordinates.

Operators are plain complex ndarrays. Coordinates are real vectors in a
fixed orthonormal Hermitian basis whose first element is I/sqrt(d); linear
maps on Hermitian d x d operators (the frame operators in bases) are real
d^2 x d^2 matrices acting on those coordinates.

Hilbert-Schmidt contractions run on real views. A contiguous complex
(n, d, d) stack E is, through _flat, the real (n, 2 d^2) matrix holding the
real and imaginary parts of each element's entries, and for Hermitian B,
tr(AB) = Re <vec B, vec A> = _flat(B) . _flat(A) for any A. So herm_onb
coordinates (_flat(A) M^T with M = _flat(herm_onb(d))), their inverse
(v M, read back as complex), Gram matrices (X X^T with X = _flat(E)) and
real linear combinations of elements (c X, read back as complex) are each
one real matrix product.

_square checks every operator argument's shape and dimension: a (d, d)
operator or an (n, d, d) stack, of the expected d, or a ValueError.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HERMITICITY_RTOL = 1e-9


class NonHermitianError(ValueError):
    """Input operator is not Hermitian within tolerance."""


class SingularOperatorError(ValueError):
    """Operator (or matrix) is singular where an inverse is required."""


def _flat(E) -> np.ndarray:
    """Real view of a complex (..., d, d) array as (..., 2 d^2): each matrix
    becomes one row holding the real and imaginary parts of its entries,
    so Re tr(A^dag B) = _flat(A) . _flat(B). Copies only a non-contiguous
    or non-complex input."""
    E = np.ascontiguousarray(E, dtype=complex)
    return E.reshape(E.shape[:-2] + (-1,)).view(float)


def _square(A, ndim: int | None, what: str, d: int | None = None) -> np.ndarray:
    """A as a complex (d, d) matrix (ndim 2), (n, d, d) stack (ndim 3) or
    either (ndim None), of dimension d when given; raises ValueError naming
    the expected shape, or both dimensions, otherwise."""
    A = np.asarray(A, dtype=complex)
    ndims = (2, 3) if ndim is None else (ndim,)
    if A.ndim not in ndims or A.shape[-1] != A.shape[-2]:
        expected = {2: "(d, d)", 3: "(n, d, d)"}.get(ndim, "(d, d) or (n, d, d)")
        raise ValueError(f"expected {expected} {what}, got shape {A.shape}")
    if d is not None and A.shape[-1] != d:
        raise ValueError(
            f"dimension mismatch: {what} d={A.shape[-1]}, expected d={d}"
        )
    return A


def as_hermitian(A) -> np.ndarray:
    """Symmetrize A, or each matrix of an (n, d, d) stack, to (A + A^dag)/2,
    rejecting if the asymmetry exceeds HERMITICITY_RTOL times the norm of A.

    Small asymmetries are numerical noise and are silently removed; large
    ones indicate a genuinely non-Hermitian input and raise. A matrix whose
    Frobenius norm is not finite (a NaN or inf entry, or entries too large
    to square) raises ValueError naming it, before any factorization sees it.
    """
    A = _square(A, None, "operator")
    norm = _finite_norms(A)
    # (A^dag + A) * 0.5 in one C-contiguous buffer: equal to (A + A^dag) / 2
    herm = np.conjugate(A.swapaxes(-1, -2), out=np.empty(A.shape, complex))
    herm += A
    herm *= 0.5
    k = _flat(A - herm)
    asym = np.sqrt(np.einsum("...i,...i->...", k, k))
    scale = np.maximum(norm, 1.0)
    if (asym > HERMITICITY_RTOL * scale).any():
        i = np.argmax(asym / scale)  # the worst element of a stack
        where = f" (element {i})" if A.ndim == 3 else ""
        raise NonHermitianError(
            f"asymmetry {asym.flat[i]:.3e} exceeds {HERMITICITY_RTOL:.1e} * "
            f"norm {scale.flat[i]:.3e}" + where
        )
    return herm


def _finite_norms(A: np.ndarray) -> np.ndarray:
    """Frobenius norms of a complex (d, d) matrix, or of each matrix of an
    (n, d, d) stack, as row norms of the real views. Raises ValueError
    naming the first matrix whose norm is not finite (a NaN or inf entry,
    or entries too large to square), before any factorization sees it."""
    a = _flat(A)
    norm = np.sqrt(np.einsum("...i,...i->...", a, a))
    finite = np.isfinite(norm)
    if not finite.all():
        where = f" (element {np.argmin(finite)})" if A.ndim == 3 else ""
        raise ValueError(
            "non-finite Frobenius norm" + where
            + ": a NaN or inf entry, or entries too large to square"
        )
    return norm


def hs_inner(A, B) -> float:
    """Hilbert-Schmidt inner product tr(AB) of two Hermitian operators."""
    A = as_hermitian(_square(A, 2, "operator"))
    B = as_hermitian(_square(B, 2, "operator", A.shape[0]))
    return float(np.einsum("ij,ji->", A, B).real)


@lru_cache(maxsize=32)
def herm_onb(d: int) -> np.ndarray:
    """Orthonormal Hermitian operator basis for dimension d, shape (d^2,d,d).

    Element 0 is I/sqrt(d); the rest are traceless, in the fixed order
    symmetric pairs, antisymmetric pairs, diagonal (generalized Gell-Mann).
    """
    if d < 2:
        raise ValueError("dimension must be >= 2")
    basis = np.zeros((d * d, d, d), dtype=complex)
    basis[0] = np.eye(d) / np.sqrt(d)
    j, k = np.triu_indices(d, 1)  # pairs j < k in row-major order
    sym = 1 + np.arange(len(j))
    anti = sym + len(j)
    basis[sym, j, k] = basis[sym, k, j] = 1 / np.sqrt(2)
    basis[anti, j, k] = -1j / np.sqrt(2)
    basis[anti, k, j] = 1j / np.sqrt(2)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        basis[anti[-1] + l] = np.diag(diag / np.sqrt(l * (l + 1)))
    basis.setflags(write=False)
    return basis


@lru_cache(maxsize=32)
def _identity(d: int) -> np.ndarray:
    """The real d x d identity, read-only: the one the per-call checks
    subtract and the collinear builder scales."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


@lru_cache(maxsize=32)
def _onb_flat(d: int) -> np.ndarray:
    """_flat(herm_onb(d)), shape (d^2, 2 d^2), read-only."""
    M = _flat(herm_onb(d))
    M.setflags(write=False)
    return M


def _mix(c, E) -> np.ndarray:
    """Linear combinations sum_j c_ij E_j of a complex (n, d, d) stack with
    a real (m, n) coefficient matrix, as one real matrix product."""
    E = np.asarray(E)
    out = np.asarray(c, dtype=float) @ _flat(E)
    return out.view(complex).reshape(out.shape[:-1] + E.shape[-2:])


def op_to_coords(A) -> np.ndarray:
    """Real coordinate vector of a Hermitian operator in the herm_onb basis;
    for an (n, d, d) stack, one row per operator.

    The map is a linear isometry: hs_inner becomes the Euclidean dot product.
    Coordinate a is Re tr(B_a A), so a non-Hermitian A maps to the
    coordinates of its Hermitian part.
    """
    A = _square(A, None, "operator")
    return _flat(A) @ _onb_flat(A.shape[-1]).T


def coords_to_op(v, d: int) -> np.ndarray:
    """Inverse of op_to_coords, for one coordinate vector or rows of them.

    The output is exactly Hermitian, entry (k, j) the conjugate of entry
    (j, k) bit for bit: in the one real product v _flat(herm_onb(d)), the
    columns of entries (j, k) and (k, j) are equal in their real parts and
    opposite in their imaginary parts, and the product treats equal
    columns alike.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} coordinates, got shape {v.shape}")
    return (v @ _onb_flat(d)).view(complex).reshape(v.shape[:-1] + (d, d))
