"""Hermitian operator algebra: inner products, operator coordinates, and
frame-operator matrices.

Operators are plain complex ndarrays. Superoperators (linear maps on the
space of Hermitian d x d operators) are stored as real matrices in a fixed
orthonormal Hermitian basis whose first element is I/sqrt(d).

Hilbert-Schmidt contractions run on real views. A contiguous complex
(n, d, d) stack E is, through _flat, the real (n, 2 d^2) matrix holding the
real and imaginary parts of each element's entries, and for Hermitian B,
tr(AB) = Re <vec B, vec A> = _flat(B) . _flat(A) for any A. So herm_onb
coordinates (_flat(A) M^T with M = _flat(herm_onb(d))), their inverse
(v M, read back as complex), Gram matrices (X X^T with X = _flat(E)) and
real linear combinations of elements (c X, read back as complex) are each
one real matrix product.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HERMITICITY_RTOL = 1e-9

# Relative eigenvalue floor used when taking (inverse) square roots of
# nominally-PSD operators that carry O(eps) negative noise.
CLIP_RTOL = 1e-12


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


def as_hermitian(A, rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Symmetrize A, or each matrix of an (n, d, d) stack, to (A + A^dag)/2,
    rejecting if the asymmetry exceeds ``rtol`` times the norm of A.

    Small asymmetries are numerical noise and are silently removed; large
    ones indicate a genuinely non-Hermitian input and raise.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim not in (2, 3) or A.shape[-1] != A.shape[-2]:
        raise ValueError(f"expected a square matrix or stack, got shape {A.shape}")
    herm = (A + np.swapaxes(A, -1, -2).conj()) / 2
    # Frobenius norms as row norms of the real views
    k, a = _flat(A - herm), _flat(A)
    asym = np.sqrt(np.einsum("...i,...i->...", k, k))
    scale = np.maximum(np.sqrt(np.einsum("...i,...i->...", a, a)), 1.0)
    if np.any(asym > rtol * scale):
        i = np.argmax(asym / scale)  # the worst element of a stack
        raise NonHermitianError(
            f"asymmetry {asym.flat[i]:.3e} exceeds {rtol:.1e} * norm "
            f"{scale.flat[i]:.3e}" + (f" (element {i})" if A.ndim == 3 else "")
        )
    return herm


def hs_inner(A, B) -> float:
    """Hilbert-Schmidt inner product tr(AB) of two Hermitian operators."""
    A = np.asarray(A)
    B = np.asarray(B)
    if A.shape != B.shape:
        raise ValueError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return float(np.einsum("ij,ji->", A, B).real)


def mat_func_psd(A, f, clip: float | None = None) -> np.ndarray:
    """Square root or inverse square root of a Hermitian (or real symmetric)
    matrix via its eigendecomposition, V f(Lambda) V^dag.

    ``f`` is "sqrt" or "inv_sqrt"; both treat A as positive semidefinite up
    to eigenvalue noise: eigenvalues below -clip raise (input is genuinely
    not PSD), eigenvalues in [-clip, clip] are clamped to 0 for "sqrt" and
    to clip for "inv_sqrt" (clip == 0 there means a true singularity and
    raises). Default clip is CLIP_RTOL * max|eigenvalue|.
    """
    if f not in ("sqrt", "inv_sqrt"):
        raise ValueError(f"unknown matrix function {f!r}")
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    real_input = not np.iscomplexobj(A)
    H = as_hermitian(A) if not real_input else as_hermitian(A).real
    vals, vecs = np.linalg.eigh(H)

    if clip is None:
        clip = CLIP_RTOL * max(np.max(np.abs(vals)), 1e-300)
    if np.min(vals) < -clip:
        raise ValueError(
            f"matrix is not PSD: eigenvalue {np.min(vals):.3e} < -clip {-clip:.3e}"
        )
    if f == "sqrt":
        fvals = np.sqrt(np.where(vals < clip, 0.0, vals))
    else:
        if np.max(vals) <= 0.0:
            raise SingularOperatorError(
                "inverse square root of a non-positive matrix"
            )
        clipped = np.maximum(vals, clip)
        if np.any(clipped == 0.0):
            raise SingularOperatorError(
                "inverse square root of a singular matrix"
            )
        fvals = 1.0 / np.sqrt(clipped)

    out = (vecs * fvals) @ vecs.conj().T
    out = (out + out.conj().T) / 2
    return out.real if real_input else out


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


def op_to_coords(A, d: int | None = None) -> np.ndarray:
    """Real coordinate vector of a Hermitian operator in the herm_onb basis;
    for an (n, d, d) stack, one row per operator.

    The map is a linear isometry: hs_inner becomes the Euclidean dot product.
    Coordinate a is Re tr(B_a A), so a non-Hermitian A maps to the
    coordinates of its Hermitian part.
    """
    A = np.asarray(A, dtype=complex)
    if d is None:
        d = A.shape[-1]
    if A.ndim not in (2, 3) or A.shape[-2:] != (d, d):
        raise ValueError(f"dimension mismatch: {A.shape} vs d={d}")
    return _flat(A) @ _onb_flat(d).T


def coords_to_op(v, d: int) -> np.ndarray:
    """Inverse of op_to_coords, for one coordinate vector or rows of them."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} coordinates, got shape {v.shape}")
    return (v @ _onb_flat(d)).view(complex).reshape(v.shape[:-1] + (d, d))


class SuperOperator:
    """Linear map on Hermitian d x d operators, as a real d^2 x d^2 matrix
    in the herm_onb coordinate system."""

    def __init__(self, matrix, d: int):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape != (d * d, d * d):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match d^2={d * d}"
            )
        self.matrix = matrix
        self.d = d

    def apply(self, X) -> np.ndarray:
        return coords_to_op(op_to_coords(X, self.d) @ self.matrix.T, self.d)

    def __repr__(self):
        return f"SuperOperator(d={self.d})"
