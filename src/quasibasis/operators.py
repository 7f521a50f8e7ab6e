"""Hermitian operator algebra: inner products, spectral calculus, operator
coordinates, and superoperator matrices.

Operators are plain complex ndarrays. Superoperators (linear maps on the
space of Hermitian d x d operators) are stored as real matrices in a fixed
orthonormal Hermitian basis whose first element is I/sqrt(d); every map we
care about is Hermiticity-preserving and self-adjoint, so its matrix is real
symmetric and functional calculus reduces to a real eigendecomposition.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

HERMITICITY_RTOL = 1e-9

# Relative eigenvalue floor used when taking (inverse) square roots of
# nominally-PSD operators that carry O(eps) negative noise.
CLIP_RTOL = 1e-12


class NonHermitianError(ValueError):
    """Input operator is not Hermitian within tolerance."""


class SingularOperatorError(ValueError):
    """Operator (or matrix) is singular where an inverse is required."""


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
    asym = np.linalg.norm(A - herm, axis=(-2, -1))
    scale = np.maximum(np.linalg.norm(A, axis=(-2, -1)), 1.0)
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


def hs_norm_sq(A) -> float:
    """Squared Hilbert-Schmidt norm tr(A^2) of a Hermitian operator."""
    return hs_inner(A, A)


class SpectralDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real, ascending
    eigenvectors: np.ndarray  # unitary; column k pairs with eigenvalue k


def eig_hermitian(A, rtol: float = HERMITICITY_RTOL) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian operator, ascending eigenvalues."""
    A = as_hermitian(A, rtol)
    vals, vecs = np.linalg.eigh(A)
    return SpectralDecomposition(vals, vecs)


def mat_func_psd(A, f, clip: float | None = None) -> np.ndarray:
    """Apply a scalar function to a Hermitian (or real symmetric) matrix via
    its eigendecomposition, V f(Lambda) V^dag.

    ``f`` may be a callable, applied to raw eigenvalues, or one of the
    strings "sqrt" / "inv_sqrt", which treat A as positive semidefinite up
    to eigenvalue noise: eigenvalues below -clip raise (input is genuinely
    not PSD), eigenvalues in [-clip, clip] are clamped to 0 for "sqrt" and
    to clip for "inv_sqrt" (clip == 0 there means a true singularity and
    raises). Default clip is CLIP_RTOL * max|eigenvalue|.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    real_input = not np.iscomplexobj(A)
    H = as_hermitian(A) if not real_input else as_hermitian(A).real
    vals, vecs = np.linalg.eigh(H)

    if callable(f):
        fvals = np.asarray([f(v) for v in vals], dtype=float)
    elif f in ("sqrt", "inv_sqrt"):
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
    else:
        raise ValueError(f"unknown matrix function {f!r}")

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


def op_to_coords(A, d: int | None = None) -> np.ndarray:
    """Real coordinate vector of a Hermitian operator in the herm_onb basis;
    for an (n, d, d) stack, one row per operator.

    The map is a linear isometry: hs_inner becomes the Euclidean dot product.
    """
    A = np.asarray(A, dtype=complex)
    if d is None:
        d = A.shape[-1]
    if A.ndim not in (2, 3) or A.shape[-2:] != (d, d):
        raise ValueError(f"dimension mismatch: {A.shape} vs d={d}")
    return np.einsum("aij,...ji->...a", herm_onb(d), A, optimize=True).real


def coords_to_op(v, d: int) -> np.ndarray:
    """Inverse of op_to_coords, for one coordinate vector or rows of them."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != d * d:
        raise ValueError(f"expected {d * d} coordinates, got shape {v.shape}")
    return np.einsum("...a,aij->...ij", v, herm_onb(d), optimize=True)


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

    @classmethod
    def from_action(cls, action: Callable[[np.ndarray], np.ndarray], d: int,
                    rtol: float = HERMITICITY_RTOL) -> "SuperOperator":
        """Probe a Hermiticity-preserving linear map on each basis element.

        matrix[a, b] = hs_inner(B_a, action(B_b)); raises if any output
        fails the Hermiticity check.
        """
        outs = as_hermitian(np.stack([action(B) for B in herm_onb(d)]), rtol)
        return cls(op_to_coords(outs).T, d)

    def apply(self, X) -> np.ndarray:
        return coords_to_op(op_to_coords(X, self.d) @ self.matrix.T, self.d)

    def compose(self, other: "SuperOperator") -> "SuperOperator":
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        return SuperOperator(self.matrix @ other.matrix, self.d)

    def func(self, f, clip: float | None = None) -> "SuperOperator":
        """Functional calculus of a self-adjoint superoperator.

        Valid only when the matrix is symmetric (self-adjoint map under the
        Hilbert-Schmidt inner product); asserts that before delegating to
        mat_func_psd.
        """
        asym = np.linalg.norm(self.matrix - self.matrix.T)
        if asym > HERMITICITY_RTOL * max(np.linalg.norm(self.matrix), 1.0):
            raise ValueError(
                f"superoperator matrix not symmetric (asymmetry {asym:.3e}); "
                "functional calculus requires a self-adjoint map"
            )
        return SuperOperator(mat_func_psd(self.matrix, f, clip), self.d)

    def is_symmetric(self, atol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.T)) <= atol)

    def __repr__(self):
        return f"SuperOperator(d={self.d})"
