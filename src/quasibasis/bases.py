"""Measure bases and their derived objects: bias, Gram matrix, dual basis,
frame operators, and the Born matrix.

A measure basis is an ordered Hermitian operator basis {L_i} for the space
of d x d operators with sum(L_i) = I and tr(L_i) >= 0. MICs (all elements
positive semidefinite) and Wigner bases (Gram matrix diagonal) are the two
refinements everything else in the package revolves around.

The three invariants, the Wigner property and unbiasedness are statements
about the bias and the Gram matrix, so MeasureBasis checks them at
construction from one Gram matrix and one eigvalsh of it, and keeps both.
Only the MIC and rank-1 refinements need each element's own spectrum; that
batched eigvalsh runs on the first classify() and its report is cached.

Phi = A G^{-1} and sqrt(Phi) are A^{1/2} U Sigma^{-p} U^T A^{-1/2} (p = 2, 1)
from the SVD A^{-1/2} C = U Sigma V^T that MeasureBasis._lowdin caches. The
frame operators are real d^2 x d^2 matrices acting on herm_onb coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .operators import (
    SingularOperatorError,
    _flat,
    _mix,
    as_hermitian,
    op_to_coords,
)

VALIDATION_TOL = 1e-9

# Gram matrices with a worse condition number are treated as numerically
# linearly dependent. Kept far above eigenvalue noise so that MICs sitting
# on the PSD boundary (which stay well-conditioned) are not confused with
# genuinely dependent element sets.
MAX_GRAM_CONDITION = 1e12

RANK_EIG_RTOL = 1e-8

# Weights at or below this count as zero wherever a map divides by them.
WEIGHT_TOL = 1e-12


class BasisValidationError(ValueError):
    """Candidate element set is not a valid measure basis.

    ``failures`` maps each broken invariant to its residual, as in
    BasisClass.failures; it is empty when the candidate is malformed or its
    classification inconsistent rather than an invariant broken.
    """

    def __init__(self, message: str, failures: dict[str, float] | None = None):
        super().__init__(message)
        self.failures = dict(failures or {})


@dataclass(frozen=True)
class BasisClass:
    """Classification report for a candidate measure basis.

    ``failures`` names each violated invariant with its numeric residual;
    an empty dict together with is_measure_basis=True means the candidate
    passed every structural check.
    """

    is_measure_basis: bool
    is_mic: bool
    is_wigner: bool
    is_unbiased: bool
    is_rank1: bool
    min_eigenvalue: float
    gram_condition: float
    failures: dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        if not self.is_measure_basis:
            return _failure_summary(self.failures)
        tags = ["measure basis"]
        if self.is_mic:
            tags.append("MIC")
        if self.is_wigner:
            tags.append("Wigner")
        if self.is_unbiased:
            tags.append("unbiased")
        if self.is_rank1:
            tags.append("rank-1")
        return ", ".join(tags)


def _failure_summary(failures: dict[str, float]) -> str:
    return "not a measure basis: " + ", ".join(
        f"{k}={v:.3e}" for k, v in failures.items()
    )


def _element_stack(candidate) -> np.ndarray:
    """The symmetrized (d^2, d, d) element stack of a candidate basis;
    raises on a malformed shape."""
    elements = np.asarray(candidate, dtype=complex)
    if elements.ndim != 3 or elements.shape[1] != elements.shape[2]:
        raise ValueError(f"expected (n, d, d) elements, got {elements.shape}")
    d = elements.shape[1]
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if elements.shape[0] != d * d:
        raise BasisValidationError(
            f"expected {d * d} elements for d={d}, got {elements.shape[0]}"
        )
    return as_hermitian(elements)


class MeasureBasis:
    """Validated, immutable ordered basis of d^2 Hermitian operators.

    Construction symmetrizes the elements, then checks the three defining
    invariants (sum to identity, nonnegative traces, linear independence)
    from the Gram matrix and its spectrum, and raises BasisValidationError,
    with the broken invariants in its ``failures``, on any violation. The
    Gram matrix, its spectrum and the Wigner and unbiased flags are kept;
    the element spectra wait for classify(). Element order is significant
    and preserved.
    """

    def __init__(self, elements, label: str = ""):
        elements = _element_stack(elements)
        elements.setflags(write=False)
        self.dim = elements.shape[1]
        self.elements = elements
        self.label = label
        checks = _structure(elements)
        if checks.failures:
            raise BasisValidationError(_failure_summary(checks.failures),
                                       checks.failures)
        for array in checks.weights, checks.gram, checks.gram_spectrum:
            array.setflags(write=False)
        self._structure = checks
        if checks.is_wigner and not _certainly_not_mic(checks, self.dim):
            self.classify()  # runs the MIC-and-Wigner guard on the spectra

    def __len__(self):
        return self.elements.shape[0]

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    @property
    def weights(self) -> np.ndarray:
        """Bias vector l_i = tr(L_i), from the construction-time checks."""
        return self._structure.weights

    @cached_property
    def coords(self) -> np.ndarray:
        """Rows are the herm_onb coordinate vectors of the elements."""
        c = op_to_coords(self.elements)
        c.setflags(write=False)
        return c

    @cached_property
    def _lowdin(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Thin SVD X = U diag(s) V^T of X = A^{-1/2} C (C = coords,
        A = diag(weights)): the principal Wigner basis has coordinates
        A^{1/2} U V^T (Loewdin), S_L = X^T X, so S_L^{1/2} = V diag(s) V^T,
        and A^{-1/2} G A^{-1/2} = X X^T = U diag(s^2) U^T.
        """
        w = _positive_weights(self, "the Loewdin factorization")
        U, s, Vt = np.linalg.svd(self.coords / np.sqrt(w)[:, None],
                                 full_matrices=False)
        condition = (s[0] / s[-1]) ** 2 if s[-1] > 0 else np.inf
        if condition > MAX_GRAM_CONDITION:
            raise SingularOperatorError(
                f"rescaled Gram matrix is singular (condition {condition:.3e}); "
                "basis too close to linear dependence"
            )
        return U, s, Vt

    @cached_property
    def _element_spectra(self) -> np.ndarray:
        """Ascending eigenvalues of each element, one row per element
        (read-only), from one batched eigvalsh on first use."""
        eigs = np.linalg.eigvalsh(self.elements)
        eigs.setflags(write=False)
        return eigs

    @cached_property
    def _class(self) -> BasisClass:
        return _classified(self._structure, self._element_spectra)

    def classify(self) -> BasisClass:
        """The full report at VALIDATION_TOL, equal to validate() of the
        elements. The first call runs one batched eigvalsh of the elements
        (for the MIC and rank-1 refinements); later calls return it."""
        return self._class

    def __repr__(self):
        lab = f" {self.label!r}" if self.label else ""
        return f"MeasureBasis(d={self.dim}, n={len(self)}{lab})"


def _gram_of(elements: np.ndarray) -> np.ndarray:
    """G_ab = tr(E_a E_b) of a Hermitian stack, as X X^T with X = _flat(E)."""
    X = _flat(elements)
    G = X @ X.T
    return (G + G.T) / 2


def _element_ranks(eigs: np.ndarray, rtol: float = RANK_EIG_RTOL) -> np.ndarray:
    """Numerical rank of each element from its eigenvalues (one row per
    element): the count of |eigenvalues| above rtol times the largest."""
    floor = rtol * np.maximum(np.abs(eigs).max(axis=1), 1e-300)
    return (np.abs(eigs) > floor[:, None]).sum(axis=1)


def _positive_weights(basis: MeasureBasis, what: str) -> np.ndarray:
    """The weights of ``basis``, after checking that none is zero, since
    ``what`` divides by them."""
    w = basis.weights
    if np.min(w) <= WEIGHT_TOL:
        raise SingularOperatorError(
            f"zero-weight element (min trace {np.min(w):.3e}); {what} "
            "divides by the weights"
        )
    return w


class _Structure(NamedTuple):
    """What a candidate's bias and Gram matrix decide: the broken
    invariants, the Gram matrix with its ascending spectrum and condition,
    and the Wigner and unbiased flags."""

    failures: dict[str, float]
    weights: np.ndarray
    gram: np.ndarray
    gram_spectrum: np.ndarray
    condition: float
    is_wigner: bool
    is_unbiased: bool


def _structure(elements: np.ndarray) -> _Structure:
    """The structural checks of a symmetrized element stack at
    VALIDATION_TOL, from one Gram matrix and one eigvalsh of it."""
    d = elements.shape[1]
    failures: dict[str, float] = {}

    sum_resid = float(np.max(np.abs(elements.sum(axis=0) - np.eye(d))))
    if sum_resid > VALIDATION_TOL:
        failures["sum_to_identity"] = sum_resid

    weights = np.einsum("aii->a", elements).real
    min_weight = float(weights.min())
    if min_weight < -VALIDATION_TOL:
        failures["nonnegative_traces"] = min_weight

    G = _gram_of(elements)
    gvals = np.linalg.eigvalsh(G)
    if gvals[-1] <= 0 or gvals[0] <= 0:
        condition = np.inf
    else:
        condition = float(gvals[-1] / gvals[0])
    if not np.isfinite(condition) or condition > MAX_GRAM_CONDITION:
        failures["linear_independence"] = condition

    is_measure_basis = not failures
    max_offdiag = float(np.max(np.abs(G - np.diag(np.diag(G)))))
    return _Structure(
        failures=failures,
        weights=weights,
        gram=G,
        gram_spectrum=gvals,
        condition=condition,
        is_wigner=is_measure_basis and max_offdiag <= VALIDATION_TOL,
        is_unbiased=is_measure_basis and bool(
            np.max(np.abs(weights - 1.0 / d)) <= VALIDATION_TOL
        ),
    )


def _certainly_not_mic(checks: _Structure, d: int) -> bool:
    """Whether the Gram diagonal alone rules out a MIC at VALIDATION_TOL.

    A Hermitian F with every eigenvalue >= -tau has
    tr F^2 <= (tr F + d tau)^2 + d tau^2, so an element whose G_ii exceeds
    that bound (beyond the rounding of G_ii) has an eigenvalue below -tau.
    False means undecided, not MIC.
    """
    tau = VALIDATION_TOL
    bound = (checks.weights + d * tau) ** 2 + d * tau**2
    rounding = 1.0 + 4 * checks.gram.shape[0] * np.finfo(float).eps
    return bool(np.any(np.diag(checks.gram) > bound * rounding))


def _classified(checks: _Structure, eigs: np.ndarray) -> BasisClass:
    """The report from the structural checks and the element spectra (one
    ascending row per element). Raises BasisValidationError if the
    candidate comes out both MIC and Wigner, which no measure basis is."""
    is_measure_basis = not checks.failures
    min_eigenvalue = float(eigs[:, 0].min())
    is_mic = is_measure_basis and min_eigenvalue >= -VALIDATION_TOL
    if is_mic and checks.is_wigner:
        raise BasisValidationError(
            "classified as both MIC and Wigner basis; impossible for a "
            "measure basis, so the tolerance is inconsistent with the input"
        )
    return BasisClass(
        is_measure_basis=is_measure_basis,
        is_mic=is_mic,
        is_wigner=checks.is_wigner,
        is_unbiased=checks.is_unbiased,
        is_rank1=is_measure_basis and bool(np.all(_element_ranks(eigs) == 1)),
        min_eigenvalue=min_eigenvalue,
        gram_condition=checks.condition,
        failures=checks.failures,
    )


def validate(candidate) -> BasisClass:
    """Classify a candidate element set (array-like of d^2 Hermitian d x d
    matrices, or a MeasureBasis) at VALIDATION_TOL.

    Returns a full report rather than raising, except for structurally
    malformed input (wrong element count, mismatched dimensions). A raw
    stack is checked eagerly, element spectra included; a MeasureBasis
    answers with its classify().
    """
    if isinstance(candidate, MeasureBasis):
        return candidate.classify()
    elements = _element_stack(candidate)
    return _classified(_structure(elements), np.linalg.eigvalsh(elements))


def gram(basis: MeasureBasis) -> np.ndarray:
    """Gram matrix G_ij = tr(L_i L_j); symmetric positive semidefinite."""
    return basis._structure.gram.copy()


def bias(basis: MeasureBasis) -> np.ndarray:
    """Weight vector l_i = tr(L_i). Sums to d for any measure basis."""
    return basis.weights.copy()


def bias_matrix(basis: MeasureBasis) -> np.ndarray:
    """Diagonal bias matrix A = diag(l_1, ..., l_{d^2})."""
    return np.diag(basis.weights)


def dual_basis(basis) -> np.ndarray:
    """Dual elements, tr(dual_i L_j) = delta_ij, stacked as (d^2, d, d).

    Accepts a MeasureBasis or any linearly independent Hermitian stack
    (the dual is plain frame theory and does not need the sum condition).
    The dual's Gram matrix is the inverse of the input Gram matrix, and
    expansion in the dual gives the reconstruction identity
    X = sum_i tr(X dual_i) L_i = sum_i tr(X L_i) dual_i.
    """
    if isinstance(basis, MeasureBasis):
        elements, G = basis.elements, basis._structure.gram
    else:
        elements = as_hermitian(basis)
        G = _gram_of(elements)
    vals, vecs = np.linalg.eigh(G)
    if vals[0] <= 0 or vals[-1] / vals[0] > MAX_GRAM_CONDITION:
        raise SingularOperatorError(
            f"Gram matrix numerically singular (condition "
            f"{np.inf if vals[0] <= 0 else vals[-1] / vals[0]:.3e})"
        )
    return _mix((vecs / vals) @ vecs.T, elements)


def frame_operator(basis: MeasureBasis) -> np.ndarray:
    """The map X -> sum_i tr(X L_i) L_i as a real (d^2, d^2) matrix S on
    herm_onb coordinates: op_to_coords(S(X)) = S @ op_to_coords(X).

    Self-adjoint; shares its nonzero spectrum with the Gram matrix (for a
    basis the two are isospectral).
    """
    C = basis.coords
    return C.T @ C


def rescaled_frame_operator(basis: MeasureBasis) -> np.ndarray:
    """Frame operator of the weight-rescaled elements L_i / sqrt(l_i):
    X -> sum_i (tr(X L_i) / l_i) L_i, as a real (d^2, d^2) matrix on
    herm_onb coordinates. Its roots S_L^{+-1/2} = V Sigma^{+-1} V^T come
    from the cached Loewdin SVD, not from this matrix.

    Fixes the identity, is trace-preserving, and for a MIC acts as the
    entanglement-breaking MIC channel. Requires strictly positive weights.
    """
    w = _positive_weights(basis, "the rescaled frame operator")
    C = basis.coords
    return C.T @ (C / w[:, None])


def _born_power(basis: MeasureBasis, p: int) -> np.ndarray:
    """A^{1/2} U Sigma^{-p} U^T A^{-1/2} from the cached Loewdin SVD
    A^{-1/2} C = U Sigma V^T: the Born matrix for p = 2, its principal
    square root for p = 1. No new factorization."""
    U, s, _ = basis._lowdin
    inner = (U / s**p) @ U.T
    inner = (inner + inner.T) / 2
    rw = np.sqrt(basis.weights)
    return inner * np.outer(rw, 1.0 / rw)


@dataclass
class BornMatrix:
    """Column-quasistochastic matrix Phi = A G^{-1} converting reference
    probabilities into the quasiprobabilities of the Born-rule analog of
    the law of total probability, with its principal square root
    ``phi_sqrt`` (all eigenvalues positive; also column quasistochastic
    and fixing the weight vector)."""

    phi: np.ndarray
    phi_sqrt: np.ndarray
    weights: np.ndarray

    def column_sum_residual(self) -> float:
        return float(np.max(np.abs(self.phi.sum(axis=0) - 1.0)))

    def weight_eigvec_residual(self) -> float:
        return float(np.max(np.abs(self.phi @ self.weights - self.weights)))


def born_matrix(basis: MeasureBasis) -> BornMatrix:
    """Born matrix Phi = A G^{-1} of a measure basis with positive weights,
    and its principal square root, both from the cached Loewdin SVD.

    Columns sum to one, the weight vector is a fixed point, and for a MIC
    at least one entry is strictly negative.
    """
    return BornMatrix(phi=_born_power(basis, 2), phi_sqrt=_born_power(basis, 1),
                      weights=basis.weights.copy())
