"""Measure bases and their derived objects: bias, Gram matrix, dual basis,
frame operators, and the Born matrix.

A measure basis is an ordered Hermitian operator basis {L_i} for the space
of d x d operators with sum(L_i) = I and tr(L_i) >= 0. MICs (all elements
positive semidefinite) and Wigner bases (Gram matrix diagonal) are the two
refinements everything else in the package revolves around.

The three invariants, the Wigner property and unbiasedness are statements
about the bias and the Gram matrix, so MeasureBasis checks them at
construction from one Gram matrix, and keeps it. The constructor first
symmetrizes its input with as_hermitian. The bases that the library builds
from stacks exactly Hermitian by construction (principal_wigner's output,
lift, collinear and so shifted, sic_from_fiducial's symmetrized orbit)
take MeasureBasis._from_hermitian instead: as_hermitian's finite-norm gate
and every structural check, but no symmetrization, which would return
those stacks unchanged. Linear independence is proven without an
eigendecomposition where it can be: from the diagonal (Gershgorin) for a
Wigner basis, whose Gram matrix is diagonal up to roundoff, and otherwise
from one Cholesky factorization of the Gram matrix less a small shift.
Only a candidate that both leave undecided takes one eigvalsh of the Gram
matrix. The Gram spectrum and exact condition, when construction did not
need them, and the element spectra that the MIC and rank-1 refinements
need, are computed on first use and cached.

Every inverse map reads the SVD A^{-1/2} C = U Sigma V^T (C the herm_onb
coordinates, A = diag(weights)) that MeasureBasis._lowdin caches:
Phi = A G^{-1} and sqrt(Phi) are A^{1/2} U Sigma^{-p} U^T A^{-1/2}
(p = 2, 1), and the dual basis has coordinates A^{-1/2} U Sigma^{-1} V^T.
No inverse is taken from the Gram matrix, which would square the
condition; a raw stack, or a basis with no Loewdin SVD (a zero weight, or
one small enough to push the rescaled condition past MAX_GRAM_CONDITION),
takes one SVD of C for its dual instead. The frame operators are real
d^2 x d^2 matrices acting on herm_onb coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .operators import (
    SingularOperatorError,
    _finite_norms,
    _flat,
    _identity,
    _square,
    as_hermitian,
    coords_to_op,
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

_EPS = float(np.finfo(float).eps)


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
    """The (d^2, d, d) complex element stack of a candidate basis, not yet
    symmetrized; raises on a malformed shape."""
    elements = _square(candidate, 3, "elements")
    d = elements.shape[1]
    if d < 2:
        raise ValueError("dimension must be >= 2")
    if elements.shape[0] != d * d:
        raise BasisValidationError(
            f"expected {d * d} elements for d={d}, got {elements.shape[0]}"
        )
    return elements


class MeasureBasis:
    """Validated, immutable ordered basis of d^2 Hermitian operators.

    Construction symmetrizes the elements (a library-built stack that is
    exactly Hermitian skips only that pass, see _from_hermitian), then
    checks the three defining invariants (sum to identity, nonnegative
    traces, linear independence) from the Gram matrix, and raises
    BasisValidationError, with the broken invariants in its ``failures``,
    on any violation. The Gram matrix and
    the Wigner and unbiased flags are kept. Independence is proven from the
    Gram diagonal or one shifted Cholesky where they can (see
    _certified_independent), so the Gram spectrum is kept only when an
    eigvalsh had to decide and is computed on first use otherwise; the
    element spectra, and the MIC decision read from them, wait for their
    first use. Element order is significant and preserved.
    """

    def __init__(self, elements, label: str = ""):
        self._admit(as_hermitian(_element_stack(elements)), label)

    @classmethod
    def _from_hermitian(cls, elements: np.ndarray,
                        label: str = "") -> MeasureBasis:
        """The basis of a stack the library built exactly Hermitian, entry
        (k, j) of each element the conjugate of entry (j, k) bit for bit:
        PW's polar output, a lift, a collinear or shifted member, the SIC
        orbit sic_from_fiducial symmetrized. Every check of the constructor
        runs except the symmetrization, which would return such a stack
        unchanged. Takes ownership of the stack and makes it read-only."""
        elements = _element_stack(elements)
        _finite_norms(elements)
        basis = cls.__new__(cls)
        basis._admit(elements, label)
        return basis

    def _admit(self, elements: np.ndarray, label: str) -> None:
        """Check a Hermitian element stack and keep it, read-only, with
        what the checks decided; raises BasisValidationError."""
        elements.setflags(write=False)
        self.dim = elements.shape[1]
        self.elements = elements
        self.label = label
        checks = _structure(elements)
        if checks.failures:
            raise BasisValidationError(_failure_summary(checks.failures),
                                       checks.failures)
        for array in checks.weights, checks.gram, checks.gram_spectrum:
            if array is not None:
                array.setflags(write=False)
        self._structure = checks
        if checks.is_wigner and not _certainly_not_mic(checks, self.dim):
            self._is_mic  # a MIC that is also Wigner raises here

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
        return _guarded_svd(self.coords / np.sqrt(w)[:, None],
                            "rescaled Gram matrix")

    @cached_property
    def _gram_spectrum(self) -> np.ndarray:
        """Ascending Gram eigenvalues (read-only): the construction-time
        ones, or one eigvalsh on first use when a certificate made them
        unnecessary there."""
        gvals = _gram_spectrum_of(self._structure)
        gvals.setflags(write=False)
        return gvals

    @cached_property
    def _element_spectra(self) -> np.ndarray:
        """Ascending eigenvalues of each element, one row per element
        (read-only), from one batched eigvalsh on first use."""
        eigs = np.linalg.eigvalsh(self.elements)
        eigs.setflags(write=False)
        return eigs

    @cached_property
    def _is_mic(self) -> bool:
        return _guard_mic_and_wigner(self._structure, self._element_spectra)

    @cached_property
    def _class(self) -> BasisClass:
        return _classified(self._structure, self._element_spectra,
                           self._gram_spectrum)

    def classify(self) -> BasisClass:
        """The full report at VALIDATION_TOL, equal to validate() of the
        elements. The first call runs one batched eigvalsh of the elements
        (for the MIC and rank-1 refinements), and one of the Gram matrix if
        construction did not (for the exact condition); later calls return
        it."""
        return self._class

    def __repr__(self):
        lab = f" {self.label!r}" if self.label else ""
        return f"MeasureBasis(d={self.dim}, n={len(self)}{lab})"


def _gram_of(elements: np.ndarray) -> np.ndarray:
    """G_ab = tr(E_a E_b) of a Hermitian stack, as X X^T with X = _flat(E).
    Exactly symmetric with no (G + G^T) / 2 pass: numpy forms X X^T as a
    symmetric rank-k update of one triangle and mirrors it."""
    X = _flat(elements)
    return X @ X.T


def _guarded_svd(X: np.ndarray,
                 what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD X = U diag(s) V^T of a real matrix, the one factorization
    every inverse map of a basis reads. Raises SingularOperatorError, naming
    ``what`` for X X^T, when the condition (s_0 / s_-1)^2 of X X^T exceeds
    MAX_GRAM_CONDITION; infinite when X has more rows than columns."""
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    full_rank = 0 < len(s) == X.shape[0] and s[-1] > 0
    condition = (s[0] / s[-1]) ** 2 if full_rank else np.inf
    if condition > MAX_GRAM_CONDITION:
        raise SingularOperatorError(
            f"{what} is singular (condition {condition:.3e}); "
            "basis too close to linear dependence"
        )
    return U, s, Vt


def _element_ranks(eigs: np.ndarray, rtol: float = RANK_EIG_RTOL) -> np.ndarray:
    """Numerical rank of each element from its eigenvalues (one row per
    element): the count of |eigenvalues| above rtol times the largest."""
    mags = abs(eigs)
    floor = rtol * np.maximum(mags.max(axis=1), 1e-300)
    return (mags > floor[:, None]).sum(axis=1)


def _positive_weights(basis: MeasureBasis, what: str) -> np.ndarray:
    """The weights of ``basis``, after checking that none is zero, since
    ``what`` divides by them."""
    w = basis.weights
    low = w.min()
    if low <= WEIGHT_TOL:
        raise SingularOperatorError(
            f"zero-weight element (min trace {low:.3e}); {what} "
            "divides by the weights"
        )
    return w


class _Structure(NamedTuple):
    """What a candidate's bias and Gram matrix decide: the broken
    invariants, the Gram matrix with its largest off-diagonal magnitude,
    its ascending spectrum (None when _certified_independent settled
    independence without it), and the Wigner and unbiased flags."""

    failures: dict[str, float]
    weights: np.ndarray
    gram: np.ndarray
    max_offdiag: float
    gram_spectrum: np.ndarray | None
    is_wigner: bool
    is_unbiased: bool


def _gram_spectrum_of(checks: _Structure) -> np.ndarray:
    """The ascending Gram spectrum: the one the checks took, or one
    eigvalsh of their Gram matrix if a certificate spared it."""
    gvals = checks.gram_spectrum
    return np.linalg.eigvalsh(checks.gram) if gvals is None else gvals


def _gram_condition(gvals: np.ndarray) -> float:
    """Condition number of a Gram matrix from its ascending spectrum; inf
    unless every eigenvalue is positive."""
    if gvals[-1] <= 0 or gvals[0] <= 0:
        return np.inf
    return float(gvals[-1] / gvals[0])


def _offdiagonal(G: np.ndarray) -> tuple[float, np.ndarray]:
    """The largest off-diagonal magnitude of a square G, and |G| with its
    diagonal zeroed (a new array)."""
    absG = np.abs(G)
    absG.flat[::G.shape[0] + 1] = 0.0
    return float(absG.max()), absG


def _certified_independent(G: np.ndarray, max_offdiag: float,
                           offdiag: np.ndarray) -> bool:
    """Whether a Gram matrix G (n x n, off-diagonal entries at most
    max_offdiag) provably has a condition within MAX_GRAM_CONDITION that
    eigvalsh would also find; False means undecided. ``offdiag`` is |G|
    with its diagonal zeroed, as _offdiagonal returns it; the Cholesky rule
    restores its diagonal for the row sums and then factorizes in it, so it
    is overwritten.

    Both rules allow for eigvalsh's rounding: its eigenvalues lie within
    r = 4 n eps top of the exact ones, top being an upper bound on
    lambda_max, so a spectrum certified here is one that eigvalsh reports
    with lambda_min > 0 and a condition within MAX_GRAM_CONDITION.

    Diagonal rule, tried when G is nearly diagonal (max_offdiag <=
    VALIDATION_TOL), with top = max(diag): every eigenvalue lies within
    (n - 1) max_offdiag of the diagonal (Gershgorin), and radius, that
    bound plus r, must leave min(diag) - radius > 0 and top + radius within
    MAX_GRAM_CONDITION (min(diag) - radius).

    Cholesky rule, for any G, with top = max_i sum_j |G_ij| >= lambda_max
    and m = max(diag): A = fl(G - tau I) differs from G - tau I by a
    diagonal E with |E_ii| <= eps m, which also covers the rounding of tau.
    If cholesky(A) completes, its factor has R^T R = A + dA with
    |dA| <= g |R^T| |R|, g = gamma_{n+1} = (n + 1) u / (1 - (n + 1) u),
    u = eps / 2 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., Thm 10.3). The diagonal of that bound gives
    (R^T R)_ii <= A_ii / (1 - g), so Cauchy-Schwarz gives
    |dA_ij| <= g / (1 - g) sqrt(A_ii A_jj); that rank-one bound has norm
    g / (1 - g) tr A, and A_ii <= m, so ||dA||_2 <= n g / (1 - g) m. As
    R^T R is positive semidefinite, lambda_min(G) >= tau - c with
    c = n g / (1 - g) m + eps m. The shift
    tau = (top + r) / MAX_GRAM_CONDITION + r + c therefore proves
    lambda_min(G) >= (top + r) / MAX_GRAM_CONDITION + r. It costs one copy
    of G and a factorization a fraction of eigvalsh's, and certifies
    conditions up to about 3e11 at n = 144 and 8e9 at n = 1024; a
    non-finite top or a factorization that breaks down leaves G
    undecided.
    """
    n = G.shape[0]
    diag = G.diagonal()
    m = float(diag.max())
    if max_offdiag <= VALIDATION_TOL:
        radius = (n - 1) * max_offdiag + 4 * n * _EPS * m
        low = float(diag.min()) - radius
        if low > 0 and m + radius <= MAX_GRAM_CONDITION * low:
            return True
    shifted = offdiag  # |G| once its diagonal is back, later G - tau I
    shifted.flat[::n + 1] = abs(diag)
    top = float(shifted.sum(axis=1).max())
    if not math.isfinite(top):
        return False
    r = 4 * n * _EPS * top
    g = (n + 1) * _EPS / 2 / (1 - (n + 1) * _EPS / 2)
    c = (n * g / (1 - g) + _EPS) * m
    np.copyto(shifted, G)
    shifted.flat[::n + 1] = diag - ((top + r) / MAX_GRAM_CONDITION + r + c)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _structure(elements: np.ndarray) -> _Structure:
    """The structural checks of a Hermitian element stack at
    VALIDATION_TOL, from one Gram matrix. Linear independence comes from
    _certified_independent when it holds: from the Gram diagonal for any
    well-conditioned Wigner basis, and from one shifted Cholesky for any
    other candidate it can decide (conditions up to about 3e11 at d = 12,
    8e9 at d = 32). Only an undecided candidate takes one eigvalsh of the
    Gram matrix."""
    d = elements.shape[1]
    failures: dict[str, float] = {}

    resid = elements.sum(axis=0)
    resid -= _identity(d)
    sum_resid = float(abs(resid).max())
    if sum_resid > VALIDATION_TOL:
        failures["sum_to_identity"] = sum_resid

    weights = np.einsum("aii->a", elements).real
    min_weight = float(weights.min())
    if min_weight < -VALIDATION_TOL:
        failures["nonnegative_traces"] = min_weight

    G = _gram_of(elements)
    max_offdiag, offdiag = _offdiagonal(G)
    gvals = None
    if not _certified_independent(G, max_offdiag, offdiag):
        gvals = np.linalg.eigvalsh(G)
        condition = _gram_condition(gvals)
        if not np.isfinite(condition) or condition > MAX_GRAM_CONDITION:
            failures["linear_independence"] = condition

    is_measure_basis = not failures
    return _Structure(
        failures=failures,
        weights=weights,
        gram=G,
        max_offdiag=max_offdiag,
        gram_spectrum=gvals,
        is_wigner=is_measure_basis and max_offdiag <= VALIDATION_TOL,
        is_unbiased=is_measure_basis and bool(
            abs(weights - 1.0 / d).max() <= VALIDATION_TOL
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
    rounding = 1.0 + 4 * checks.gram.shape[0] * _EPS
    return bool((checks.gram.diagonal() > bound * rounding).any())


def _guard_mic_and_wigner(checks: _Structure, eigs: np.ndarray) -> bool:
    """Whether the candidate is a MIC, from the element spectra (one
    ascending row per element). Raises BasisValidationError if it comes out
    both MIC and Wigner, which no measure basis is."""
    is_mic = not checks.failures and eigs[:, 0].min() >= -VALIDATION_TOL
    if is_mic and checks.is_wigner:
        raise BasisValidationError(
            "classified as both MIC and Wigner basis; impossible for a "
            "measure basis, so the tolerance is inconsistent with the input"
        )
    return bool(is_mic)


def _classified(checks: _Structure, eigs: np.ndarray,
                gvals: np.ndarray) -> BasisClass:
    """The report from the structural checks, the element spectra (one
    ascending row per element) and the ascending Gram spectrum."""
    is_measure_basis = not checks.failures
    is_mic = _guard_mic_and_wigner(checks, eigs)
    return BasisClass(
        is_measure_basis=is_measure_basis,
        is_mic=is_mic,
        is_wigner=checks.is_wigner,
        is_unbiased=checks.is_unbiased,
        is_rank1=is_measure_basis and bool((_element_ranks(eigs) == 1).all()),
        min_eigenvalue=float(eigs[:, 0].min()),
        gram_condition=_gram_condition(gvals),
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
    elements = as_hermitian(_element_stack(candidate))
    checks = _structure(elements)
    return _classified(checks, np.linalg.eigvalsh(elements),
                       _gram_spectrum_of(checks))


def gram(basis: MeasureBasis) -> np.ndarray:
    """Gram matrix G_ij = tr(L_i L_j); symmetric positive semidefinite."""
    return basis._structure.gram.copy()


def bias(basis: MeasureBasis) -> np.ndarray:
    """Weight vector l_i = tr(L_i). Sums to d for any measure basis."""
    return basis.weights.copy()


def bias_matrix(basis: MeasureBasis) -> np.ndarray:
    """Diagonal bias matrix A = diag(l_1, ..., l_{d^2})."""
    return np.diag(basis.weights)


def _dual_factors(basis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(W, s, V^T) with W diag(1/s) V^T the dual's herm_onb coordinates,
    the inverse transpose of the coordinate matrix C.

    A MeasureBasis reads them off its cached Loewdin SVD
    A^{-1/2} C = U Sigma V^T (W = A^{-1/2} U, no new factorization). A raw
    stack takes one guarded SVD of C (W = U), and so does a basis that has
    no Loewdin SVD: one with a zero weight, or with a weight so small that
    the rescaling alone pushes the condition past MAX_GRAM_CONDITION.
    """
    if isinstance(basis, MeasureBasis):
        try:
            U, s, Vt = basis._lowdin
            return U / np.sqrt(basis.weights)[:, None], s, Vt
        except SingularOperatorError:
            C = basis.coords
    else:
        C = op_to_coords(as_hermitian(_square(basis, 3, "elements")))
    return _guarded_svd(C, "Gram matrix")


def dual_basis(basis) -> np.ndarray:
    """Dual elements, tr(dual_i L_j) = delta_ij, stacked as (d^2, d, d).

    Accepts a MeasureBasis or any linearly independent Hermitian stack
    (the dual is plain frame theory and does not need the sum condition).
    The dual's Gram matrix is the inverse of the input Gram matrix, and
    expansion in the dual gives the reconstruction identity
    X = sum_i tr(X dual_i) L_i = sum_i tr(X L_i) dual_i. Taken from the
    SVD of the coordinates (_dual_factors), never from the Gram matrix,
    whose inverse would square the condition.
    """
    W, s, Vt = _dual_factors(basis)
    return coords_to_op((W / s) @ Vt, math.isqrt(Vt.shape[1]))


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
    inner *= rw[:, None] * (1.0 / rw)
    return inner


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
