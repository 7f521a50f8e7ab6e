"""The principal Wigner basis map and its relatives: the square-root Born
matrix realization, the shifted basis, Wigner equivalence, and the lift
from a Wigner basis back into the equivalence class of measure bases above
it.

The orthogonalization F_i = S_L^{-1/2}(L_i) (inverse square root of the
rescaled frame operator, applied elementwise) is the symmetric (Loewdin)
orthogonalization of the rescaled elements L_i / sqrt(l_i). Its result is
the polar factor of the rescaled coordinate matrix, from the one SVD cached
on the basis, which also gives sqrt(Phi) and Phi. principal_wigner
cross-checks it against the linear combination F_i = sum_j [sqrt(Phi)]_ij L_j
with sqrt(Phi) taken from an eigendecomposition of A^{-1/2} G A^{-1/2}
instead: two routes on different factorizations, the strongest internal
consistency check available. Nothing else uses that eigendecomposition.

The routes share no intermediate result, so from d = 6 up (d^2 >=
_CONCURRENT_MIN_N elements) the check route runs on a one-thread
concurrent.futures executor, made and imported on first use and dropped in
a forked child, while the calling thread takes the polar route, provided
the host leaves a core for it: two or more CPUs in the process's affinity
mask, and BLAS pinned to one thread (at least one of OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set, and every one that is set equal to
1). Otherwise the routes run one after the other. Both ways compute the
same numbers.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .bases import (
    MAX_GRAM_CONDITION,
    MeasureBasis,
    VALIDATION_TOL,
    _born_power,
    _positive_weights,
)
from .constructions import collinear
from .operators import SingularOperatorError, _flat, _mix, _square, coords_to_op

CROSS_CHECK_TOL = 1e-8
EQUIV_TOL = 1e-8

# Smallest element count n = d^2 at which principal_wigner overlaps its two
# routes. Below it, handing the check route to the executor costs more than
# it saves (measured with one BLAS thread on two cores; see CHANGES.md).
_CONCURRENT_MIN_N = 36

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def sqrt_born(basis: MeasureBasis) -> np.ndarray:
    """Principal square root of the Born matrix of a measure basis with
    positive weights: A^{1/2} (A^{1/2} G^{-1} A^{1/2})^{1/2} A^{-1/2}.

    Squares to Phi, has columns summing to one, and fixes the weight
    vector; its rows are the expansion coefficients of the principal
    Wigner basis in the measure basis. Taken from the cached Loewdin SVD.
    """
    return _born_power(basis, 1)


@dataclass(frozen=True)
class PWResult:
    """Principal Wigner basis along with both computation routes.

    ``basis`` is the validated Wigner basis; ``via_polar`` and
    ``via_sqrtphi`` are the raw element stacks from the two routes
    (read-only; ``via_polar`` is the stack ``basis`` holds), and
    ``cross_error`` their max elementwise deviation.
    ``orthogonality_residual`` is the largest off-diagonal magnitude of the
    output's Gram matrix and ``bias_deviation`` the largest change of a
    weight; the output check holds both to VALIDATION_TOL. The input basis
    keeps its result, so every caller shares one instance.
    """

    basis: MeasureBasis
    via_polar: np.ndarray
    via_sqrtphi: np.ndarray
    cross_error: float
    orthogonality_residual: float
    bias_deviation: float


def _born_sqrt(G: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Square root of the Born matrix with all-positive eigenvalues:
    A^{1/2} (A^{1/2} G^{-1} A^{1/2})^{1/2} A^{-1/2}, from one eigh of
    A^{-1/2} G A^{-1/2}. Used only by principal_wigner's cross-check, which
    needs a factorization independent of the cached SVD.
    """
    rw = np.sqrt(weights)
    col = rw[:, None]
    vals, vecs = np.linalg.eigh(G / (col * rw))
    condition = vals[-1] / vals[0] if vals[0] > 0 else np.inf
    if condition > MAX_GRAM_CONDITION:
        raise SingularOperatorError(
            f"Born-matrix square root is singular (condition {condition:.3e}); "
            "basis too close to linear dependence"
        )
    inner_root = (vecs / np.sqrt(vals)) @ vecs.T
    inner_root = (inner_root + inner_root.T) / 2
    inner_root *= col * (1.0 / rw)
    return inner_root


def _sqrtphi_route(G: np.ndarray, weights: np.ndarray,
                   elements: np.ndarray) -> np.ndarray:
    """The cross-check's element stack sum_j [sqrt(Phi)]_ij L_j."""
    return _mix(_born_sqrt(G, weights), elements)


def _concurrent(n: int) -> bool:
    """Whether principal_wigner runs the check route of a basis of n
    elements on the executor: n >= _CONCURRENT_MIN_N, two or more CPUs
    available to the process, and BLAS pinned to one thread, so that the
    two routes do not compete for one core's BLAS."""
    if n < _CONCURRENT_MIN_N:
        return False
    pinned = [os.environ[v] for v in _BLAS_THREAD_VARS if v in os.environ]
    if not pinned or any(v.strip() != "1" for v in pinned):
        return False
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) >= 2
    return (os.cpu_count() or 1) >= 2


# The check route's executor and the lock that makes it once. A forked
# child inherits neither the executor's thread nor a free lock: it drops both.
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _check_pool():
    """The check route's one-thread executor, made (and concurrent.futures
    imported) on first use in this process."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(
                1, thread_name_prefix="quasibasis-check-route")
    return _pool


def principal_wigner(basis: MeasureBasis) -> PWResult:
    """The principal Wigner basis of a measure basis with positive weights:
    the image of each element under the inverse square root of the rescaled
    frame operator.

    The output is a Wigner basis with the same bias, built from the polar
    factor A^{1/2} U V^T of the rescaled coordinates A^{-1/2} C = U Sigma V^T.
    Raises if the square-root Born route disagrees beyond CROSS_CHECK_TOL or
    if the output fails Wigner validation. Computed once per basis: later
    calls return the stored result.
    """
    cached = basis.__dict__.get("_principal_wigner")
    if cached is not None:
        return cached
    # both routes divide by the weights: reject a zero weight before either
    w = _positive_weights(basis, "the Loewdin factorization")
    check = (basis._structure.gram, w, basis.elements)
    job = (_check_pool().submit(_sqrtphi_route, *check)
           if _concurrent(len(basis)) else None)
    # a polar-route error wins, as inline; the check job finishes on its own
    U, _, Vt = basis._lowdin
    polar = np.sqrt(w)[:, None] * (U @ Vt)
    via_polar = coords_to_op(polar, basis.dim)
    via_sqrtphi = _sqrtphi_route(*check) if job is None else job.result()

    cross_error = float(abs(via_polar - via_sqrtphi).max())
    if not cross_error <= CROSS_CHECK_TOL:  # a NaN fails
        raise ArithmeticError(
            f"principal-Wigner routes disagree: cross error {cross_error:.3e} "
            f"> {CROSS_CHECK_TOL:.1e}"
        )

    # exactly Hermitian, as coords_to_op writes it: nothing to symmetrize
    out = MeasureBasis._from_hermitian(via_polar, label=f"PW({basis.label})")
    if not out._structure.is_wigner:
        cls = out.classify()
        raise ArithmeticError(
            "principal Wigner output failed orthogonality validation "
            f"(min eigenvalue {cls.min_eigenvalue:.3e}, "
            f"failures {cls.failures})"
        )
    bias_dev = float(abs(out.weights - w).max())
    if not bias_dev <= VALIDATION_TOL:  # a NaN fails
        raise ArithmeticError(f"bias not preserved (deviation {bias_dev:.3e})")
    via_sqrtphi.setflags(write=False)
    result = PWResult(
        basis=out,
        via_polar=via_polar,
        via_sqrtphi=via_sqrtphi,
        cross_error=cross_error,
        orthogonality_residual=out._structure.max_offdiag,
        bias_deviation=bias_dev,
    )
    basis.__dict__["_principal_wigner"] = result
    return result


def shifted(basis: MeasureBasis) -> MeasureBasis:
    """The shifted Wigner basis -F_i + (2 f_i / d) I; a Wigner basis with
    the same bias, and an involution: the collinear member at t = -1."""
    if not basis._structure.is_wigner:
        raise ValueError(
            "shifted basis is only defined for Wigner bases "
            f"(input classified as: {basis.classify().summary()})"
        )
    out = collinear(basis, -1.0)
    out.label = f"shifted {basis.label}"
    return out


@dataclass
class EquivalenceResult:
    equivalent: bool
    max_deviation: float
    # "equivalent", "mismatch", or "greedy_unmatched" (permuted mode could
    # not pair the elements; distinct from a verified index-wise mismatch).
    verdict: str
    permutation: tuple[int, ...] | None = None

    def __bool__(self):
        return self.equivalent


def wigner_equivalent(left: MeasureBasis, right: MeasureBasis,
                      mode: str = "ordered") -> EquivalenceResult:
    """Whether two measure bases share a principal Wigner basis, within
    EQUIV_TOL.

    Ordered mode compares PW(left) and PW(right) index by index. Permuted
    mode greedily pairs each PW(left) element with the nearest unused
    PW(right) element of compatible bias and verifies the pairing; greedy
    failure is reported as its own verdict since it does not prove
    inequivalence.
    """
    _square(right.elements, 3, "right basis", left.dim)
    if mode not in ("ordered", "permuted"):
        raise ValueError(f"unknown mode {mode!r}")
    FL = principal_wigner(left).basis
    FR = principal_wigner(right).basis
    if mode == "ordered":
        dev = float(abs(FL.elements - FR.elements).max())
        ok = dev <= EQUIV_TOL
        return EquivalenceResult(ok, dev, "equivalent" if ok else "mismatch")

    same_bias = np.abs(FL.weights[:, None] - FR.weights) <= EQUIV_TOL
    perm = _greedy_match(FL.elements, FR.elements, same_bias)
    if perm is None:
        return EquivalenceResult(False, np.inf, "greedy_unmatched")
    dev = float(abs(FL.elements - FR.elements[perm]).max())
    if dev <= EQUIV_TOL:
        return EquivalenceResult(True, dev, "equivalent", tuple(perm))
    return EquivalenceResult(False, dev, "greedy_unmatched")


def _greedy_match(X: np.ndarray, Y: np.ndarray,
                  allowed: np.ndarray | None = None) -> np.ndarray | None:
    """Pair each operator X[i], in order, with the nearest unused Y[j] among
    the allowed pairs; None if some X[i] has no allowed partner left.

    Nearest is by squared Frobenius distance ||X_i||^2 + ||Y_j||^2 -
    2 Re tr(X_i^dag Y_j), all n^2 of them from one real matrix product of
    the _flat views. Callers verify the pairing they get by its max-abs
    deviation.

    When every row's nearest Y is its own and finite, one argmin per row is
    the pairing, as masking only removes columns; otherwise the masked loop
    runs from the first row.
    """
    x, y = _flat(X), _flat(Y)
    dist = (np.einsum("ij,ij->i", x, x)[:, None]
            + np.einsum("ij,ij->i", y, y) - 2.0 * (x @ y.T))
    if allowed is not None:
        dist[~allowed] = np.inf
    perm = dist.argmin(axis=1)
    if (np.bincount(perm, minlength=dist.shape[1]).max() <= 1
            and np.isfinite(dist.min(axis=1)).all()):
        return perm
    for i, row in enumerate(dist):
        perm[i] = j = row.argmin()
        if not math.isfinite(row[j]):
            return None
        dist[:, j] = np.inf
    return perm


def lift(wigner_basis: MeasureBasis, reference: MeasureBasis) -> MeasureBasis:
    """Map a Wigner basis F into the measure basis {S_L^{1/2}(F_i)} built
    from the reference basis L.

    The result has the same bias as F and F as its principal Wigner basis,
    so together with collinear scaling it reaches MICs in the Wigner
    equivalence class of F.
    """
    if not wigner_basis._structure.is_wigner:
        raise ValueError("lift input must be a Wigner basis")
    _square(reference.elements, 3, "reference basis", wigner_basis.dim)
    _, s, Vt = reference._lowdin
    coords = wigner_basis.coords @ ((Vt.T * s) @ Vt)  # S_L^{1/2} = V Sigma V^T
    return MeasureBasis._from_hermitian(
        coords_to_op(coords, reference.dim),
        label=f"lift({wigner_basis.label}; {reference.label})",
    )
