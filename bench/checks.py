"""Output checks computed apart from the program.

Nothing here imports quasibasis. Elements are stacks of d x d complex
matrices. The reference principal Wigner basis is Löwdin's symmetric
orthogonalization of the weight-rescaled elements: real-vectorise the
elements into the rows of C, let A = diag(weights), take the SVD
A^{-1/2} C = U S W^T and set F = A^{1/2} U W^T.

Tolerances scale with the Gram condition kappa of the input: every check
allows TOL_SCALE * eps * kappa per matrix entry (see README.md for the
measured error growth behind the constant).
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
TOL_SCALE = 16.0


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference."""


def entry_tol(kappa: float) -> float:
    return TOL_SCALE * EPS * kappa


def real_vectors(elements) -> np.ndarray:
    """Rows are real vectors whose dot products are tr(E_i E_j)."""
    E = np.asarray(elements, dtype=complex)
    n = E.shape[0]
    return np.concatenate([E.real.reshape(n, -1), E.imag.reshape(n, -1)],
                          axis=1)


def from_real_vectors(V: np.ndarray, d: int) -> np.ndarray:
    h = d * d
    return (V[:, :h] + 1j * V[:, h:]).reshape(-1, d, d)


def weights(elements) -> np.ndarray:
    return np.einsum("aii->a", np.asarray(elements)).real


def gram(elements) -> np.ndarray:
    C = real_vectors(elements)
    return C @ C.T


def gram_condition(elements) -> float:
    s = np.linalg.svd(real_vectors(elements), compute_uv=False)
    return float((s[0] / s[-1]) ** 2)


def lowdin(elements) -> np.ndarray:
    """Reference principal Wigner basis of a measure basis with positive
    weights."""
    E = np.asarray(elements, dtype=complex)
    d = E.shape[1]
    rw = np.sqrt(weights(E))
    U, _, Wt = np.linalg.svd(real_vectors(E) / rw[:, None],
                             full_matrices=False)
    return from_real_vectors(rw[:, None] * (U @ Wt), d)


def shift(F) -> np.ndarray:
    """Shifted Wigner basis -F_i + (2 f_i / d) I."""
    F = np.asarray(F)
    d = F.shape[1]
    return -F + (2.0 / d) * weights(F)[:, None, None] * np.eye(d)


def distance(left, right) -> float:
    diff = np.asarray(left) - np.asarray(right)
    return float(np.einsum("nij,nji->", diff, diff).real)


def theorem1_bounds(elements) -> tuple[float, float]:
    """Lower and upper distance bounds of an unbiased MIC from its Gram
    spectrum."""
    E = np.asarray(elements)
    d = E.shape[1]
    root = np.sqrt(np.maximum(np.linalg.eigvalsh(gram(E)), 0.0))
    ref = np.sqrt(1.0 / d)
    return (float(np.sum((root - ref) ** 2)),
            float(np.sum((root + ref) ** 2) - 4.0 / d))


def sic_bounds(d: int) -> tuple[float, float]:
    """Closed-form ((d-1)/d)(d+2 -+ 2 sqrt(d+1))."""
    scale = (d - 1.0) / d
    root = 2.0 * np.sqrt(d + 1.0)
    return scale * (d + 2.0 - root), scale * (d + 2.0 + root)


def is_sic(elements, tol: float = 1e-8) -> bool:
    E = np.asarray(elements)
    d = E.shape[1]
    n = d * d
    target = (d * np.eye(n) + np.ones((n, n))) / (d * d * (d + 1))
    return bool(np.max(np.abs(gram(E) - target)) <= tol)


def require(ok: bool, what: str, value: float, tol: float) -> None:
    if not ok:
        raise CheckFailed(f"{what}: {value:.3e} exceeds {tol:.3e}")


def check_unbiased_mic(elements, kappa: float, bias_tol: float) -> None:
    """Hermitian, positive semidefinite, sum to the identity, weights
    within ``bias_tol`` of 1/d."""
    E = np.asarray(elements)
    n, d, _ = E.shape
    if n != d * d:
        raise CheckFailed(f"{n} elements for d={d}")
    tol = entry_tol(kappa)
    herm = float(np.max(np.abs(E - np.conj(np.transpose(E, (0, 2, 1))))))
    require(herm <= tol, "hermiticity", herm, tol)
    resid = float(np.max(np.abs(E.sum(axis=0) - np.eye(d))))
    require(resid <= tol, "sum to identity", resid, tol)
    lo = float(np.linalg.eigvalsh(E)[:, 0].min())
    require(lo >= -tol, "negative MIC eigenvalue", -lo, tol)
    dev = float(np.max(np.abs(weights(E) - 1.0 / d)))
    require(dev <= bias_tol, "unbiased weights", dev, bias_tol)


def check_pw(inputs, outputs, kappa: float) -> dict[str, float]:
    """Check a principal Wigner basis against the Löwdin reference of its
    input: agreement, orthogonality, sum to the identity, preserved bias.
    Returns the residuals; raises CheckFailed beyond entry_tol(kappa)."""
    L = np.asarray(inputs)
    F = np.asarray(outputs)
    if F.shape != L.shape:
        raise CheckFailed(f"shape {F.shape} != input shape {L.shape}")
    tol = entry_tol(kappa)
    ref_dev = float(np.max(np.abs(F - lowdin(L))))
    G = gram(F)
    orth = float(np.max(np.abs(G - np.diag(np.diag(G)))))
    d = L.shape[1]
    sum_resid = float(np.max(np.abs(F.sum(axis=0) - np.eye(d))))
    bias_dev = float(np.max(np.abs(weights(F) - weights(L))))
    require(ref_dev <= tol, "PW deviation from Löwdin reference", ref_dev, tol)
    require(orth <= tol, "PW off-diagonal Gram", orth, tol)
    require(sum_resid <= tol, "PW sum to identity", sum_resid, tol)
    require(bias_dev <= tol, "PW bias", bias_dev, tol)
    return {"ref_dev": ref_dev, "orth_resid": orth}
