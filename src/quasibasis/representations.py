"""Probability and quasiprobability representations of states and
measurements relative to a reference measure basis.

The two-protocol identity replaces the classical law of total probability:
cascading a reference measurement H before a measurement D predicts
Q(D) = P(D|H) Phi P(H), with Phi the Born matrix of the reference basis.
For an unbiased reference, Phi is symmetric and the map can be split down
the middle, Q(D) = (P(D|H) sqrt(Phi)) (sqrt(Phi) P(H)); the right factor is
exactly the Wigner function of the state in the principal Wigner basis of
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import (
    MeasureBasis,
    _positive_weights,
    born_matrix,
    dual_basis,
    rescaled_frame_operator,
)
from .operators import as_hermitian
from .wigner import sqrt_born

STATE_TOL = 1e-9
QUASI_SUM_TOL = 1e-10


class StateValidationError(ValueError):
    """Operator is not a density operator within tolerance."""


class POVMValidationError(ValueError):
    """Effect list is not a POVM within tolerance."""


def validate_state(rho, tol: float = STATE_TOL) -> np.ndarray:
    """Check trace one and positive semidefiniteness; returns the
    symmetrized state."""
    rho = as_hermitian(rho)
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > tol:
        raise StateValidationError(f"trace {tr:.12g} is not 1 within {tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -tol:
        raise StateValidationError(
            f"minimum eigenvalue {min_eig:.3e} below -{tol:.1e}"
        )
    return rho


def validate_povm(effects, tol: float = STATE_TOL) -> np.ndarray:
    """Check that the effects are PSD and resolve the identity; returns the
    symmetrized (n, d, d) stack. Any number of outcomes is allowed."""
    effects = np.asarray(effects, dtype=complex)
    if effects.ndim != 3 or effects.shape[1] != effects.shape[2]:
        raise ValueError(f"expected (n, d, d) effects, got {effects.shape}")
    effects = as_hermitian(effects)
    d = effects.shape[1]
    min_eig = float(np.linalg.eigvalsh(effects)[:, 0].min())
    if min_eig < -tol:
        raise POVMValidationError(
            f"effect minimum eigenvalue {min_eig:.3e} below -{tol:.1e}"
        )
    sum_resid = float(np.max(np.abs(effects.sum(axis=0) - np.eye(d))))
    if sum_resid > tol:
        raise POVMValidationError(
            f"effects sum deviates from identity by {sum_resid:.3e}"
        )
    return effects


def state_to_probs(rho, basis: MeasureBasis) -> np.ndarray:
    """Born-rule vector p_i = tr(rho L_i). Probabilities when the basis is
    a MIC; a quasiprobability (summing to one, possibly negative) when it
    is a Wigner basis."""
    rho = validate_state(rho)
    if rho.shape[0] != basis.dim:
        raise ValueError("dimension mismatch between state and basis")
    return np.einsum("ij,nji->n", rho, basis.elements).real


@dataclass
class ReconstructedState:
    """Hermitian reconstruction from a length-d^2 coefficient vector.

    Arbitrary vectors are accepted (tomography needs the raw inverse map);
    is_state records whether the output is a valid density operator.
    """

    operator: np.ndarray
    trace: float
    min_eigenvalue: float
    is_state: bool


def probs_to_state(p, basis: MeasureBasis,
                   tol: float = STATE_TOL) -> ReconstructedState:
    """Reconstruct sum_i p_i dual_i from (quasi)probabilities; the exact
    inverse of state_to_probs on consistent inputs."""
    p = np.asarray(p, dtype=float)
    n = basis.dim * basis.dim
    if p.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {p.shape}")
    op = np.einsum("n,nij->ij", p, dual_basis(basis))
    op = (op + op.conj().T) / 2
    tr = float(np.trace(op).real)
    min_eig = float(np.linalg.eigvalsh(op)[0])
    return ReconstructedState(
        operator=op,
        trace=tr,
        min_eigenvalue=min_eig,
        is_state=bool(abs(tr - 1.0) <= tol and min_eig >= -tol),
    )


@dataclass
class QuasiDistribution:
    """Real vector summing to one, possibly with negative entries."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        resid = abs(self.values.sum() - 1.0)
        if resid > QUASI_SUM_TOL:
            raise ValueError(
                f"quasidistribution sums to 1 {resid:.3e} away from 1"
            )

    @property
    def negativity(self) -> float:
        """Sum of the magnitudes of negative entries."""
        return float(-self.values[self.values < 0].sum())

    def __len__(self):
        return len(self.values)


def conditional_matrix(effects, basis: MeasureBasis) -> np.ndarray:
    """Conditional probabilities P(D_j | H_i) = tr(D_j L_i / l_i); rows are
    D outcomes, columns the d^2 reference outcomes. Column sums are one
    when the effects form a POVM."""
    effects = np.asarray(effects, dtype=complex)
    if effects.shape[1] != basis.dim:
        raise ValueError("dimension mismatch between effects and basis")
    w = _positive_weights(basis, "the conditional matrix")
    states = basis.elements / w[:, None, None]
    return np.einsum("jab,iba->ji", effects, states).real


def two_step_q(effects, basis: MeasureBasis, rho) -> tuple[np.ndarray, np.ndarray]:
    """Single-step Born probabilities tr(D_j rho) next to the cascaded
    prediction P(D|H) Phi P(H); the two agree for any valid inputs, which
    is the quantum replacement for the law of total probability."""
    D = validate_povm(effects)
    rho = validate_state(rho)
    q_direct = np.einsum("jab,ba->j", D, rho).real
    cond = conditional_matrix(D, basis)
    phi = born_matrix(basis).phi
    p_ref = state_to_probs(rho, basis)
    q_cascade = cond @ (phi @ p_ref)
    return q_direct, q_cascade


@dataclass
class GaugeSplit:
    """Symmetric factorization of the cascaded Born rule for an unbiased
    reference: left = P(D|H) sqrt(Phi), right = sqrt(Phi) P(H).

    ``right`` is the Wigner function of the state in the principal Wigner
    basis of the reference; left @ right.values reproduces the direct
    probabilities. Columns of ``left`` sum to one, mirroring the column
    stochasticity of P(D|H).
    """

    left: np.ndarray
    right: QuasiDistribution
    reconstruction_residual: float


def gauge_split(effects, basis: MeasureBasis, rho,
                tol: float = STATE_TOL) -> GaugeSplit:
    """Split the Born-matrix action evenly between the conditional matrix
    and the reference probabilities. Only defined for unbiased reference
    bases (Phi must be symmetric for a symmetric square root)."""
    cls = basis.classify()
    if not cls.is_unbiased:
        raise ValueError(
            "gauge split requires an unbiased reference basis: the Born "
            "matrix of a biased basis is not symmetric, so an even-handed "
            "square-root factorization does not exist"
        )
    D = validate_povm(effects)
    rho = validate_state(rho)
    phi_sqrt = sqrt_born(basis)
    right = QuasiDistribution(phi_sqrt @ state_to_probs(rho, basis))
    left = conditional_matrix(D, basis) @ phi_sqrt
    q_direct = np.einsum("jab,ba->j", D, rho).real
    resid = float(np.max(np.abs(left @ right.values - q_direct)))
    if resid > max(tol, 1e-9):
        raise ArithmeticError(
            f"gauge split failed to reconstruct the Born probabilities "
            f"(residual {resid:.3e})"
        )
    return GaugeSplit(left=left, right=right, reconstruction_residual=resid)


def ebmc_apply(basis: MeasureBasis, X) -> np.ndarray:
    """Apply the rescaled frame operator X -> sum_i (tr(X L_i)/l_i) L_i.

    Trace preserving for any measure basis; for a MIC this is the
    entanglement-breaking MIC channel, and for a Wigner basis the identity
    map.
    """
    X = as_hermitian(X)
    if X.shape[0] != basis.dim:
        raise ValueError("dimension mismatch")
    return rescaled_frame_operator(basis).apply(X)
