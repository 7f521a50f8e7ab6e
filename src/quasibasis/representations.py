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
    _born_power,
    _dual_factors,
    _positive_weights,
)
from .operators import (
    _flat,
    _identity,
    _square,
    as_hermitian,
    coords_to_op,
    op_to_coords,
)
from .wigner import sqrt_born

STATE_TOL = 1e-9
QUASI_SUM_TOL = 1e-10


class StateValidationError(ValueError):
    """Operator is not a density operator within tolerance."""


class POVMValidationError(ValueError):
    """Effect list is not a POVM within tolerance."""


def validate_state(rho) -> np.ndarray:
    """Check trace one and positive semidefiniteness within STATE_TOL;
    returns the symmetrized state."""
    rho = as_hermitian(_square(rho, 2, "state"))
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > STATE_TOL:
        raise StateValidationError(
            f"trace {tr:.12g} is not 1 within {STATE_TOL:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -STATE_TOL:
        raise StateValidationError(
            f"minimum eigenvalue {min_eig:.3e} below -{STATE_TOL:.1e}"
        )
    return rho


def validate_povm(effects) -> np.ndarray:
    """Check that the effects are PSD and resolve the identity within
    STATE_TOL; returns the symmetrized (n, d, d) stack. Any number of
    outcomes is allowed."""
    effects = as_hermitian(_square(effects, 3, "effects"))
    return _checked_povm(effects, np.linalg.eigvalsh(effects))


def _checked_povm(effects: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """validate_povm's checks of a Hermitian stack, given its spectra."""
    min_eig = float(spectra[:, 0].min())
    if min_eig < -STATE_TOL:
        raise POVMValidationError(
            f"effect minimum eigenvalue {min_eig:.3e} below -{STATE_TOL:.1e}"
        )
    resid = effects.sum(axis=0)
    resid -= _identity(effects.shape[1])
    sum_resid = float(abs(resid).max())
    if sum_resid > STATE_TOL:
        raise POVMValidationError(
            f"effects sum deviates from identity by {sum_resid:.3e}"
        )
    return effects


def _born(E: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """tr(E_j rho) of a Hermitian (n, d, d) stack and a Hermitian rho, as
    one real matrix product: tr(AB) = _flat(A) . _flat(B)."""
    return _flat(E) @ _flat(_square(rho, 2, "state", E.shape[-1]))


def state_to_probs(rho, basis: MeasureBasis) -> np.ndarray:
    """Born-rule vector p_i = tr(rho L_i). Probabilities when the basis is
    a MIC; a quasiprobability (summing to one, possibly negative) when it
    is a Wigner basis."""
    return _born(basis.elements, validate_state(rho))


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


def probs_to_state(p, basis: MeasureBasis) -> ReconstructedState:
    """Reconstruct sum_i p_i dual_i from (quasi)probabilities; the exact
    inverse of state_to_probs on consistent inputs. ``is_state`` is judged
    within STATE_TOL. The sum is formed in herm_onb coordinates from the
    dual's SVD factors, without stacking the dual elements; a NaN or inf
    coefficient raises ValueError naming its index."""
    p = np.asarray(p, dtype=float)
    n = basis.dim * basis.dim
    if p.shape != (n,):
        raise ValueError(f"expected {n} coefficients, got shape {p.shape}")
    finite = np.isfinite(p)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"non-finite coefficient {p[i]} at index {i}")
    W, s, Vt = _dual_factors(basis)
    op = coords_to_op(((p @ W) / s) @ Vt, basis.dim)  # exactly Hermitian
    tr = float(np.trace(op).real)
    min_eig = float(np.linalg.eigvalsh(op)[0])
    return ReconstructedState(
        operator=op,
        trace=tr,
        min_eigenvalue=min_eig,
        is_state=bool(abs(tr - 1.0) <= STATE_TOL and min_eig >= -STATE_TOL),
    )


@dataclass
class QuasiDistribution:
    """Real vector summing to one, possibly with negative entries."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        total = float(self.values.sum())
        resid = abs(total - 1.0)
        if not resid <= QUASI_SUM_TOL:
            raise ValueError(
                f"quasidistribution sums to {total:.12g}, {resid:.3e} away "
                "from 1"
            )

    @property
    def negativity(self) -> float:
        """Sum of the magnitudes of negative entries."""
        return float(-self.values[self.values < 0].sum())

    def __len__(self):
        return len(self.values)


def conditional_matrix(effects, basis: MeasureBasis) -> np.ndarray:
    """Conditional probabilities P(D_j | H_i) = tr(D_j L_i / l_i); rows are
    D outcomes, columns the d^2 reference outcomes. The effects must be
    Hermitian; column sums are one when they form a POVM."""
    effects = as_hermitian(_square(effects, 3, "effects", basis.dim))
    return _conditional(effects, basis)


def _conditional(D: np.ndarray, basis: MeasureBasis) -> np.ndarray:
    """conditional_matrix of a Hermitian stack of the basis's dimension."""
    w = _positive_weights(basis, "the conditional matrix")
    # tr(D_j L_i) = _flat(D_j) . _flat(L_i), since both are Hermitian
    return (_flat(D) @ _flat(basis.elements).T) / w


def two_step_q(effects, basis: MeasureBasis, rho) -> tuple[np.ndarray, np.ndarray]:
    """Single-step Born probabilities tr(D_j rho) next to the cascaded
    prediction P(D|H) Phi P(H); the two agree for any valid inputs, which
    is the quantum replacement for the law of total probability."""
    D = validate_povm(effects)
    rho = validate_state(rho)
    cond = _conditional(_square(D, 3, "effects", basis.dim), basis)
    q_direct = _born(D, rho)
    q_cascade = cond @ (_born_power(basis, 2) @ _born(basis.elements, rho))
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


def gauge_split(effects, basis: MeasureBasis, rho) -> GaugeSplit:
    """Split the Born-matrix action evenly between the conditional matrix
    and the reference probabilities. Only defined for unbiased reference
    bases (Phi must be symmetric for a symmetric square root); raises
    ArithmeticError if the split misses the direct probabilities by more
    than STATE_TOL."""
    if not basis._structure.is_unbiased:
        raise ValueError(
            "gauge split requires an unbiased reference basis: the Born "
            "matrix of a biased basis is not symmetric, so an even-handed "
            "square-root factorization does not exist"
        )
    D = (_checked_povm(effects, basis._element_spectra)
         if effects is basis.elements else validate_povm(effects))
    rho = validate_state(rho)
    phi_sqrt = sqrt_born(basis)
    right = QuasiDistribution(phi_sqrt @ _born(basis.elements, rho))
    left = _conditional(_square(D, 3, "effects", basis.dim), basis) @ phi_sqrt
    q_direct = _born(D, rho)
    resid = float(abs(left @ right.values - q_direct).max())
    if not resid <= STATE_TOL:  # a NaN fails
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
    X = as_hermitian(_square(X, 2, "operator", basis.dim))
    w = _positive_weights(basis, "the rescaled frame operator")
    C = basis.coords  # C^T diag(1/w) C applied as C^T ((C x) / w)
    return coords_to_op(((C @ op_to_coords(X)) / w) @ C, basis.dim)
