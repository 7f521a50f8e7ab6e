import numpy as np
import pytest

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_unitary(d, rng):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(Z)
    phases = np.diag(R) / np.abs(np.diag(R))
    return Q * phases.conj()


def random_hermitian(d, rng):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (Z + Z.conj().T) / 2


def random_density(d, rng):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = Z @ Z.conj().T
    return rho / np.trace(rho).real


def random_pure_state(d, rng):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_povm(d, n, rng):
    """n-outcome POVM from whitened Wishart effects."""
    W = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    ops = np.einsum("nij,nkj->nik", W, W.conj())
    total = ops.sum(axis=0)
    vals, vecs = np.linalg.eigh(total)
    root_inv = (vecs / np.sqrt(vals)) @ vecs.conj().T
    return np.einsum("ij,njk,kl->nil", root_inv, ops, root_inv)


def perturbed(basis, eps, rng):
    """The basis plus eps times random Hermitian noise that is traceless and
    sums to zero, so the sum and the weights stay as they were."""
    from quasibasis import MeasureBasis

    n, d = len(basis), basis.dim
    H = np.stack([random_hermitian(d, rng) for _ in range(n)])
    H -= np.trace(H, axis1=1, axis2=2).real[:, None, None] * np.eye(d) / d
    H -= H.mean(axis=0)
    return MeasureBasis(basis.elements + eps * H, label=basis.label)


def wh_covariant_reference(basis, tol):
    """Loop reference for analysis.wh_covariant: conjugate the elements by
    each of the d^2 displacements D(k, l) in turn, pair each image, in
    order, with the nearest unused element by max-abs entry distance, and
    require every pairing to hold within tol."""
    from quasibasis.constructions import wh_displacement

    E, d = basis.elements, basis.dim
    for k in range(d):
        for l in range(d):
            D = wh_displacement(d, k, l)
            conj = np.einsum("ij,njk,lk->nil", D, E, D.conj())
            used, perm = np.zeros(len(E), dtype=bool), []
            for x in conj:
                devs = np.max(np.abs(x - E), axis=(1, 2))
                devs[used] = np.inf
                j = int(np.argmin(devs))
                used[j] = True
                perm.append(j)
            if np.max(np.abs(conj - E[perm])) > tol:
                return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
