import csv
import inspect
import json
import math
from pathlib import Path

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


def wh_flat_index(d, k, l):
    """Flat index k*d + l of a Weyl-Heisenberg label pair, reduced mod d."""
    return (k % d) * d + (l % d)


def wh_index_pair(d, flat):
    """Inverse of wh_flat_index."""
    if not 0 <= flat < d * d:
        raise ValueError(f"flat index {flat} out of range for d={d}")
    return divmod(flat, d)


def affine_area(d, j, k, l):
    """Per-triple reference for analysis.wootters_triple_oracle: the signed
    area (mod d) of the triangle with vertices at the flat phase-space
    indices j, k, l of the d x d affine plane, the cyclic sum of the
    symplectic products <(q,p),(q',p')> = q p' - p q' of the vertices."""
    pts = [divmod(i % (d * d), d) for i in (j, k, l)]

    def symp(a, b):
        return a[0] * b[1] - a[1] * b[0]

    area = symp(pts[0], pts[1]) + symp(pts[1], pts[2]) + symp(pts[2], pts[0])
    return area % d


def wootters_triple_oracle_reference(d):
    """Whole-tensor reference for analysis.wootters_triple_oracle: the
    areas from n^3 int64 index arrays, one expression for all triples."""
    r = np.arange(d * d)
    j, k, l = np.ix_(r, r, r)
    (qj, pj), (qk, pk), (ql, pl) = divmod(j, d), divmod(k, d), divmod(l, d)
    area = (qj * pk - pj * qk) + (qk * pl - pk * ql) + (ql * pj - pl * qj)
    return np.exp(4j * np.pi * (area % d) / d) / d


def _fmt_float_reference(x):
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    text = format(float(x), ".17g")
    return text if any(c in text for c in ".e") else text + ".0"


def dumps_json_reference(obj) -> str:
    """Per-value reference for serialize.dumps_json: recurse through
    containers and format each scalar on its own."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {dumps_json_reference(v)}"
            for k, v in obj.items()
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        return "[" + ", ".join(dumps_json_reference(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float_reference(float(obj))
    if isinstance(obj, complex):
        return dumps_json_reference([obj.real, obj.imag])
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_to_pairs(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def write_basis_reference(basis, path) -> None:
    """Loop reference for serialize.write_basis: one [re, im] pair built
    per entry, one matrix at a time."""
    doc = {
        "dimension": basis.dim,
        "label": basis.label,
        "elements": [_matrix_to_pairs(E) for E in basis.elements],
    }
    Path(path).write_text(dumps_json_reference(doc) + "\n")


def write_state_reference(rho, path) -> None:
    rho = np.asarray(rho, dtype=complex)
    doc = {"dimension": rho.shape[0], "matrix": _matrix_to_pairs(rho)}
    Path(path).write_text(dumps_json_reference(doc) + "\n")


def write_fiducial_reference(fiducial, path) -> None:
    f = np.asarray(fiducial, dtype=complex).reshape(-1)
    doc = {
        "dimension": f.shape[0],
        "amplitudes": [[float(z.real), float(z.imag)] for z in f],
    }
    Path(path).write_text(dumps_json_reference(doc) + "\n")


def write_gamma_csv_reference(gamma, path) -> None:
    """Loop reference for serialize._write_gamma_csv: one csv.writer row per
    entry of the triple-product tensor."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "k", "l", "re", "im"])
        for (j, k, l), z in np.ndenumerate(gamma):
            writer.writerow([
                j, k, l, format(z.real, ".17g"), format(z.imag, ".17g"),
            ])


def use_reference_writers(monkeypatch) -> None:
    """Route every JSON and CSV writer the CLI calls to the loop
    references above."""
    from quasibasis import serialize

    monkeypatch.setattr(serialize, "dumps_json", dumps_json_reference)
    monkeypatch.setattr(serialize, "write_basis", write_basis_reference)
    monkeypatch.setattr(serialize, "write_state", write_state_reference)
    monkeypatch.setattr(serialize, "write_fiducial", write_fiducial_reference)
    monkeypatch.setattr(serialize, "_write_gamma_csv",
                        write_gamma_csv_reference)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def count_linalg(monkeypatch):
    """A function that routes every numpy.linalg function through a wrapper
    appending its name to a list on each call, or with shapes=True its name
    and the shape of its first argument, and returns that list; the routing
    lasts until the test ends."""

    def start(shapes: bool = False) -> list:
        calls = []
        for name in np.linalg.__all__:
            func = getattr(np.linalg, name)
            if inspect.isclass(func):
                continue

            def counting(*args, _name=name, _func=func, **kwargs):
                calls.append((_name, np.shape(args[0])) if shapes else _name)
                return _func(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return calls

    return start
