"""JSON schemas shared with the command-line tool.

Basis files:    {"dimension": d, "label": str,
                 "elements": [[[ [re, im], ... d ], ... d rows ], ... d^2 ]}
Fiducial files: {"dimension": d, "amplitudes": [[re, im], ... d]}
State files:    {"dimension": d, "matrix": [[ [re, im], ... d ], ... d rows ]}

Writers emit floats with 17 significant digits (enough to round-trip IEEE
doubles bit-exactly); readers accept any float precision. POVM files reuse
the basis layout but may carry any number of elements.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .bases import MeasureBasis
from .representations import validate_povm, validate_state


class SchemaError(ValueError):
    """File content does not match the expected JSON schema."""


def _fmt_float(x: float) -> str:
    """17 significant digits, always read back as a float: an integral
    value keeps a ".0" (1.0, -0.0, 4239135355719758.0)."""
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite float")
    text = format(float(x), ".17g")
    return text if any(c in text for c in ".e") else text + ".0"


def dumps_json(obj, indent: int = 0) -> str:
    """Serialize nested dicts/lists/scalars, floats at 17 significant
    digits. Key order is preserved."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {dumps_json(v)}" for k, v in obj.items()
        )
        return pad + "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            obj = obj.tolist()
        return pad + "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)) or obj is None:
        return pad + json.dumps(bool(obj) if obj is not None else None)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _fmt_float(float(obj))
    if isinstance(obj, complex):
        return pad + dumps_json([obj.real, obj.imag])
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _matrix_to_pairs(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _pairs_to_complex(rows, shape: tuple, what: str) -> np.ndarray:
    expected = f"{what}: expected {' x '.join(map(str, shape))} [re, im] pairs"
    try:
        M = np.asarray(rows)
    except ValueError as exc:  # ragged nesting
        raise SchemaError(f"{expected}, got ragged lists") from exc
    if M.dtype.kind not in "iuf":  # strings, booleans, objects, nulls
        raise SchemaError(f"{expected}, got entries that are not numbers")
    if M.shape != (*shape, 2):
        raise SchemaError(f"{expected}, got shape {M.shape}")
    M = M.astype(float, copy=False)
    bad = np.argwhere(~np.isfinite(M))
    if bad.size:
        raise SchemaError(f"{what}: non-finite entry at {bad[0].tolist()}")
    return M[..., 0] + 1j * M[..., 1]


def basis_to_dict(basis: MeasureBasis) -> dict:
    return {
        "dimension": basis.dim,
        "label": basis.label,
        "elements": [_matrix_to_pairs(E) for E in basis.elements],
    }


def write_basis(basis: MeasureBasis, path) -> None:
    Path(path).write_text(dumps_json(basis_to_dict(basis)) + "\n")


def _load_doc(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a JSON object at top level")
    return doc


def _require(doc: dict, key: str, path) -> object:
    if key not in doc:
        raise SchemaError(f"{path}: missing required key {key!r}")
    return doc[key]


def _dimension(doc: dict, path) -> int:
    """The file's "dimension": a positive integer, written as a JSON
    integer or an integral float."""
    d = _require(doc, "dimension", path)
    integral = isinstance(d, int) or (
        isinstance(d, float) and math.isfinite(d) and d.is_integer()
    )
    if isinstance(d, bool) or not integral or d < 1:
        raise SchemaError(
            f"{path}: 'dimension' must be a positive integer, got {d!r}"
        )
    return int(d)


def _read_elements(path, expect_square_count: bool):
    doc = _load_doc(path)
    d = _dimension(doc, path)
    raw = _require(doc, "elements", path)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{path}: 'elements' must be a non-empty list")
    if expect_square_count and len(raw) != d * d:
        raise SchemaError(
            f"{path}: expected {d * d} elements for dimension {d}, "
            f"got {len(raw)}"
        )
    elements = np.stack(
        [_pairs_to_complex(E, (d, d), f"{path} element {i}")
         for i, E in enumerate(raw)]
    )
    return elements, str(doc.get("label", ""))


def read_basis(path) -> MeasureBasis:
    """Load and validate a measure basis file."""
    elements, label = _read_elements(path, expect_square_count=True)
    return MeasureBasis(elements, label=label)


def read_povm(path) -> np.ndarray:
    """Load a POVM file (basis layout, any element count) and validate the
    effects."""
    effects, _ = _read_elements(path, expect_square_count=False)
    return validate_povm(effects)


def read_fiducial(path) -> np.ndarray:
    """Load a fiducial vector; unit norm is checked by the SIC builder."""
    doc = _load_doc(path)
    d = _dimension(doc, path)
    return _pairs_to_complex(
        _require(doc, "amplitudes", path), (d,), f"{path} amplitudes"
    )


def write_fiducial(fiducial, path) -> None:
    f = np.asarray(fiducial, dtype=complex).reshape(-1)
    doc = {
        "dimension": f.shape[0],
        "amplitudes": [[float(z.real), float(z.imag)] for z in f],
    }
    Path(path).write_text(dumps_json(doc) + "\n")


def read_state(path) -> np.ndarray:
    """Load and validate a density-operator file."""
    doc = _load_doc(path)
    d = _dimension(doc, path)
    rho = _pairs_to_complex(_require(doc, "matrix", path), (d, d), f"{path} matrix")
    return validate_state(rho)


def write_state(rho, path) -> None:
    rho = np.asarray(rho, dtype=complex)
    doc = {"dimension": rho.shape[0], "matrix": _matrix_to_pairs(rho)}
    Path(path).write_text(dumps_json(doc) + "\n")
