import json
import math

import numpy as np
import pytest

from quasibasis.bases import BasisValidationError
from quasibasis.constructions import builtin_sic, random_mic, wootters_wigner
from quasibasis.serialize import (
    SchemaError,
    dumps_json,
    read_basis,
    read_fiducial,
    read_povm,
    read_state,
    write_basis,
    write_fiducial,
    write_state,
)

from conftest import random_density


def test_basis_round_trip(tmp_path):
    path = tmp_path / "sic2.json"
    original = builtin_sic(2)
    write_basis(original, path)
    loaded = read_basis(path)
    assert loaded.dim == 2 and loaded.label == original.label
    np.testing.assert_array_equal(loaded.elements, original.elements)


def test_basis_round_trip_is_bit_exact(tmp_path):
    path = tmp_path / "r.json"
    original = random_mic(3, 17)
    write_basis(original, path)
    np.testing.assert_array_equal(read_basis(path).elements, original.elements)


def test_write_then_rewrite_is_stable(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_basis(wootters_wigner(3), p1)
    write_basis(read_basis(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_read_basis_rejects_wrong_count(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(
        dumps_json({
            "dimension": 2,
            "label": "",
            "elements": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]],
        })
    )
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="expected 4 elements"):
        read_basis(path)


def test_read_basis_rejects_invalid_measure_basis(tmp_path):
    path = tmp_path / "bad.json"
    eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    path.write_text(json.dumps({"dimension": 2, "elements": [eye] * 4}))
    with pytest.raises(BasisValidationError):
        read_basis(path)


def test_read_basis_missing_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimension": 2}))
    with pytest.raises(SchemaError, match="elements"):
        read_basis(path)


def test_read_basis_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="invalid JSON"):
        read_basis(path)


def test_fiducial_round_trip(tmp_path):
    path = tmp_path / "fid.json"
    fid = np.array([0, 1, -1]) / np.sqrt(2)
    write_fiducial(fid, path)
    np.testing.assert_array_equal(read_fiducial(path), fid.astype(complex))


def test_fiducial_shape_error(tmp_path):
    path = tmp_path / "fid.json"
    path.write_text(json.dumps({"dimension": 3, "amplitudes": [[1.0, 0.0]]}))
    with pytest.raises(SchemaError, match="amplitude"):
        read_fiducial(path)


@pytest.mark.parametrize("kind", ["basis", "state", "fiducial"])
def test_readers_reject_non_finite_entries(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "basis":
        write_basis(builtin_sic(2), path)
        read, key, at = read_basis, "elements", (1, 0, 0, 1)
    elif kind == "state":
        write_state(np.eye(2) / 2, path)
        read, key, at = read_state, "matrix", (1, 1, 0)
    else:
        write_fiducial(np.array([0, 1, -1]) / np.sqrt(2), path)
        read, key, at = read_fiducial, "amplitudes", (2, 0)
    doc = json.loads(path.read_text())
    entry = doc[key]
    for i in at[:-1]:
        entry = entry[i]
    entry[at[-1]] = float("inf")
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="non-finite") as info:
        read(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("kind", ["basis", "state", "fiducial"])
@pytest.mark.parametrize("dimension", [None, 2.5, True],
                         ids=["null", "fractional", "bool"])
def test_readers_reject_bad_dimension(tmp_path, kind, dimension):
    path = tmp_path / f"{kind}.json"
    write, read, value = {
        "basis": (write_basis, read_basis, builtin_sic(2)),
        "state": (write_state, read_state, np.eye(2) / 2),
        "fiducial": (write_fiducial, read_fiducial, np.array([1.0, 0.0])),
    }[kind]
    write(value, path)
    doc = json.loads(path.read_text())
    doc["dimension"] = dimension
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="'dimension' must be") as info:
        read(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("kind", ["state", "fiducial"])
def test_readers_reject_non_numeric_entries(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    if kind == "state":
        write_state(np.eye(2) / 2, path)
        read, key = read_state, "matrix"
    else:
        write_fiducial(np.array([1.0, 0.0]), path)
        read, key = read_fiducial, "amplitudes"
    doc = json.loads(path.read_text())
    doc[key][0] = {"x": 1}
    path.write_text(json.dumps(doc))
    with pytest.raises(SchemaError, match="not numbers|ragged"):
        read(path)


def test_state_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    rho = random_density(3, rng)
    path = tmp_path / "state.json"
    write_state(rho, path)
    np.testing.assert_array_equal(read_state(path), (rho + rho.conj().T) / 2)


def test_read_state_validates(tmp_path):
    path = tmp_path / "state.json"
    write_state(np.eye(2), path)  # trace 2
    with pytest.raises(ValueError, match="trace"):
        read_state(path)


def test_povm_reader_allows_any_count(tmp_path):
    path = tmp_path / "povm.json"
    effects = np.stack([np.eye(2) / 2, np.eye(2) / 2])
    doc = {
        "dimension": 2,
        "elements": [
            [[[float(z.real), float(z.imag)] for z in row] for row in E]
            for E in effects
        ],
    }
    path.write_text(dumps_json(doc))
    np.testing.assert_allclose(read_povm(path), effects)


def test_floats_carry_17_significant_digits():
    text = dumps_json({"x": 1 / 3})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1 / 3


@pytest.mark.parametrize("value, text", [
    (4239135355719758.0, "4239135355719758.0"),
    (-0.0, "-0.0"),
    (0.0, "0.0"),
    (1.0, "1.0"),
    (1e17, "1e+17"),
    (2.5, "2.5"),
])
def test_integral_floats_stay_floats(value, text):
    out = dumps_json({"x": value, "n": 3})
    assert out == f'{{"x": {text}, "n": 3}}'
    doc = json.loads(out)
    assert type(doc["x"]) is float and type(doc["n"]) is int
    assert doc["x"] == value
    assert math.copysign(1.0, doc["x"]) == math.copysign(1.0, value)


def test_reader_accepts_low_precision(tmp_path):
    path = tmp_path / "fid.json"
    path.write_text('{"dimension": 2, "amplitudes": [[0.6, 0], [0.8, 0]]}')
    fid = read_fiducial(path)
    np.testing.assert_allclose(fid, [0.6, 0.8])
