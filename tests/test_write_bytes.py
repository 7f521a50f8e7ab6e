"""The array writers emit exactly the bytes of the per-value loop writers
kept in conftest: every JSON file, CLI stdout and triple-product CSV is
compared byte for byte against the reference."""

from types import SimpleNamespace

import numpy as np
import pytest

from quasibasis.cli import main
from quasibasis.constructions import (
    builtin_sic,
    random_mic,
    random_unbiased_mic,
    wootters_wigner,
)
from quasibasis.serialize import (
    dumps_json,
    write_basis,
    write_fiducial,
    write_state,
)

from conftest import (
    dumps_json_reference,
    random_density,
    use_reference_writers,
    write_basis_reference,
    write_fiducial_reference,
    write_state_reference,
)


def assert_same_bytes(monkeypatch, capsys, argv, written=None):
    """Run the CLI with the library's writers, then again with the
    reference writers; exit code, stdout and the written file must match
    byte for byte."""
    runs = []
    for reference in (False, True):
        if reference:
            use_reference_writers(monkeypatch)
        code = main([str(a) for a in argv])
        out = capsys.readouterr().out.encode()
        runs.append((code, out, written.read_bytes() if written else None))
    assert runs[0][0] == 0 and b'"status": "ok"' in runs[0][1]
    assert runs[0] == runs[1]


@pytest.fixture
def inputs(tmp_path):
    """Basis, fiducial and state files read by the CLI cases."""
    bases = {
        "sic2": builtin_sic(2),
        "sic3": builtin_sic(3),
        "wootters3": wootters_wigner(3),
        "mic3": random_mic(3, 1),
        "umic3": random_unbiased_mic(3, 1),
    }
    for name, basis in bases.items():
        write_basis(basis, tmp_path / f"{name}.json")
    write_fiducial(np.array([0, 1, -1]) / np.sqrt(2), tmp_path / "fid.json")
    write_state(random_density(3, np.random.default_rng(5)),
                tmp_path / "rho3.json")
    return tmp_path


CONSTRUCT_CASES = {
    "sic2": ["sic", "--d", "2"],
    "sic3": ["sic", "--d", "3"],
    "sic-fiducial": ["sic", "--fiducial", "{dir}/fid.json"],
    "wootters2": ["wootters", "--d", "2"],
    "wootters3": ["wootters", "--d", "3"],
    "wootters6": ["wootters", "--d", "6"],
    "tensorhedron1": ["tensorhedron", "--n", "1"],
    "tensorhedron2": ["tensorhedron", "--n", "2"],
    "collinear-1": ["collinear", "--in", "{dir}/sic3.json", "--t", "-1"],
    "collinear0.5": ["collinear", "--in", "{dir}/mic3.json", "--t", "0.5"],
    "random-mic": ["random", "--variant", "mic", "--d", "3", "--seed", "1"],
    "random-unbiased-mic": ["random", "--variant", "unbiased-mic",
                            "--d", "3", "--seed", "1"],
    "random-unbiased-wigner": ["random", "--variant", "unbiased-wigner",
                               "--d", "3", "--seed", "1"],
}


@pytest.mark.parametrize("case", sorted(CONSTRUCT_CASES))
def test_construct_bytes(inputs, monkeypatch, capsys, case):
    out = inputs / "out.json"
    argv = [a.format(dir=inputs) for a in CONSTRUCT_CASES[case]]
    assert_same_bytes(monkeypatch, capsys,
                      ["construct", *argv, "--out", out], out)


@pytest.mark.parametrize("flags", [[], ["--shifted"]], ids=["pw", "spw"])
@pytest.mark.parametrize("source", ["mic3", "umic3", "sic2"])
def test_pw_bytes(inputs, monkeypatch, capsys, source, flags):
    out = inputs / "pw.json"
    assert_same_bytes(monkeypatch, capsys,
                      ["pw", "--in", inputs / f"{source}.json", *flags,
                       "--out", out], out)


@pytest.mark.parametrize("suite, source", [
    ("theorem1", "umic3"), ("theorem1", "sic3"),
    ("theorem2", "umic3"), ("theorem2", "sic3"),
])
def test_verify_stdout_bytes(inputs, monkeypatch, capsys, suite, source):
    assert_same_bytes(monkeypatch, capsys,
                      ["verify", suite, "--in", inputs / f"{source}.json"])


@pytest.mark.parametrize("mode, basis", [
    ("probs", "mic3"), ("quasi", "wootters3"), ("split", "umic3"),
])
def test_represent_stdout_bytes(inputs, monkeypatch, capsys, mode, basis):
    assert_same_bytes(monkeypatch, capsys,
                      ["represent", "--state", inputs / "rho3.json",
                       "--basis", inputs / f"{basis}.json", "--mode", mode])


@pytest.mark.parametrize("argv", [
    ["sic", "--d", "3"], ["wootters", "--d", "6"],
], ids=["hesse-sic", "wootters6"])
def test_gamma_csv_bytes(tmp_path, monkeypatch, capsys, argv):
    basis, csv_path = tmp_path / "basis.json", tmp_path / "gamma.csv"
    assert main(["construct", *argv, "--out", str(basis)]) == 0
    capsys.readouterr()
    assert_same_bytes(monkeypatch, capsys,
                      ["verify", "triple", "--in", basis,
                       "--gamma-csv", csv_path], csv_path)
    assert csv_path.read_bytes().startswith(b"j,k,l,re,im\r\n0,0,0,")


def _edge_matrix():
    """Signed zeros, integral and extreme floats in both parts."""
    edge = np.empty((2, 2), dtype=complex)
    edge.real = [[0.5, -0.0], [1e17, 1.0]]
    edge.imag = [[-0.0, 1 / 3], [5e-324, -1e16]]
    return edge


def test_file_writer_bytes(tmp_path):
    rho = random_density(4, np.random.default_rng(11))
    edge = _edge_matrix()
    edge_basis = SimpleNamespace(dim=2, label="edge",
                                 elements=np.stack([edge, -edge, edge.T]))
    fid = _edge_matrix().reshape(-1)
    for value, ours, reference in (
        (edge_basis, write_basis, write_basis_reference),
        (wootters_wigner(3), write_basis, write_basis_reference),
        (rho, write_state, write_state_reference),
        (edge, write_state, write_state_reference),
        (rho[0], write_fiducial, write_fiducial_reference),
        (fid, write_fiducial, write_fiducial_reference),
    ):
        ours(value, tmp_path / "a.json")
        reference(value, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() \
            == (tmp_path / "b.json").read_bytes()


EDGE_FLOATS = [-0.0, 0.0, 1.0, 1e17, -1e16, 4239135355719758.0, 1 / 3,
               5e-324, np.float32(0.1)]


@pytest.mark.parametrize("payload", [
    EDGE_FLOATS,
    {"values": np.array(EDGE_FLOATS[:-1]), "f32": np.float32(0.1)},
    {"pairs": [[x, -x] for x in EDGE_FLOATS], "z": complex(-0.0, 1e17)},
    {"n": 3, "i": np.int64(-7), "b": np.bool_(True), "none": None,
     "s": "d=3 \"x\"", "t": (1.0, 2), "nested": {"x": [np.float64(-1e16)]}},
], ids=["floats", "array", "pairs", "scalars"])
def test_payload_bytes(payload):
    assert dumps_json(payload) == dumps_json_reference(payload)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_floats_refused_by_both(value):
    for dumps in (dumps_json, dumps_json_reference):
        with pytest.raises(ValueError, match="non-finite"):
            dumps([value])
