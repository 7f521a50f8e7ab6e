import csv
import json

import numpy as np
import pytest

from quasibasis.cli import main
from quasibasis.constructions import (
    builtin_sic,
    random_unbiased_mic,
    sic_gram,
    wootters_wigner,
)
from quasibasis.serialize import read_basis, write_basis, write_fiducial, write_state
from quasibasis.bases import gram


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_construct_sic_writes_valid_basis(tmp_path, capsys):
    out = tmp_path / "sic2.json"
    code, doc = run_json(
        capsys, "construct", "sic", "--d", "2", "--out", str(out)
    )
    assert code == 0 and doc["status"] == "ok"
    cls = doc["payload"]["classification"]
    assert cls["is_mic"] and cls["is_unbiased"] and cls["is_rank1"]
    loaded = read_basis(out)
    assert len(loaded) == 4
    np.testing.assert_allclose(gram(loaded), sic_gram(2), atol=1e-15)


def test_construct_round_trip_classification(tmp_path, capsys):
    out = tmp_path / "w3.json"
    code, doc = run_json(
        capsys, "construct", "wootters", "--d", "3", "--out", str(out)
    )
    assert code == 0
    assert doc["payload"]["classification"]["is_wigner"]
    reread = read_basis(out).classify()
    assert reread.is_wigner and not reread.is_mic


def test_construct_wootters_composite(tmp_path, capsys):
    out = tmp_path / "w6.json"
    code, doc = run_json(
        capsys, "construct", "wootters", "--d", "6", "--out", str(out)
    )
    assert code == 0
    assert doc["payload"]["dimension"] == 6
    assert doc["payload"]["classification"]["is_wigner"]


def test_construct_collinear(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    out = tmp_path / "anti.json"
    code, doc = run_json(
        capsys, "construct", "collinear", "--in", str(sic), "--t", "-1",
        "--out", str(out),
    )
    assert code == 0
    assert doc["payload"]["classification"]["is_mic"]
    np.testing.assert_allclose(
        read_basis(out).elements,
        np.eye(2) / 2 - builtin_sic(2).elements,
        atol=1e-15,
    )


def test_construct_from_fiducial(tmp_path, capsys):
    fid = tmp_path / "fid.json"
    write_fiducial(np.array([0, 1, -1]) / np.sqrt(2), fid)
    out = tmp_path / "hesse.json"
    code, doc = run_json(
        capsys, "construct", "sic", "--fiducial", str(fid), "--out", str(out)
    )
    assert code == 0 and doc["payload"]["dimension"] == 3


def test_construct_random_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        code, _ = run_json(
            capsys, "construct", "random", "--variant", "unbiased-mic",
            "--d", "3", "--seed", "42", "--out", str(out),
        )
        assert code == 0
    assert out1.read_text() == out2.read_text()


def test_construct_usage_error(tmp_path, capsys):
    code, doc = run_json(
        capsys, "construct", "sic", "--out", str(tmp_path / "x.json")
    )
    assert code == 2 and doc["status"] == "error"


def test_construct_bad_dimension(tmp_path, capsys):
    code, doc = run_json(
        capsys, "construct", "sic", "--d", "7", "--out", str(tmp_path / "x.json")
    )
    assert code == 2
    assert "no built-in SIC" in doc["payload"]["message"]


def test_pw_matches_closed_form(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    out = tmp_path / "pw.json"
    code, doc = run_json(capsys, "pw", "--in", str(sic), "--out", str(out))
    assert code == 0
    assert doc["diagnostics"][0]["name"] == "cross_error"
    assert doc["diagnostics"][0]["value"] <= 1e-8
    s = np.sqrt(3)
    expected = (s / 2) * 2 * builtin_sic(2).elements + (1 - s) / 4 * np.eye(2)
    np.testing.assert_allclose(read_basis(out).elements, expected, atol=1e-12)


def test_pw_fixed_point_file_identical(tmp_path, capsys):
    w3 = tmp_path / "w3.json"
    write_basis(wootters_wigner(3), w3)
    out = tmp_path / "pw3.json"
    code, _ = run_json(capsys, "pw", "--in", str(w3), "--out", str(out))
    assert code == 0
    np.testing.assert_allclose(
        read_basis(out).elements, wootters_wigner(3).elements, atol=1e-12
    )


def test_pw_shifted(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    out = tmp_path / "spw.json"
    code, _ = run_json(
        capsys, "pw", "--in", str(sic), "--shifted", "--out", str(out)
    )
    assert code == 0
    s = np.sqrt(3)
    expected = -(s / 2) * 2 * builtin_sic(2).elements + (1 + s) / 4 * np.eye(2)
    np.testing.assert_allclose(read_basis(out).elements, expected, atol=1e-12)


def test_pw_rejects_tol_flag(tmp_path, capsys):
    # pw has no tolerance to override; the flag is an argparse usage error
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    with pytest.raises(SystemExit) as exc:
        main(["pw", "--in", str(sic), "--out", str(tmp_path / "pw.json"),
              "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["theorem1", "theorem2"])
def test_verify_theorems_pass_on_sic(tmp_path, capsys, suite):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    code, doc = run_json(capsys, "verify", suite, "--in", str(sic))
    assert code == 0 and doc["payload"]["passed"]


def test_verify_theorem2_values(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    code, doc = run_json(capsys, "verify", "theorem2", "--in", str(sic))
    assert code == 0
    assert doc["payload"]["is_sic"]
    assert doc["payload"]["sic_lower"] == pytest.approx(2 - np.sqrt(3))
    assert doc["payload"]["sic_upper"] == pytest.approx(2 + np.sqrt(3))


def test_verify_theorem1_rejects_biased(tmp_path, capsys):
    from quasibasis.constructions import random_mic

    biased = tmp_path / "biased.json"
    write_basis(random_mic(2, 9), biased)
    code, doc = run_json(capsys, "verify", "theorem1", "--in", str(biased))
    assert code == 2 and doc["status"] == "error"


def test_verify_collinear(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    code, doc = run_json(
        capsys, "verify", "collinear", "--in", str(sic), "--t", "0.7,-0.7"
    )
    assert code == 0
    names = [c["name"] for c in doc["payload"]["clauses"]]
    assert "pw_match[t=0.7]" in names and "pw_match[t=-0.7]" in names


def test_verify_collinear_fails_with_absurd_tol(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    code, doc = run_json(
        capsys, "verify", "collinear", "--in", str(sic), "--t", "0.7",
        "--tol", "1e-30",
    )
    assert code == 1 and doc["status"] == "error"
    assert not doc["payload"]["passed"]


def test_verify_collinear_conditioned_unbiased_mic(tmp_path, capsys):
    # Gram condition ~4e3, max |Phi| ~1.3e3: Phi and sqrt(Phi) from the
    # cached SVD meet the default absolute 1e-9 identity tolerance
    path = tmp_path / "umic4.json"
    write_basis(random_unbiased_mic(4, 1), path)
    code, doc = run_json(
        capsys, "verify", "collinear", "--in", str(path), "--t", "0.5,-0.5"
    )
    assert code == 0 and doc["payload"]["passed"]


def test_verify_triple_wootters_with_csv(tmp_path, capsys):
    w3 = tmp_path / "w3.json"
    write_basis(wootters_wigner(3), w3)
    csv_path = tmp_path / "gamma.csv"
    code, doc = run_json(
        capsys, "verify", "triple", "--in", str(w3),
        "--gamma-csv", str(csv_path),
    )
    assert code == 0
    assert doc["payload"].get("is_wootters")
    names = [c["name"] for c in doc["payload"]["clauses"]]
    assert "affine_area_match" in names
    with open(csv_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["j", "k", "l", "re", "im"]
    assert len(rows) == 1 + 9**3


def test_verify_triple_sic_relations(tmp_path, capsys):
    sic = tmp_path / "sic3.json"
    write_basis(builtin_sic(3), sic)
    code, doc = run_json(capsys, "verify", "triple", "--in", str(sic))
    assert code == 0
    names = [c["name"] for c in doc["payload"]["clauses"]]
    assert "sic_relation_plus" in names and "sic_relation_minus" in names


def test_verify_negativity(tmp_path, capsys):
    w3 = tmp_path / "pw3.json"
    from quasibasis.wigner import principal_wigner

    write_basis(principal_wigner(builtin_sic(3)).basis, w3)
    code, doc = run_json(capsys, "verify", "negativity", "--in", str(w3))
    assert code == 0
    assert doc["payload"]["ceiling_negativity"] == pytest.approx(1 / 9, abs=1e-9)


def test_verify_negativity_rejects_mic(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    code, doc = run_json(capsys, "verify", "negativity", "--in", str(sic))
    assert code == 2


def test_represent_probs_garbage_state(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    state = tmp_path / "garbage.json"
    write_state(np.eye(2) / 2, state)
    code, doc = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(sic),
        "--mode", "probs",
    )
    assert code == 0
    np.testing.assert_allclose(doc["payload"]["values"], [0.25] * 4)


def test_represent_quasi_sums_to_one(tmp_path, capsys):
    w3 = tmp_path / "w3.json"
    write_basis(wootters_wigner(3), w3)
    state = tmp_path / "pure.json"
    psi = np.zeros(3, dtype=complex)
    psi[0] = 1.0
    write_state(np.outer(psi, psi.conj()), state)
    code, doc = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(w3),
        "--mode", "quasi",
    )
    assert code == 0
    values = np.array(doc["payload"]["values"])
    assert values.sum() == pytest.approx(1.0, abs=1e-10)
    assert doc["payload"]["negativity"] >= 0


def test_represent_split_refuses_biased(tmp_path, capsys):
    from quasibasis.constructions import random_mic

    biased = tmp_path / "biased.json"
    write_basis(random_mic(2, 9), biased)
    state = tmp_path / "garbage.json"
    write_state(np.eye(2) / 2, state)
    code, doc = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(biased),
        "--mode", "split",
    )
    assert code == 2
    assert "unbiased" in doc["payload"]["message"]


def test_represent_split_csv(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    state = tmp_path / "garbage.json"
    write_state(np.eye(2) / 2, state)
    code, out = run(
        capsys, "represent", "--state", str(state), "--basis", str(sic),
        "--mode", "split", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["index", "value"]
    assert len(rows) == 5


def test_represent_dimension_mismatch(tmp_path, capsys):
    w3 = tmp_path / "w3.json"
    write_basis(wootters_wigner(3), w3)
    state = tmp_path / "qubit.json"
    write_state(np.eye(2) / 2, state)
    code, doc = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(w3),
        "--mode", "quasi",
    )
    assert code == 2
    assert "dimension mismatch" in doc["payload"]["message"]


def test_pw_rejects_non_finite_entry(tmp_path, capsys):
    path = tmp_path / "nan.json"
    write_basis(builtin_sic(2), path)
    doc = json.loads(path.read_text())
    doc["elements"][2][0][1][0] = float("nan")
    path.write_text(json.dumps(doc))
    code, out = run_json(
        capsys, "pw", "--in", str(path), "--out", str(tmp_path / "pw.json")
    )
    assert code == 2
    message = out["payload"]["message"]
    assert "element 2" in message and "non-finite" in message


def test_verify_triple_above_d5_is_usage_error(tmp_path, capsys):
    w6 = tmp_path / "w6.json"
    code, _ = run_json(
        capsys, "construct", "wootters", "--d", "6", "--out", str(w6)
    )
    assert code == 0
    code, doc = run_json(capsys, "verify", "triple", "--in", str(w6))
    assert code == 2 and doc["status"] == "error"
    assert "d=6" in doc["payload"]["message"]


def test_missing_file_is_usage_error(capsys):
    code, doc = run_json(capsys, "verify", "theorem1", "--in", "missing.json")
    assert code == 2 and doc["status"] == "error"


def test_threads_env_var_is_honored(tmp_path):
    import subprocess, sys, os

    env = dict(os.environ, QUASIBASIS_THREADS="1")
    out = tmp_path / "sic.json"
    proc = subprocess.run(
        [sys.executable, "-m", "quasibasis.cli", "construct", "sic",
         "--d", "2", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    probe = subprocess.run(
        [sys.executable, "-c",
         "import quasibasis, os; print(os.environ['OMP_NUM_THREADS'])"],
        capture_output=True, text=True, env=env,
    )
    assert probe.stdout.strip() == "1"


def test_verify_triple_on_generic_mic(tmp_path, capsys):
    from quasibasis.constructions import random_mic

    mic = tmp_path / "mic.json"
    write_basis(random_mic(2, 3), mic)
    code, doc = run_json(capsys, "verify", "triple", "--in", str(mic))
    assert code == 0
    names = [c["name"] for c in doc["payload"]["clauses"]]
    assert names == ["cyclic_symmetry", "conjugation_symmetry", "sum_rule"]
