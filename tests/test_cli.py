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
    # cached SVD meet the 1e-9 identity tolerance even without its scaling
    path = tmp_path / "umic4.json"
    write_basis(random_unbiased_mic(4, 1), path)
    code, doc = run_json(
        capsys, "verify", "collinear", "--in", str(path), "--t", "0.5,-0.5"
    )
    assert code == 0 and doc["payload"]["passed"]


def test_verify_collinear_identity_tolerance_scales_with_phi(tmp_path, capsys):
    # Gram condition 6.4e5, max |Phi(L^t)| 5.4e5: the Phi identity holds
    # to ~1e-13 relative, beyond an absolute 1e-9 but within
    # 1e-9 * max |pred|
    path = tmp_path / "umic4.json"
    write_basis(random_unbiased_mic(4, 4), path)
    code, doc = run_json(
        capsys, "verify", "collinear", "--in", str(path), "--t", "0.5,-0.5"
    )
    assert code == 0 and doc["payload"]["passed"]


def test_verify_collinear_catches_relative_phi_error(tmp_path, capsys,
                                                      monkeypatch):
    import dataclasses

    import quasibasis.cli as cli

    path = tmp_path / "umic4.json"
    write_basis(random_unbiased_mic(4, 4), path)
    calls = [0]
    real_born_matrix = cli.born_matrix

    def perturbed(basis):
        born = real_born_matrix(basis)
        calls[0] += 1
        if calls[0] == 1:  # Phi(L) itself, which the prediction uses
            return born
        return dataclasses.replace(born, phi=born.phi * (1 + 1e-7))

    monkeypatch.setattr(cli, "born_matrix", perturbed)
    code, doc = run_json(
        capsys, "verify", "collinear", "--in", str(path), "--t", "0.5,-0.5"
    )
    assert code == 1 and calls[0] == 3
    failed = {c["name"] for c in doc["payload"]["clauses"] if not c["pass"]}
    assert failed == {"phi_identity[t=0.5]", "phi_identity[t=-0.5]"}


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


def test_verify_negativity_random_pw(tmp_path, capsys):
    # Haar sampling alone falls 0.023 short of the spectral value here
    from quasibasis.wigner import principal_wigner

    path = tmp_path / "pw4.json"
    write_basis(principal_wigner(random_unbiased_mic(4, 1)).basis, path)
    code, doc = run_json(capsys, "verify", "negativity", "--in", str(path))
    assert code == 0 and doc["status"] == "ok"


def test_verify_negativity_rejects_mic(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    code, doc = run_json(capsys, "verify", "negativity", "--in", str(sic))
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_negativity_rejects_empty_sample(tmp_path, capsys, samples):
    from quasibasis.wigner import principal_wigner

    path = tmp_path / "pw2.json"
    write_basis(principal_wigner(builtin_sic(2)).basis, path)
    code, doc = run_json(capsys, "verify", "negativity", "--in", str(path),
                         "--samples", samples)
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["message"] == f"--samples must be >= 1, got {samples}"


@pytest.mark.parametrize("argv", [
    ("verify", "collinear", "--t", "0.5,1e7"),
    ("construct", "collinear", "--t", "1e7"),
], ids=["verify", "construct"])
def test_rejected_collinear_member_names_t(tmp_path, capsys, argv):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    out = ["--out", str(tmp_path / "x.json")] if argv[0] == "construct" else []
    code, doc = run_json(capsys, *argv, "--in", str(sic), *out)
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["message"].startswith(
        "collinear member at t=1e+07 is not a measure basis: "
        "linear_independence="
    )
    assert list(doc["payload"]["failures"]) == ["linear_independence"]


def test_rejected_basis_error_reports_failures(tmp_path, capsys):
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({
        "dimension": 2,
        "elements": [[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]] * 4,
    }))
    code, doc = run_json(capsys, "pw", "--in", str(path),
                         "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert list(doc["payload"]) == ["message", "failures"]
    # the singular Gram matrix's infinite condition is null in JSON
    assert doc["payload"]["failures"] == {"sum_to_identity": 1.0,
                                          "linear_independence": None}


def test_error_failures_are_json_floats(tmp_path, capsys):
    # the Hesse SIC with its last element repeated: a finite condition
    # above 2^53, an integral float
    elements = np.array(builtin_sic(3).elements)
    elements[-1] = elements[-2]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({
        "dimension": 3,
        "elements": [[[[z.real, z.imag] for z in row] for row in E]
                     for E in elements],
    }))
    code, doc = run_json(capsys, "pw", "--in", str(path),
                         "--out", str(tmp_path / "x.json"))
    failures = doc["payload"]["failures"]
    assert code == 2
    assert list(failures) == ["sum_to_identity", "linear_independence"]
    assert failures["linear_independence"] >= 2.0**53
    assert all(type(v) is float for v in failures.values())


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


@pytest.mark.parametrize("d", [6, 12])
def test_verify_triple_composite_wootters(tmp_path, capsys, d):
    path = tmp_path / f"w{d}.json"
    code, _ = run_json(
        capsys, "construct", "wootters", "--d", str(d), "--out", str(path)
    )
    assert code == 0
    code, doc = run_json(capsys, "verify", "triple", "--in", str(path))
    assert code == 0 and doc["status"] == "ok"


def test_verify_triple_over_byte_budget_is_usage_error(tmp_path, capsys):
    path = tmp_path / "t16.json"
    code, _ = run_json(
        capsys, "construct", "tensorhedron", "--n", "4", "--out", str(path)
    )
    assert code == 0
    code, doc = run_json(capsys, "verify", "triple", "--in", str(path))
    assert code == 2 and doc["status"] == "error"
    message = doc["payload"]["message"]
    assert "d=16" in message and "536870912 bytes" in message


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


def _malformed_basis(path, dimension=None, entry=None):
    """A qubit SIC file with its "dimension" replaced by the raw JSON text
    ``dimension``, or its first entry replaced by ``entry``."""
    write_basis(builtin_sic(2), path)
    doc = json.loads(path.read_text())
    if entry is not None:
        doc["elements"][0][0][0] = entry
    if dimension is not None:
        doc["dimension"] = "@dimension@"
    text = json.dumps(doc)
    path.write_text(text.replace('"@dimension@"', str(dimension)))


@pytest.mark.parametrize("dimension, entry", [
    ("null", None), ("[2]", None), ("true", None), ("2.7", None),
    ("1e400", None), ("NaN", None), ("0", None), ("-2", None),
    (None, {"x": 1}), (None, "0.25"), (None, [0.25]),
], ids=["null", "list", "bool", "fractional", "overflow", "nan", "zero",
        "negative", "object_entry", "string_entry", "short_pair"])
def test_pw_malformed_file_is_usage_error(tmp_path, capsys, dimension, entry):
    path = tmp_path / "bad.json"
    _malformed_basis(path, dimension, entry)
    code, doc = run_json(
        capsys, "pw", "--in", str(path), "--out", str(tmp_path / "pw.json")
    )
    assert code == 2 and doc["status"] == "error"
    assert str(path) in doc["payload"]["message"]


@pytest.mark.parametrize("argv", [
    ("construct", "collinear", "--t", "nan"),
    ("construct", "collinear", "--t", "1e300"),
    ("verify", "collinear", "--t", "inf"),
    ("verify", "collinear", "--t", "1e300"),
], ids=["construct-nan", "construct-1e300", "verify-inf", "verify-1e300"])
def test_non_finite_collinear_t_is_usage_error(tmp_path, capsys, argv):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    out = ["--out", str(tmp_path / "x.json")] if argv[0] == "construct" else []
    code, doc = run_json(capsys, *argv, "--in", str(sic), *out)
    assert code == 2 and doc["status"] == "error"
    assert "finite" in doc["payload"]["message"]


def test_verify_triple_tol_reaches_every_clause(tmp_path, capsys):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    _, doc = run_json(capsys, "verify", "triple", "--in", str(sic))
    defaults = {c["name"]: c["tolerance"] for c in doc["payload"]["clauses"]}
    assert defaults == {
        "cyclic_symmetry": 1e-10, "conjugation_symmetry": 1e-10,
        "sum_rule": 1e-9, "sic_relation_plus": 1e-9,
        "sic_relation_minus": 1e-9,
    }
    _, doc = run_json(
        capsys, "verify", "triple", "--in", str(sic), "--tol", "1e-30"
    )
    tols = {c["name"]: c["tolerance"] for c in doc["payload"]["clauses"]}
    assert tols == dict.fromkeys(defaults, 1e-30)
