import csv
import json
import re

import numpy as np
import pytest

from quasibasis.cli import main
from quasibasis.constructions import (
    builtin_sic,
    random_unbiased_mic,
    sic_gram,
    tensorhedron,
    wootters_wigner,
)
from quasibasis.serialize import read_basis, write_basis, write_fiducial, write_state
from quasibasis.representations import POVMValidationError, validate_povm
from quasibasis.bases import gram
from quasibasis.wigner import principal_wigner


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


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_construct_sic_rejects_bad_tol(tmp_path, capsys, tol):
    fid = tmp_path / "fid.json"
    write_fiducial(np.array([1.0, 1.0, 1.0j]) / np.sqrt(3), fid)
    out = tmp_path / "orbit.json"
    code, doc = run_json(
        capsys, "construct", "sic", "--fiducial", str(fid), "--out", str(out),
        "--tol", tol,
    )
    assert code == 2 and doc["status"] == "error"
    assert "--tol" in doc["payload"]["message"]
    assert not out.exists()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_rejects_bad_tol(tmp_path, capsys, tol):
    mic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), mic)
    code, doc = run_json(
        capsys, "verify", "theorem1", "--in", str(mic), "--tol", tol
    )
    assert code == 2 and doc["status"] == "error"
    assert "--tol" in doc["payload"]["message"]


def test_construct_random_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, doc = run_json(
        capsys, "construct", "random", "--d", "3", "--seed", "-1",
        "--out", str(out),
    )
    assert code == 2 and doc["status"] == "error"
    assert "--seed" in doc["payload"]["message"]
    assert not out.exists()


def test_verify_negativity_rejects_negative_seed(tmp_path, capsys):
    w3 = tmp_path / "w3.json"
    write_basis(wootters_wigner(3), w3)
    code, doc = run_json(
        capsys, "verify", "negativity", "--in", str(w3), "--seed", "-1"
    )
    assert code == 2 and doc["status"] == "error"
    assert "--seed" in doc["payload"]["message"]


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


@pytest.mark.parametrize("argv", [
    ["wootters", "--d", "33"],
    ["random", "--d", "33", "--seed", "1"],
    ["wootters", "--d", "1000003"],
    ["wootters", "--d", "1000000000039"],
    ["tensorhedron", "--n", "6"],
    ["tensorhedron", "--n", "100000"],
    ["sic", "--fiducial", "{fid33}"],
], ids=["wootters33", "random33", "wootters-big-prime", "wootters-huge-prime",
        "tensorhedron6", "tensorhedron-huge", "fiducial33"])
def test_out_of_scope_size_is_usage_error(tmp_path, argv):
    """Each size answers at once: a fresh process killed after 30 s turns a
    hang into a failure instead of a stalled suite."""
    import os, subprocess, sys
    import quasibasis

    fid33 = tmp_path / "fid33.json"
    write_fiducial(np.ones(33) / np.sqrt(33), fid33)
    src = os.path.dirname(os.path.dirname(quasibasis.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "quasibasis.cli", "construct",
         *[a.format(fid33=fid33) for a in argv],
         "--out", str(tmp_path / "x.json")],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert proc.returncode == 2 and proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["status"] == "error"
    assert re.search(r"2 <= d <= 32|1 <= n <= 5", doc["payload"]["message"])
    assert not (tmp_path / "x.json").exists()


def test_memory_error_is_usage_error(tmp_path, capsys, monkeypatch):
    from quasibasis import constructions

    def exhausted(d, seed):
        raise MemoryError

    monkeypatch.setattr(constructions, "random_mic", exhausted)
    code, doc = run_json(
        capsys, "construct", "random", "--d", "3", "--seed", "1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["message"] == "MemoryError"


@pytest.mark.parametrize("argv", [
    ["sic", "--d", "0"],
    ["wootters", "--d", "0"],
    ["random", "--d", "0", "--seed", "1"],
    ["tensorhedron", "--n", "0"],
], ids=["sic", "wootters", "random", "tensorhedron"])
def test_construct_zero_size_is_not_missing(tmp_path, capsys, argv):
    code, doc = run_json(
        capsys, "construct", *argv, "--out", str(tmp_path / "x.json")
    )
    assert code == 2 and doc["status"] == "error"
    message = doc["payload"]["message"]
    assert re.search(r"\b[dn]=0\b", message) and "needs" not in message


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
    # cross_error first, then the output check's residuals
    res = principal_wigner(read_basis(sic))
    assert doc["diagnostics"] == [
        {"name": "cross_error", "value": res.cross_error},
        {"name": "orthogonality_residual",
         "value": res.orthogonality_residual},
        {"name": "bias_deviation", "value": res.bias_deviation},
    ]
    assert res.cross_error <= 1e-8
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


@pytest.mark.parametrize("t", [",,", " "], ids=["commas", "blank"])
def test_verify_collinear_rejects_empty_t_list(tmp_path, capsys, t):
    sic = tmp_path / "sic2.json"
    write_basis(builtin_sic(2), sic)
    code, doc = run_json(
        capsys, "verify", "collinear", "--in", str(sic), "--t", t
    )
    assert code == 2 and doc["status"] == "error"
    assert "--t" in doc["payload"]["message"]


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

    import quasibasis.analysis as analysis

    path = tmp_path / "umic4.json"
    write_basis(random_unbiased_mic(4, 4), path)
    calls = [0]
    real_born_matrix = analysis.born_matrix

    def perturbed(basis):
        born = real_born_matrix(basis)
        calls[0] += 1
        if calls[0] == 1:  # Phi(L) itself, which the prediction uses
            return born
        return dataclasses.replace(born, phi=born.phi * (1 + 1e-7))

    monkeypatch.setattr(analysis, "born_matrix", perturbed)
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
    # the two-qubit tensorhedron with its last element repeated: a finite
    # condition above 2^53, an integral float (its elements are explicit
    # products, so the condition does not move with the orbit kernel)
    elements = np.array(tensorhedron(2).elements)
    elements[-1] = elements[-2]
    path = tmp_path / "repeated.json"
    path.write_text(json.dumps({
        "dimension": 4,
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


def test_represent_split_without_povm_needs_a_mic(tmp_path, capsys):
    w3, mic = tmp_path / "w3.json", tmp_path / "mic.json"
    write_basis(wootters_wigner(3), w3)
    write_basis(random_unbiased_mic(3, 1), mic)
    state = tmp_path / "mixed.json"
    write_state(np.eye(3) / 3, state)
    code, doc = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(w3),
        "--mode", "split",
    )
    assert code == 2 and doc["status"] == "error"
    assert "--povm" in doc["payload"]["message"]
    # the basis's own elements are checked on its cached spectra, with
    # validate_povm's message for the same stack
    with pytest.raises(POVMValidationError) as info:
        validate_povm(np.array(read_basis(w3).elements))
    assert doc["payload"]["message"] == (
        "split mode needs --povm unless the basis is a MIC: the default "
        f"effects are the basis elements ({info.value})")
    code, doc = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(mic),
        "--mode", "split",
    )
    assert code == 0 and doc["status"] == "ok"


def test_represent_validates_state_and_effects_once(tmp_path, capsys,
                                                    monkeypatch):
    from quasibasis.constructions import random_mic

    mic, umic, povm = (tmp_path / f"{n}.json" for n in ("mic", "umic", "povm"))
    write_basis(random_mic(3, 1), mic)
    write_basis(random_unbiased_mic(3, 1), umic)
    write_basis(random_unbiased_mic(3, 2), povm)
    state = tmp_path / "mixed.json"
    write_state(np.eye(3) / 3, state)
    shapes = []
    real_eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    code, _ = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(mic),
        "--mode", "quasi",
    )
    # the basis proves its independence by a Cholesky, not a Gram
    # spectrum, so the one eigvalsh is the state's
    assert code == 0 and shapes == [(3, 3)]
    shapes.clear()
    code, _ = run_json(
        capsys, "represent", "--state", str(state), "--basis", str(umic),
        "--mode", "split", "--povm", str(povm),
    )
    assert code == 0
    assert [s for s in shapes if len(s) == 3] == [(9, 3, 3)]
    assert shapes.count((3, 3)) == 1


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
    import quasibasis

    src = os.path.dirname(os.path.dirname(quasibasis.__file__))
    env = dict(os.environ, QUASIBASIS_THREADS="1", PYTHONPATH=src)
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


IMPORT_PROBE = """
import json, sys
loaded = lambda: "concurrent.futures" in sys.modules
seen = {}
import quasibasis
from quasibasis import wigner
from quasibasis.cli import main
from quasibasis.constructions import random_mic
seen["import"] = loaded()
wigner.principal_wigner(random_mic(4, 1))
seen["pw_d4"] = loaded()
main(["pw", "--in", sys.argv[1], "--out", sys.argv[2]])
seen["cli_pw_d4"] = loaded()
wigner._concurrent = lambda n: True
wigner.principal_wigner(random_mic(6, 1))
seen["pw_d6_overlapped"] = loaded()
print(json.dumps(seen))
"""


def test_only_overlapped_routes_load_concurrent_futures(tmp_path):
    """The CLI's cold start never pays for the executor's import: only a
    principal_wigner call that overlaps its routes loads it."""
    import os, subprocess, sys
    import quasibasis
    from quasibasis.constructions import random_mic

    basis = tmp_path / "mic4.json"
    write_basis(random_mic(4, 2), basis)
    src = os.path.dirname(os.path.dirname(quasibasis.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(basis),
         str(tmp_path / "pw.json")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {"import": False, "pw_d4": False, "cli_pw_d4": False,
                    "pw_d6_overlapped": True}


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


def _unreadable(path, kind):
    """A file json.loads cannot read: a value nested 100000 deep, or bytes
    that are not UTF-8."""
    if kind == "deep":
        path.write_text('{"dimension": 2, "elements": ' + "[" * 100_000
                        + "]" * 100_000 + "}")
    else:
        path.write_bytes(b"\xff\xfe{}")


@pytest.mark.parametrize("kind", ["deep", "not_utf8"])
@pytest.mark.parametrize("command", ["pw", "construct"])
def test_unreadable_file_is_usage_error_naming_it(tmp_path, command, kind):
    import os, subprocess, sys
    import quasibasis

    path = tmp_path / "bad.json"
    _unreadable(path, kind)
    out = str(tmp_path / "out.json")
    argv = (["pw", "--in", str(path), "--out", out] if command == "pw" else
            ["construct", "sic", "--fiducial", str(path), "--out", out])
    src = os.path.dirname(os.path.dirname(quasibasis.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "quasibasis.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "error"
    assert doc["payload"]["message"].startswith(f"{path}: unreadable JSON")


def test_verify_negativity_samples_over_budget_is_usage_error(tmp_path,
                                                               capsys):
    # 12 GB of kets and scores at d = 3: refused before anything is drawn
    w3 = tmp_path / "w3.json"
    write_basis(wootters_wigner(3), w3)
    code, doc = run_json(capsys, "verify", "negativity", "--in", str(w3),
                         "--samples", "100000000")
    assert code == 2 and doc["status"] == "error"
    assert doc["payload"]["message"] == (
        "100000000 samples at d=3 need 12000000000 bytes, over the "
        "268435456-byte budget"
    )


def test_cli_only_reads_calls_and_prints():
    """cli.py imports no numpy and keeps no clause arithmetic: every clause
    is built by the suites in analysis."""
    import ast
    from pathlib import Path
    import quasibasis.cli as cli

    def offences(source):
        found = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                found += [a.name for a in node.names
                          if a.name.split(".")[0] == "numpy"]
            elif isinstance(node, ast.ImportFrom) and node.module:
                found += [node.module] * (node.module.split(".")[0] == "numpy")
            elif (isinstance(node, ast.FunctionDef)
                  and ("clause" in node.name or node.name == "_tol")):
                found.append(node.name)
            elif isinstance(node, ast.Dict):
                found += ["clause dict"] * any(
                    isinstance(k, ast.Constant) and k.value == "pass"
                    for k in node.keys)
        return found

    planted = ("import numpy as np\nfrom numpy.linalg import eigh\n"
               "def _clause(name):\n    return {'name': name, 'pass': True}\n"
               "def _tol(args, default):\n    return default\n")
    assert sorted(offences(planted)) == ["_clause", "_tol", "clause dict",
                                         "numpy", "numpy.linalg"]
    assert offences(Path(cli.__file__).read_text()) == []
