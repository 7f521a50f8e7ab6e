"""The verify suites called in-process: each library result is exactly what
`quasibasis verify` prints, and every suite can fail and reject input."""

import json
from collections import Counter

import numpy as np
import pytest

from quasibasis import (
    builtin_sic,
    collinear,
    principal_wigner,
    random_mic,
    random_unbiased_mic,
    triple_products,
    verify_collinear,
    verify_negativity,
    verify_theorem1,
    verify_theorem2,
    verify_triple,
    wootters_wigner,
)
from quasibasis.cli import main
from quasibasis.serialize import dumps_json, write_basis

# suite -> (input basis, library call, extra CLI flags); every one passes
CASES = {
    "theorem1": (lambda: random_unbiased_mic(3, 1),
                 lambda b, **kw: verify_theorem1(b, **kw), []),
    "theorem2": (lambda: builtin_sic(2),
                 lambda b, **kw: verify_theorem2(b, **kw), []),
    "collinear": (lambda: builtin_sic(2),
                  lambda b, **kw: verify_collinear(b, [0.7, -0.7], **kw),
                  ["--t", "0.7,-0.7"]),
    "triple": (lambda: wootters_wigner(3),
               lambda b, **kw: verify_triple(b, **kw), []),
    "negativity": (lambda: principal_wigner(builtin_sic(2)).basis,
                   lambda b, **kw: verify_negativity(b, samples=500, seed=3,
                                                     **kw),
                   ["--samples", "500", "--seed", "3"]),
}


@pytest.mark.parametrize("suite", sorted(CASES))
def test_library_result_is_the_cli_payload(tmp_path, capsys, suite):
    make, call, flags = CASES[suite]
    basis = make()
    path = tmp_path / "basis.json"
    write_basis(basis, path)
    result = call(basis)
    assert result.suite == suite and result.passed
    assert main(["verify", suite, "--in", str(path), *flags]) == 0
    doc = json.loads(capsys.readouterr().out)
    expected = json.loads(dumps_json({
        "suite": suite, "passed": True, "clauses": result.clauses,
        **result.extras,
    }))
    assert doc["status"] == "ok"
    assert doc["payload"] == expected
    assert doc["diagnostics"] == [
        {"name": c["name"], "value": c["value"]} for c in expected["clauses"]
    ]


@pytest.mark.parametrize("suite", sorted(CASES))
def test_every_suite_fails_at_tiny_tol(suite):
    make, call, _ = CASES[suite]
    result = call(make(), tol=1e-30)
    assert not result.passed
    # every clause takes tol: the sandwich and bound clauses as -tol, the
    # collinear identities scaled by their largest predicted entry;
    # negativity's fixed margin compares against 0
    assert all(abs(c["tolerance"]) < 1e-20 for c in result.clauses)


def test_fixed_margins_ignore_tol():
    result = verify_theorem2(random_unbiased_mic(3, 1), tol=1e-30)
    margin = {c["name"]: c["tolerance"] for c in result.clauses}
    assert margin["non_sic_exceeds"] == 1e-6 and result.passed
    pw = principal_wigner(builtin_sic(2)).basis
    result = verify_negativity(pw, samples=100, tol=1.0)
    assert result.clauses[0]["name"] == "sampling_not_above_spectral"
    assert result.clauses[0]["tolerance"] == 0.0


def test_triple_reuses_the_given_products():
    w3 = wootters_wigner(3)
    trip = triple_products(w3)
    assert verify_triple(w3, trip) == verify_triple(w3)
    trip.gamma[0, 0, 0] += 1e-6  # a corrupted Gamma is what gets checked
    failed = {c["name"] for c in verify_triple(w3, trip).clauses
              if not c["pass"]}
    assert "affine_area_match" in failed


def test_triple_sic_relations_read_the_given_products():
    sic = builtin_sic(2)
    trip = triple_products(sic)
    before = trip.gamma.copy()
    assert verify_triple(sic, trip) == verify_triple(sic)
    assert np.array_equal(trip.gamma, before)  # read, never written
    trip.gamma[1, 2, 3] += 1e-6  # the relations check this same Gamma
    failed = {c["name"] for c in verify_triple(sic, trip).clauses
              if not c["pass"]}
    assert {"sic_relation_plus", "sic_relation_minus"} <= failed


@pytest.mark.parametrize("ts", [[], (), iter(())], ids=["list", "tuple", "iter"])
def test_collinear_rejects_empty_ts(ts):
    with pytest.raises(ValueError, match="at least one t"):
        verify_collinear(builtin_sic(2), ts)


def _count_calls(monkeypatch, module, names) -> Counter:
    """Wrap each named function of module; the counter tallies the calls."""
    calls = Counter()
    for name in names:
        def counted(*args, _name=name, _real=getattr(module, name), **kw):
            calls[_name] += 1
            return _real(*args, **kw)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_collinear_rejects_t_zero(monkeypatch):
    import quasibasis.analysis as analysis

    calls = _count_calls(monkeypatch, analysis, (
        "collinear", "principal_wigner", "shifted", "born_matrix"))
    with pytest.raises(ValueError,
                       match="t = 0 is excluded from the collinear family"):
        verify_collinear(builtin_sic(2), [0.5, 0.0])
    assert not calls  # the zero is found before t = 0.5 costs anything


def test_theorem1_rejects_a_biased_mic_before_pw(tmp_path, capsys):
    # a biased MIC whose PW cross-check fails: the scope gate must answer
    mic = collinear(random_mic(3, 1), 1e-3)
    with pytest.raises(ValueError, match="^distance bounds require an "
                                         "unbiased MIC"):
        verify_theorem1(mic)
    path = tmp_path / "biased.json"
    write_basis(mic, path)
    assert main(["verify", "theorem1", "--in", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["payload"]["message"].startswith(
        "distance bounds require an unbiased MIC")


@pytest.mark.parametrize("d", [2, 3])
def test_triple_on_a_sic_forms_each_tensor_once(monkeypatch, d):
    import quasibasis.analysis as analysis
    import quasibasis.constructions as constructions

    sic = builtin_sic(d)
    tensors = _count_calls(monkeypatch, analysis, ["_triple_tensor"])
    grams = _count_calls(monkeypatch, constructions, ["_gram_of"])
    result = verify_triple(sic)
    assert result.passed and result.extras["is_sic"]
    # Gamma of the SIC, of PW and of the shifted PW; the SIC test reads the
    # stored Gram matrix, so it forms no Gram product
    assert tensors["_triple_tensor"] == 3 and not grams


@pytest.mark.parametrize("d", [3, 5])
def test_triple_wootters_gate_builds_no_basis(monkeypatch, d):
    import quasibasis.bases as bases

    w = wootters_wigner(d)
    checks = _count_calls(monkeypatch, bases, ["_structure"])
    result = verify_triple(w)
    assert result.passed and result.extras["is_wootters"]
    # the gate compares the elements with the parity operator's orbit and
    # validates no new basis
    assert not checks


def test_theorem2_rejects_a_biased_mic():
    mic = random_mic(2, 9)
    with pytest.raises(ValueError) as info:
        verify_theorem2(mic)
    assert str(info.value) == (
        f"theorem2 needs an unbiased MIC (got: {mic.classify().summary()})"
    )


def test_negativity_rejects_a_mic():
    with pytest.raises(ValueError) as info:
        verify_negativity(builtin_sic(2))
    assert str(info.value) == "negativity suite needs a Wigner basis"


def test_suite_result_is_frozen():
    result = verify_theorem1(builtin_sic(2))
    with pytest.raises(AttributeError):
        result.suite = "other"


def test_negativity_samples_budget(monkeypatch):
    import quasibasis.analysis as analysis

    pw = principal_wigner(builtin_sic(2)).basis
    # at d = 2 a sample holds a ket (32 bytes) and 4 scores (32 bytes)
    monkeypatch.setattr(analysis, "_SAMPLE_BYTES_BUDGET", 64 * 100)
    assert verify_negativity(pw, samples=100).passed
    with pytest.raises(ValueError) as info:
        verify_negativity(pw, samples=101)
    assert str(info.value) == (
        "101 samples at d=2 need 6464 bytes, over the 6400-byte budget"
    )
