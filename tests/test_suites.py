"""The verify suites called in-process: each library result is exactly what
`quasibasis verify` prints, and every suite can fail and reject input."""

import json

import pytest

from quasibasis import (
    builtin_sic,
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


@pytest.mark.parametrize("ts", [[], (), iter(())], ids=["list", "tuple", "iter"])
def test_collinear_rejects_empty_ts(ts):
    with pytest.raises(ValueError, match="at least one t"):
        verify_collinear(builtin_sic(2), ts)


def test_collinear_rejects_t_zero():
    with pytest.raises(ValueError,
                       match="t = 0 is excluded from the collinear family"):
        verify_collinear(builtin_sic(2), [0.5, 0.0])


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
