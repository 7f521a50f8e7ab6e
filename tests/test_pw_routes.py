"""principal_wigner's two routes, run inline or with the sqrt(Phi) check
route on the worker thread: the same numbers, the same errors in the same
order, and a forked child that starts its own worker."""

import multiprocessing
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from quasibasis import wigner
from quasibasis.bases import MeasureBasis
from quasibasis.constructions import random_mic, tensor_basis
from quasibasis.operators import SingularOperatorError
from quasibasis.wigner import principal_wigner

PATHS = {"inline": False, "concurrent": True}


def force_path(monkeypatch, concurrent):
    """Fix the gate and count the jobs handed to the worker."""
    submitted = []
    real_submit = wigner._submit

    def counting_submit(*args):
        submitted.append(args[0])
        return real_submit(*args)

    monkeypatch.setattr(wigner, "_concurrent", lambda n: concurrent)
    monkeypatch.setattr(wigner, "_submit", counting_submit)
    return submitted


def zero_weight_raw():
    """A d = 6 measure basis whose first element is exactly traceless: its
    diagonal is replaced by (1/8, -1/8, 0, ...), and the difference moved
    to the second element so the sum stays I."""
    E = np.array(random_mic(6, 1).elements)
    traceless = E[0].copy()
    np.fill_diagonal(traceless, [0.125, -0.125, 0, 0, 0, 0])
    E[1] += E[0] - traceless
    E[0] = traceless
    return E


@pytest.mark.parametrize("make", [
    lambda: random_mic(6, 1),
    lambda: random_mic(8, 2),
    lambda: tensor_basis(random_mic(4, 1), random_mic(3, 1)),
], ids=["random_mic(6,1)", "random_mic(8,2)", "tensor_4x3"])
def test_concurrent_path_is_bit_identical(monkeypatch, make):
    raw = np.array(make().elements)
    results = {}
    for path, concurrent in PATHS.items():
        submitted = force_path(monkeypatch, concurrent)
        results[path] = principal_wigner(MeasureBasis(raw))
        assert len(submitted) == int(concurrent)
    inline, concurrent = results["inline"], results["concurrent"]
    assert np.array_equal(inline.basis.elements, concurrent.basis.elements)
    assert np.array_equal(inline.via_polar, concurrent.via_polar)
    assert np.array_equal(inline.via_sqrtphi, concurrent.via_sqrtphi)
    assert inline.cross_error == concurrent.cross_error
    assert wigner._worker[0] == os.getpid()


def child_computes_pw():
    res = principal_wigner(MeasureBasis(np.array(random_mic(6, 1).elements)))
    assert res.cross_error <= wigner.CROSS_CHECK_TOL


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
# Python 3.12+ warns on forking a threaded process; the fork is the test.
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*:DeprecationWarning")
def test_forked_child_starts_its_own_worker(monkeypatch):
    force_path(monkeypatch, True)
    principal_wigner(MeasureBasis(np.array(random_mic(6, 2).elements)))
    assert wigner._worker[0] == os.getpid()
    child = multiprocessing.get_context("fork").Process(
        target=child_computes_pw)
    child.start()
    child.join(timeout=60)
    if child.exitcode is None:  # waiting on the parent's worker: deadlock
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_concurrent_callers_share_one_worker(monkeypatch):
    raws = [np.array(random_mic(6, seed).elements) for seed in range(6)]
    force_path(monkeypatch, False)
    expected = [principal_wigner(MeasureBasis(raw)).via_sqrtphi
                for raw in raws]
    force_path(monkeypatch, True)
    monkeypatch.setattr(wigner, "_worker", None)  # the first use races
    served_by = set()
    real_born_sqrt = wigner._born_sqrt

    def recording_born_sqrt(G, weights):
        served_by.add(threading.get_ident())
        return real_born_sqrt(G, weights)

    monkeypatch.setattr(wigner, "_born_sqrt", recording_born_sqrt)
    mismatches = []
    start = threading.Barrier(len(raws))

    def caller(raw, want):
        start.wait(timeout=60)
        for _ in range(5):
            got = principal_wigner(MeasureBasis(raw)).via_sqrtphi
            if not np.array_equal(got, want):
                mismatches.append(got)

    callers = [threading.Thread(target=caller, args=pair)
               for pair in zip(raws, expected)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert mismatches == []
    assert len(served_by) == 1 and threading.get_ident() not in served_by


@pytest.mark.parametrize("concurrent", PATHS.values(), ids=PATHS)
def test_check_route_error_propagates_unchanged(monkeypatch, concurrent):
    raw = np.array(random_mic(6, 3).elements)
    force_path(monkeypatch, concurrent)
    failure = RuntimeError("check route failed")

    def failing_born_sqrt(G, weights):
        raise failure

    real_born_sqrt = wigner._born_sqrt
    monkeypatch.setattr(wigner, "_born_sqrt", failing_born_sqrt)
    with pytest.raises(RuntimeError) as info:
        principal_wigner(MeasureBasis(raw))
    assert info.value is failure
    # the worker survives a failed job
    monkeypatch.setattr(wigner, "_born_sqrt", real_born_sqrt)
    assert principal_wigner(MeasureBasis(raw)).cross_error \
        <= wigner.CROSS_CHECK_TOL


@pytest.mark.parametrize("concurrent", PATHS.values(), ids=PATHS)
def test_zero_weight_rejected_before_either_route(monkeypatch, capfd,
                                                  concurrent):
    basis = MeasureBasis(zero_weight_raw())
    assert basis.weights.min() == 0.0
    submitted = force_path(monkeypatch, concurrent)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SingularOperatorError) as info:
            principal_wigner(basis)
    assert str(info.value) == (
        "zero-weight element (min trace 0.000e+00); the Loewdin "
        "factorization divides by the weights"
    )
    assert submitted == [] and caught == []
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("env, cpus, expected", [
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True),
    ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, 4, True),
    ({}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 2, False),
    ({"MKL_NUM_THREADS": "4"}, 2, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False),
], ids=["openblas1", "omp1_mkl1", "unpinned", "one_var_not_1", "mkl4",
        "one_cpu"])
def test_gate_observes_blas_pinning_and_cores(monkeypatch, env, cpus,
                                              expected):
    for var in wigner._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert wigner._concurrent(wigner._CONCURRENT_MIN_N) is expected
    assert wigner._concurrent(wigner._CONCURRENT_MIN_N - 1) is False
