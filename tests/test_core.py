"""Functional evaluation, nilpotent shift algebra, conditional truncation
error, worker threads, and window CSV round trips."""

import functools
import io
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import rcuniv as rc
from rcuniv.core import (
    _run_blocks,
    _worker_count,
    evaluate_functional_batch,
    nilpotent_product,
)
from rcuniv.metrics import lp_norm_of_values
from rcuniv.processes import path_rng


# ---------------------------------------------------------------------------
# functional evaluation


def test_constant_functional():
    spec = rc.constant(3.5).spec
    data = np.random.default_rng(0).normal(size=(1, 5, 1))
    assert rc.evaluate_functional_batch(spec, data)[0] == 3.5


def test_peak_hold_example():
    spec = rc.peak_hold(0.0, 1.0).spec
    data = np.array([[[0.2], [0.9], [0.4]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == 0.9


def test_finite_poly_product_example():
    # q(z) = z_0 * z_{-1} on the window (2, 3)
    spec = rc.finite_poly(1, 1, 2, {(1, 1): 1.0}).spec
    data = np.array([[[2.0], [3.0]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == 6.0


def test_window_too_short_for_memory():
    spec = rc.finite_poly(1, 3, 2, {(1, 0, 0, 0): 1.0}).spec
    with pytest.raises(ValueError):
        rc.evaluate_functional_batch(spec, np.ones((1, 2, 1)))


def test_channel_mismatch_rejected():
    spec = rc.geometric_ma(0.5).spec
    with pytest.raises(ValueError):
        rc.evaluate_functional_batch(spec, np.ones((1, 4, 2)))


def test_batch_matches_single():
    spec = rc.geometric_ma(0.7).spec
    data = np.random.default_rng(1).normal(size=(16, 10, 1))
    batch = rc.evaluate_functional_batch(spec, data)
    # M one-window batches against one batch of M windows
    single = np.concatenate([rc.evaluate_functional_batch(spec, d[None]) for d in data])
    np.testing.assert_allclose(batch, single, rtol=1e-13)


def test_causality_beyond_memory():
    # rows deeper than the declared memory must not affect the value
    spec = rc.finite_poly(1, 1, 2, {(1, 1): 1.0, (2, 0): 0.5}).spec
    rng = np.random.default_rng(2)
    base = rng.normal(size=(6, 1))
    tweaked = base.copy()
    tweaked[2:] = rng.normal(size=(4, 1))
    v0 = rc.evaluate_functional_batch(spec, base[None])[0]
    v1 = rc.evaluate_functional_batch(spec, tweaked[None])[0]
    assert v0 == v1


# ---------------------------------------------------------------------------
# nilpotent shift algebra


def _dense_product(N, indices):
    """A_{j_L} ... A_{j_0} by dense products; A_j has its unit entry at (j+1, j), 1-indexed."""
    shifts = [np.diag(np.arange(1, N) == j, -1).astype(float) for j in indices]
    return functools.reduce(lambda out, A: A @ out, shifts, np.eye(N))


def test_shift_matrix_entries():
    A1 = nilpotent_product(3, [1])
    expected = np.zeros((3, 3))
    expected[1, 0] = 1.0
    np.testing.assert_array_equal(A1, expected)
    with pytest.raises(ValueError):
        nilpotent_product(3, [3])
    with pytest.raises(ValueError):
        nilpotent_product(3, [0])


def test_product_consecutive_run_hits_single_entry():
    # A_2 A_1 in dimension 3: one at row 3, column 1 (1-indexed)
    got = nilpotent_product(3, [1, 2])
    expected = np.zeros((3, 3))
    expected[2, 0] = 1.0
    np.testing.assert_array_equal(got, expected)


def test_product_non_consecutive_vanishes():
    np.testing.assert_array_equal(nilpotent_product(4, [2, 2]), np.zeros((4, 4)))
    np.testing.assert_array_equal(nilpotent_product(4, [1, 3]), np.zeros((4, 4)))


def test_product_single_factor():
    got = nilpotent_product(4, [2])
    expected = np.zeros((4, 4))
    expected[2, 1] = 1.0
    np.testing.assert_array_equal(got, expected)


def test_product_matches_dense_oracle_exhaustive_small():
    from itertools import product as iproduct

    for N in (2, 3, 4):
        for L in (1, 2, 3, 4):
            for idx in iproduct(range(1, N), repeat=L):
                got = nilpotent_product(N, list(idx))
                np.testing.assert_array_equal(got, _dense_product(N, idx))
                consecutive = all(
                    idx[i] == idx[0] + i for i in range(L)
                ) and idx[-1] <= N - 1
                assert got.any() == consecutive


def test_product_rejects_bad_indices():
    with pytest.raises(ValueError):
        nilpotent_product(3, [0])
    with pytest.raises(ValueError):
        nilpotent_product(3, [3])
    with pytest.raises(ValueError):
        nilpotent_product(3, [])


# ---------------------------------------------------------------------------
# conditional truncation error


def test_truncation_error_zero_for_finite_memory():
    spec = rc.finite_poly(1, 1, 2, {(1, 1): 1.0}).spec
    samp = rc.iid_gaussian(1)
    est = rc.truncated_conditional_error(spec, K=1, sampler=samp, p=2.0, M=64, seed=3)
    assert est.value == 0.0 and est.stderr == 0.0
    est = rc.truncated_conditional_error(spec, K=3, sampler=samp, p=2.0, M=64, seed=3)
    assert est.value == 0.0


def test_truncation_error_matches_geometric_closed_form():
    # E[(H - E[H | lags 0..K])^2]^(1/2) = decay^(K+1) / sqrt(1 - decay^2)
    decay = 0.5
    spec = rc.geometric_ma(decay, step_std=1.0).spec
    samp = rc.iid_gaussian(1)
    est = rc.truncated_conditional_error(
        spec, K=3, sampler=samp, p=2.0, M=4000, seed=9, window_length=40
    )
    exact = decay**4 / math.sqrt(1.0 - decay**2)
    assert abs(est.value - exact) <= 3.0 * est.stderr


def test_truncation_error_monotone_in_cutoff():
    spec = rc.geometric_ma(0.6, step_std=1.0).spec
    samp = rc.iid_gaussian(1)
    kw = dict(sampler=samp, p=2.0, M=3000, seed=4, window_length=36)
    e2 = rc.truncated_conditional_error(spec, K=2, **kw)
    e5 = rc.truncated_conditional_error(spec, K=5, **kw)
    assert e5.value <= e2.value + 3.0 * (e2.stderr + e5.stderr)


def test_truncation_error_rejects_dependent_sampler():
    spec = rc.geometric_ma(0.5).spec
    with pytest.raises(ValueError):
        rc.truncated_conditional_error(
            spec, K=1, sampler=rc.garch11(0.1, 0.1, 0.8), p=2.0, M=16, seed=0
        )


def test_truncation_error_input_validation():
    spec = rc.geometric_ma(0.5).spec
    samp = rc.iid_gaussian(1)
    with pytest.raises(ValueError):
        rc.truncated_conditional_error(spec, K=-1, sampler=samp, p=2.0, M=16, seed=0)
    with pytest.raises(ValueError):
        rc.truncated_conditional_error(spec, K=1, sampler=samp, p=2.0, M=1, seed=0)
    with pytest.raises(ValueError, match="channels"):
        # nothing to redraw, but the sampler still has to fit the functional
        rc.truncated_conditional_error(spec, K=3, sampler=rc.iid_gaussian(2), p=2.0, M=16,
                                       seed=0, window_length=4)


_LAWS = {
    # each iid law as the one numpy expression per path it is drawn with
    "iid_gaussian": lambda p, rng, shape: p["mean"] + p["std"] * rng.standard_normal(shape),
    "iid_uniform_bounded": lambda p, rng, shape: rng.uniform(p["a_min"], p["a_max"], size=shape),
    "iid_lognormal": lambda p, rng, shape: np.exp(p["mu"] + p["sigma"] * rng.standard_normal(shape)),
}


def _conditional_error_oracle(spec, K, sampler, p, M, seed, T, R):
    # the estimator's former serial chunk loop, kept as the bit-level reference
    n, deep = sampler.n, T - (K + 1)
    law = functools.partial(_LAWS[sampler.kind], sampler.params)
    chunk = max(1, 2_000_000 // (R * T * n))
    diffs = np.empty(M)
    for start in range(0, M, chunk):
        stop = min(start + chunk, M)
        m = stop - start
        base = np.stack([law(path_rng(seed, i), (T, n)) for i in range(start, stop)])
        rep = np.broadcast_to(base[:, None], (m, R, T, n)).copy()
        for i in range(m):
            rep[i, :, K + 1 :] = law(path_rng(seed, M + start + i), (R, deep, n))
        cond = evaluate_functional_batch(spec, rep.reshape(m * R, T, n)).reshape(m, R)
        diffs[start:stop] = evaluate_functional_batch(spec, base) - cond.mean(axis=1)
    return lp_norm_of_values(diffs, p=p, seed=seed)


def test_truncation_error_matches_serial_loop_for_any_worker_count(monkeypatch):
    # 2_000_000 // (100 inner draws * 40 rows) = 500 paths per chunk: 3 chunks
    spec = rc.geometric_ma(0.5, step_std=1.0).spec
    sampler = rc.iid_gaussian(1)
    oracle = _conditional_error_oracle(spec, 2, sampler, 2.0, 1100, 5, T=40, R=100)
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        est = rc.truncated_conditional_error(spec, K=2, sampler=sampler, p=2.0, M=1100,
                                             seed=5, window_length=40, inner_samples=100)
        assert (est.value, est.stderr) == (oracle.value, oracle.stderr)


def test_truncation_error_matches_serial_loop_on_two_bounded_channels(monkeypatch):
    # trig_product evaluates without BLAS; 1003 paths end in an 11-path task
    spec = rc.trig_product(np.arange(10.0).reshape(5, 2) / 7, sine_lags=(1,)).spec
    sampler = rc.iid_uniform_bounded(-1.0, 2.0, n=2)
    oracle = _conditional_error_oracle(spec, 1, sampler, 2.0, 1003, 9, T=8, R=50)
    assert oracle.value > 0
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        est = rc.truncated_conditional_error(spec, K=1, sampler=sampler, p=2.0, M=1003,
                                             seed=9, window_length=8, inner_samples=50)
        assert (est.value, est.stderr) == (oracle.value, oracle.stderr)


def test_truncation_error_with_nothing_to_resample_draws_no_path(monkeypatch):
    calls = []

    def counted(seed, path):
        calls.append(path)
        return path_rng(seed, path)

    monkeypatch.setattr(rc.processes, "path_rng", counted)
    spec = rc.geometric_ma(0.5, step_std=1.0).spec
    sampler = rc.iid_gaussian(1)
    est = rc.truncated_conditional_error(spec, K=39, sampler=sampler, p=2.0, M=100, seed=1,
                                         window_length=40, inner_samples=10)
    assert (est.value, est.stderr, est.M) == (0.0, 0.0, 100)
    assert calls == []
    # one resampled lag: each path draws its base and its replicas' past
    rc.truncated_conditional_error(spec, K=38, sampler=sampler, p=2.0, M=100, seed=1,
                                   window_length=40, inner_samples=10)
    assert sorted(calls) == list(range(200))


def test_truncation_error_memory_does_not_grow_with_paths(monkeypatch):
    # a (chunk, R, T, n) replica array of 500 paths would take 16 MB here
    monkeypatch.setenv("RCUNIV_WORKERS", "2")
    spec = rc.geometric_ma(0.5, step_std=1.0).spec
    sampler = rc.iid_gaussian(1)

    def peak(M):
        tracemalloc.start()
        try:
            rc.truncated_conditional_error(spec, K=2, sampler=sampler, p=2.0, M=M, seed=3,
                                           window_length=40, inner_samples=100)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(16)  # first-call allocations (thread pool, caches) are not the estimator's
    small, large = peak(400), peak(4000)
    # per-path values grow with M: 8 bytes in diffs and a few reduction temporaries
    assert large <= small + 256 * 1024
    assert large < 4 * 1024 * 1024


# ---------------------------------------------------------------------------
# worker threads


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize("env, workers", [
    ({}, 1),  # BLAS free to use all 8 cores
    ({"OPENBLAS_NUM_THREADS": "1"}, 8),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4),
    ({"MKL_NUM_THREADS": "4"}, 2),
    ({"OMP_NUM_THREADS": "3"}, 2),
    ({"OPENBLAS_NUM_THREADS": "16"}, 1),
    ({"OPENBLAS_NUM_THREADS": "0"}, 1),
    ({"OPENBLAS_NUM_THREADS": "many"}, 1),
    ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, 8),
    ({"RCUNIV_WORKERS": "3", "OPENBLAS_NUM_THREADS": "1"}, 3),
    ({"RCUNIV_WORKERS": "3"}, 3),
    ({"RCUNIV_WORKERS": "0"}, 1),
    ({"RCUNIV_WORKERS": "x", "OPENBLAS_NUM_THREADS": "1"}, 1),
])
def test_default_worker_count_is_cpus_per_blas_thread(monkeypatch, env, workers):
    for var in ("RCUNIV_WORKERS",) + _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _worker_count() == workers


@pytest.mark.parametrize("env, workers", [
    ({}, 8),  # the draws never call BLAS, so a threaded BLAS takes no core
    ({"OPENBLAS_NUM_THREADS": "1"}, 8),
    ({"OPENBLAS_NUM_THREADS": "2"}, 8),
    ({"OMP_NUM_THREADS": "16"}, 8),
    ({"RCUNIV_WORKERS": "3"}, 3),
    ({"RCUNIV_WORKERS": "0"}, 1),
])
def test_blas_free_worker_count_is_every_cpu(monkeypatch, env, workers):
    for var in ("RCUNIV_WORKERS",) + _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _worker_count(blas=False) == workers


def test_worker_count_without_affinity_uses_cpu_count(monkeypatch):
    for var in ("RCUNIV_WORKERS",) + _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 6)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert _worker_count() == 3


def test_run_blocks_fills_every_block_once_under_thread_switching(monkeypatch):
    # more workers than cores and a tiny switch interval: a block taken
    # twice or dropped would show in the record
    monkeypatch.setenv("RCUNIV_WORKERS", "8")
    seen = []
    runner = threading.Thread(target=_run_blocks,
                              args=(lambda a, b: seen.append((a, b)), 20_003, 10))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(seen) == [(s, min(s + 10, 20_003)) for s in range(0, 20_003, 10)]


# ---------------------------------------------------------------------------
# CSV round trip


def test_window_csv_round_trip_exact(tmp_path):
    vals = np.array(
        [
            [math.pi, 1.0 / 3.0],
            [-0.0, 1e-300],
            [12345.6789, -2.5e17],
        ]
    )
    path = tmp_path / "w.csv"
    rc.write_window_csv(vals, path)
    back = rc.read_window_csv(path)
    assert back.dtype == np.float64 and back.shape == (3, 2)
    np.testing.assert_array_equal(back, vals)
    assert np.signbit(back[1, 0])
    header = path.read_text().splitlines()[0]
    assert header == "lag,ch0,ch1"


def test_window_csv_rejects_bad_lag_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("lag,ch0\n0,1.0\n2,2.0\n")
    with pytest.raises(ValueError):
        rc.read_window_csv(path)


@pytest.mark.parametrize("text", ["", "lag\n0\n1\n", "t,ch0\n0,1.0\n"],
                         ids=["empty", "no_channel", "no_lag"])
def test_window_csv_rejects_a_bad_header(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="expected header"):
        rc.read_window_csv(path)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_window_csv_rejects_non_finite_entries(tmp_path, entry):
    path = tmp_path / "bad.csv"
    path.write_text(f"lag,ch0\n0,1.0\n1,{entry}\n")
    with pytest.raises(ValueError, match="finite"):
        rc.read_window_csv(path)


def test_window_csv_writer_rejects_non_2d_data(tmp_path):
    for data in (np.ones(4), np.ones((1, 4, 1))):
        with pytest.raises(ValueError, match="2-d"):
            rc.write_window_csv(data, tmp_path / "w.csv")
    assert not (tmp_path / "w.csv").exists()
