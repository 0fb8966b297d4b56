"""Path samplers: determinism, stationarity, the moment condition, probes."""

import dataclasses
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.signal import lfilter

import rcuniv as rc
from rcuniv.processes import path_rng


# ---------------------------------------------------------------------------
# splittable path RNG


def test_path_rng_keying():
    a = path_rng(1, 0).uniform(size=4)
    b = path_rng(1, 0).uniform(size=4)
    c = path_rng(1, 1).uniform(size=4)
    d = path_rng(2, 0).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _fresh_rng(seed, path):
    """The stream path_rng must reproduce: a new Philox keyed (seed << 64) | path."""
    return np.random.Generator(np.random.Philox(key=(seed << 64) | path))


def _draw(rng, how):
    return rng.standard_normal(70) if how == "normal" else rng.uniform(-2.0, 3.0, size=9)


@pytest.mark.parametrize("how", ["normal", "uniform"])
@pytest.mark.parametrize("path", [0, 1, 2**40])
@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
def test_path_rng_matches_fresh_philox(seed, path, how):
    # leave the shared generator mid-buffer with a spare 32-bit word first
    path_rng(7, 3).integers(0, 10, size=3, dtype=np.uint32)
    np.testing.assert_array_equal(_draw(path_rng(seed, path), how),
                                  _draw(_fresh_rng(seed, path), how))


def test_path_rng_is_one_generator_per_thread():
    first = path_rng(0, 0)
    assert path_rng(5, 9) is first
    other = []
    worker = threading.Thread(target=lambda: other.append(path_rng(0, 0)))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert other[0] is not first


def test_path_rng_interleaved_threads_get_the_serial_streams():
    paths, threads = 400, 4
    got = {}
    start = threading.Barrier(threads)

    def run(k):
        start.wait()
        for i in range(k, paths, threads):
            rng = path_rng(11, i)
            got[i] = (rng.standard_normal(5), rng.uniform(size=3))

    workers = [threading.Thread(target=run, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    for i in range(paths):
        rng = _fresh_rng(11, i)
        np.testing.assert_array_equal(got[i][0], rng.standard_normal(5))
        np.testing.assert_array_equal(got[i][1], rng.uniform(size=3))


def test_sample_paths_deterministic_and_prefix_stable():
    s = rc.iid_gaussian(2)
    full = rc.sample_paths(s, T=6, M=10, seed=42)
    again = rc.sample_paths(s, T=6, M=10, seed=42)
    head = rc.sample_paths(s, T=6, M=3, seed=42)
    np.testing.assert_array_equal(full, again)
    # path i never depends on how many other paths were requested
    np.testing.assert_array_equal(full[:3], head)


def test_sample_paths_shapes_and_offset():
    s = rc.iid_gaussian(1)
    data = rc.sample_paths(s, T=4, M=7, seed=0)
    assert data.shape == (7, 4, 1)
    shifted = rc.sample_paths(s, T=4, M=3, seed=0, path_offset=2)
    np.testing.assert_array_equal(shifted, data[2:5])


@pytest.mark.parametrize("sampler", [rc.iid_gaussian(1), rc.garch11(0.1, 0.1, 0.8)],
                         ids=["iid", "garch"])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3, 1.0, True])
def test_sample_paths_rejects_seeds_outside_64_bits(sampler, seed):
    # a seed fills one 64-bit key word, so 2**64 would repeat seed 0's streams
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        rc.sample_paths(sampler, 5, 3, seed)
    rc.sample_paths(sampler, 5, 3, 2**64 - 1)


# ---------------------------------------------------------------------------
# iid families


def test_gaussian_moments():
    s = rc.iid_gaussian(1, mean=0.5, std=2.0)
    x = rc.sample_paths(s, T=10, M=2000, seed=3).ravel()
    assert abs(x.mean() - 0.5) < 3.0 * 2.0 / math.sqrt(x.size)
    assert abs(x.std() - 2.0) < 0.05


def test_uniform_support_strict():
    s = rc.iid_uniform_bounded(-0.25, 1.5, n=3)
    x = rc.sample_paths(s, T=8, M=500, seed=4)
    assert x.min() >= -0.25 and x.max() <= 1.5


def test_lognormal_log_is_gaussian():
    s = rc.iid_lognormal(1, mu=0.3, sigma=0.8)
    x = rc.sample_paths(s, T=10, M=2000, seed=5).ravel()
    assert np.all(x > 0)
    logs = np.log(x)
    assert abs(logs.mean() - 0.3) < 3.0 * 0.8 / math.sqrt(x.size)
    assert abs(logs.std() - 0.8) < 0.02


_IID_ORACLES = {
    # each kind's marginal as the one numpy expression per path it was drawn with
    "iid_gaussian": (rc.iid_gaussian(2, mean=-0.5, std=1.5),
                     lambda rng, shape: -0.5 + 1.5 * rng.standard_normal(shape)),
    "iid_uniform_bounded": (rc.iid_uniform_bounded(-0.75, 2.0, n=2),
                            lambda rng, shape: rng.uniform(-0.75, 2.0, size=shape)),
    "iid_lognormal": (rc.iid_lognormal(2, mu=0.3, sigma=0.8),
                      lambda rng, shape: np.exp(0.3 + 0.8 * rng.standard_normal(shape))),
}


@pytest.mark.parametrize("kind", sorted(_IID_ORACLES))
def test_iid_paths_match_a_per_path_draw_oracle(kind):
    s, oracle = _IID_ORACLES[kind]
    seed, offset, T, M = 2**63 + 9, 40, 7, 25
    want = np.stack([oracle(_fresh_rng(seed, offset + i), (T, 2)) for i in range(M)])
    got = rc.sample_paths(s, T, M, seed, path_offset=offset)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


# ---------------------------------------------------------------------------
# dependent families


def test_arma_validation():
    with pytest.raises(ValueError):
        rc.arma(ar=(1.2,))  # AR root inside the unit circle
    with pytest.raises(ValueError):
        rc.arma(ma=(-1.0,))  # MA root on the unit circle
    rc.arma(ar=(0.5,), ma=(0.3,))  # fine


@pytest.mark.parametrize("ar, ma, M", [
    ((0.5,), (0.3,), 30),  # the valid case above
    ((0.5,), (), 30),
    ((), (0.3,), 30),
    ((0.6, -0.2), (0.4, 0.25, 0.1), 30),
    ((), (0.4, 0.25, 0.1, 0.05, 0.3), 30),
    ((0.6, -0.2), (0.4,), 4200),  # more paths than one block
], ids=["ar0-ma0", "ar1-ma1", "ar2-ma2", "ar3-ma3", "ar4-ma4", "block_edge"])
def test_arma_paths_match_scipy_lfilter_bit_for_bit(ar, ma, M):
    s = rc.arma(ar=ar, ma=ma, std=1.5)
    T, seed = 8, 5
    total = s.burn_in() + T
    eps = np.stack([1.5 * rc.processes.path_rng(seed, i).standard_normal(total)
                    for i in range(M)])
    series = lfilter(np.r_[1.0, ma], np.r_[1.0, [-c for c in ar]], eps, axis=1)
    data = rc.sample_paths(s, T, M, seed)
    np.testing.assert_array_equal(data[:, :, 0], series[:, -T:][:, ::-1])


def test_ar1_stationary_variance_and_autocorr():
    phi = 0.5
    s = rc.arma(ar=(phi,))
    data = rc.sample_paths(s, T=2, M=6000, seed=6)
    x0, x1 = data[:, 0, 0], data[:, 1, 0]
    var_target = 1.0 / (1.0 - phi**2)
    assert abs(np.var(x0) - var_target) < 0.1
    corr = np.corrcoef(x0, x1)[0, 1]
    assert abs(corr - phi) < 0.05


def test_ma1_autocorr():
    theta = 0.5
    s = rc.arma(ma=(theta,))
    data = rc.sample_paths(s, T=3, M=6000, seed=7)
    corr1 = np.corrcoef(data[:, 0, 0], data[:, 1, 0])[0, 1]
    corr2 = np.corrcoef(data[:, 0, 0], data[:, 2, 0])[0, 1]
    assert abs(corr1 - theta / (1.0 + theta**2)) < 0.05
    assert abs(corr2) < 0.05


@pytest.mark.parametrize("kind, params", [
    ("iid_gaussian", {"mu": 3.0}),
    ("iid_uniform_bounded", {"a_min": 0.0, "a_max": 1.0, "mean": 0.5}),
    ("iid_lognormal", {"std": 2.0}),
    ("arma", {"ar": [0.5], "sigma": 1.0}),
    ("garch11", {"omega": 0.1, "alpha": 0.1, "beta": 0.8, "mu": 0.0}),
])
def test_sampler_rejects_params_of_another_kind(kind, params):
    n = 1 if kind in ("arma", "garch11") else 2
    with pytest.raises(ValueError, match=rf"^unknown keys \[.+\] in {kind} params$"):
        rc.ProcessSampler(kind, n, params)


@pytest.mark.parametrize("kind, params", [
    ("iid_gaussian", {"std": math.nan}),
    ("iid_gaussian", {"mean": -math.inf}),
    ("iid_uniform_bounded", {"a_min": 0.0, "a_max": math.inf}),
    ("iid_uniform_bounded", {"a_min": -1e308, "a_max": 1e308}),  # finite, but not a_max - a_min
    ("iid_lognormal", {"mu": math.nan}),
    ("arma", {"ar": [0.5, math.nan]}),
    ("arma", {"ma": [math.inf]}),
    ("arma", {"ar": 0.5}),  # not a sequence
    ("garch11", {"omega": 0.1, "alpha": math.nan, "beta": 0.8}),
    ("garch11", {"omega": 0.1, "alpha": 0.1, "beta": False}),
    ("iid_gaussian", {"std": "1.0"}),
    ("iid_gaussian", {"std": 10**400}),  # an int past float range
])
def test_sampler_rejects_non_finite_or_non_real_params(kind, params):
    n = 1 if kind in ("arma", "garch11") else 2
    with pytest.raises(ValueError):
        rc.ProcessSampler(kind, n, params)


def test_garch_validation():
    with pytest.raises(ValueError):
        rc.garch11(0.1, 0.5, 0.5)  # alpha + beta = 1 not stationary
    with pytest.raises(ValueError):
        rc.garch11(0.0, 0.1, 0.8)
    with pytest.raises(ValueError):
        rc.garch11(0.1, -0.1, 0.8)


@pytest.mark.parametrize("make, message", [
    (lambda: rc.iid_gaussian(std="2"), "std must be a finite number > 0, got '2'"),
    (lambda: rc.iid_gaussian(std=True), "std must be a finite number > 0, got True"),
    (lambda: rc.iid_lognormal(sigma=True), "sigma must be a finite number > 0, got True"),
    (lambda: rc.iid_uniform_bounded("0", "1"), "a_min must be a finite number, got '0'"),
    (lambda: rc.garch11(True, 0.1, 0.8), "omega must be a finite number > 0, got True"),
    (lambda: rc.arma(ar=5), "ar must be a sequence of finite reals, got 5"),
], ids=["gaussian_str_std", "gaussian_bool_std", "lognormal_bool_sigma", "uniform_str_bounds",
        "garch_bool_omega", "arma_scalar_ar"])
def test_sampler_factories_leave_the_checks_to_the_sampler(make, message):
    # a factory that cast its arguments first would build these samplers
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_sampler_stores_floats_once_checked():
    s = rc.arma(ar=[np.float64(0.5)], ma=[0], std=2)
    assert s.params == {"ar": (0.5,), "ma": (0.0,), "std": 2.0}
    assert all(type(v) is float for v in (*s.params["ar"], *s.params["ma"], s.params["std"]))
    assert type(rc.garch11(1, 0, 0).params["omega"]) is float


def test_garch_stationary_variance_and_fat_tails():
    s = rc.garch11(0.1, 0.1, 0.8)
    data = rc.sample_paths(s, T=3, M=8000, seed=8)
    x0 = data[:, 0, 0]
    # unconditional variance omega / (1 - alpha - beta) = 1
    assert abs(np.var(x0) - 1.0) < 0.1
    assert stats.kurtosis(x0, fisher=False) > 3.1
    # volatility clustering: squared values correlate across one lag
    c = np.corrcoef(data[:, 0, 0] ** 2, data[:, 1, 0] ** 2)[0, 1]
    assert c > 0.05


def _garch_full_array(s, T, M, seed, path_offset=0):
    """GARCH(1,1) windows simulated over full (M, burn_in + T) arrays: the oracle."""
    burn = s.burn_in()
    total = burn + T
    p = s.params
    eps = np.empty((M, total))
    for i in range(M):
        eps[i] = path_rng(seed, path_offset + i).standard_normal(total)
    omega, alpha, beta = p["omega"], p["alpha"], p["beta"]
    series = np.empty((M, total))
    var = np.full(M, omega / (1.0 - alpha - beta))
    for t in range(total):
        z = np.sqrt(var) * eps[:, t]
        series[:, t] = z
        var = omega + alpha * z**2 + beta * var
    return series[:, burn:][:, ::-1, None]


def _block_paths(s, T):
    return rc.processes._BLOCK_VALUES // (s.burn_in() + T)


@pytest.mark.parametrize("budget", [None, 3 * 1003, 1], ids=["default", "3_paths", "1_path"])
def test_garch_paths_match_full_array_oracle(monkeypatch, budget):
    s = rc.garch11(0.1, 0.1, 0.8)
    T, offset, seed = 3, 123, 2**63 + 5
    if budget is not None:
        monkeypatch.setattr(rc.processes, "_BLOCK_VALUES", budget)
    M = 2 * _block_paths(s, T) + 7 if budget is None else 10
    data = rc.sample_paths(s, T, M, seed, path_offset=offset)
    np.testing.assert_array_equal(data, _garch_full_array(s, T, M, seed, offset))


_GARCH, _ARMA = rc.garch11(0.1, 0.1, 0.8), rc.arma(ar=(0.5,), ma=(0.3,))


def _peak_bytes(s, T, M):
    """tracemalloc peak of one sample_paths call."""
    tracemalloc.start()
    try:
        rc.sample_paths(s, T, M, seed=0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("s", [_GARCH, _ARMA], ids=["garch11", "arma"])
def test_dependent_paths_memory_does_not_grow_with_M(s):
    # sample_paths promises that memory beyond the (M, T, n) result grows
    # neither with M nor with the worker count, so the peaks are compared net
    # of the result.  tracemalloc slows the per-path draws, so this takes a
    # few seconds; it has no time bound.  Full (M, burn_in + 3) arrays would
    # make the first net peak about 38x the second.
    def beyond_result(M):
        return _peak_bytes(s, 3, M) - M * 3 * 8

    assert beyond_result(40_000) <= 1.1 * beyond_result(2 * _block_paths(s, 3))


def test_garch_paths_peak_within_one_noise_block():
    # 2048 paths of burn-in 1000 + T 40: one 8 MiB noise block (1008 paths),
    # the result, and 1 MiB for the kept window and the per-path vectors; a
    # buffer for all 2048 paths' noise would be 17 MB
    T, M = 40, 2048
    assert _peak_bytes(_GARCH, T, M) < (8 << 20) + M * T * 8 + (1 << 20)


@pytest.mark.parametrize("s", [_ARMA, rc.arma(ma=(0.3,))], ids=["arma", "ma_only"])
def test_arma_keeps_only_the_emitted_window(s):
    # the filtered burn-in is never stored, so ARMA needs no more than GARCH
    assert _peak_bytes(s, 3, 20_000) <= 1.1 * _peak_bytes(_GARCH, 3, 20_000)


def _arma_oracle(s, T, M, seed, path_offset=0):
    """ARMA windows from scipy's lfilter over the paths' full noise arrays."""
    p = s.params
    total = s.burn_in() + T
    eps = np.stack([p["std"] * path_rng(seed, path_offset + i).standard_normal(total)
                    for i in range(M)])
    series = lfilter(np.r_[1.0, p["ma"]], np.r_[1.0, [-c for c in p["ar"]]], eps, axis=1)
    return series[:, -T:][:, ::-1, None]


@pytest.mark.parametrize("extra", ["two_blocks", "one_block"])
@pytest.mark.parametrize("s, oracle", [(_GARCH, _garch_full_array), (_ARMA, _arma_oracle)],
                         ids=["garch11", "arma"])
def test_dependent_paths_do_not_depend_on_worker_count(monkeypatch, s, oracle, extra):
    T, offset, seed = 3, 123, 2**63 + 5
    rows = _block_paths(s, T)  # one worker's block
    M = 2 * rows + 7 if extra == "two_blocks" else rows + 1
    # the oracle in chunks of 2000 paths, to bound the test's own memory
    want = np.concatenate([oracle(s, T, min(2000, M - a), seed, offset + a)
                           for a in range(0, M, 2000)])
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        np.testing.assert_array_equal(rc.sample_paths(s, T, M, seed, path_offset=offset), want)


def test_dependent_path_blocks_draw_on_many_threads_under_thread_switching(monkeypatch):
    # two 300-path blocks, each drawn by 8 workers in 64-path tasks under a
    # tiny switch interval; a draw written to another row, or a recursion
    # that read the buffer before its draws ended, would mix their paths
    T, M, seed = 3, 600, 9
    monkeypatch.setenv("RCUNIV_WORKERS", "8")
    monkeypatch.setattr(rc.processes, "_BLOCK_VALUES", 300 * (_GARCH.burn_in() + T))
    drawn_by = {}

    def recording(stream_seed, path):
        drawn_by[path] = threading.get_ident()
        time.sleep(0)  # hand the GIL to another worker mid-block
        return path_rng(stream_seed, path)

    monkeypatch.setattr(rc.processes, "path_rng", recording)
    got = []
    runner = threading.Thread(target=lambda: got.append(rc.sample_paths(_GARCH, T, M, seed)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(drawn_by) == list(range(M))
    for block in (range(0, 300), range(300, 600)):
        assert len({drawn_by[i] for i in block}) > 1
    np.testing.assert_array_equal(got[0], _garch_full_array(_GARCH, T, M, seed))


@pytest.mark.parametrize("s, oracle", [(_GARCH, _garch_full_array), (_ARMA, _arma_oracle)],
                         ids=["garch11", "arma"])
def test_dependent_path_recursion_runs_once_per_block_on_the_calling_thread(monkeypatch, s, oracle):
    # 3 workers draw the noise, but each block's recursion runs once, over
    # the whole block, on the thread that called sample_paths
    simulate, calls = rc.processes._simulate, []

    def recording(sampler, eps, burn):
        calls.append((threading.get_ident(), len(eps)))
        return simulate(sampler, eps, burn)

    T, M, seed = 3, 9, 11
    monkeypatch.setenv("RCUNIV_WORKERS", "3")
    monkeypatch.setattr(rc.processes, "_simulate", recording)
    # 6-path blocks: one full block and a 3-path remainder
    monkeypatch.setattr(rc.processes, "_BLOCK_VALUES", 6 * (s.burn_in() + T))
    got = rc.sample_paths(s, T, M, seed)
    me = threading.get_ident()
    assert calls == [(me, 6), (me, 3)]
    np.testing.assert_array_equal(got, oracle(s, T, M, seed))


@pytest.mark.parametrize("s", [_GARCH, _ARMA], ids=["garch11", "arma"])
def test_dependent_paths_memory_does_not_grow_with_workers(monkeypatch, s):
    M = 2 * _block_paths(s, 3) + 7
    peaks = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        peaks[workers] = _peak_bytes(s, 3, M)
    # the noise budget is per call, not per worker
    assert peaks["2"] <= 1.05 * peaks["1"]
    assert peaks["3"] <= 1.05 * peaks["1"]


def test_burn_in_scales_with_memory():
    assert rc.garch11(0.1, 0.1, 0.8).burn_in() == 1000
    assert rc.arma(ar=(0.99,)).burn_in() > 4000
    assert rc.iid_gaussian(1).burn_in() == 0


# ---------------------------------------------------------------------------
# exponential moment condition, decided per sampler kind


@pytest.mark.parametrize("s, holds", [
    (rc.iid_gaussian(1), True),
    (rc.iid_uniform_bounded(-1.0, 1.0), True),
    (rc.iid_lognormal(1), False),
    (rc.iid_lognormal(1, mu=-5.0, sigma=0.1), False),
    (rc.arma(ar=(0.9,)), True),  # the Monte Carlo screen read suspect_infinite
    (rc.arma(ar=(0.5,), ma=(0.3,)), True),
    (rc.garch11(0.1, 0.01, 0.5), False),  # the screen read plausible
    (rc.garch11(0.1, 0.05, 0.9), False),  # the screen read plausible
    (rc.garch11(0.1, 0.1, 0.8), False),
    (rc.garch11(0.1, 0.0, 0.5), True),  # iid N(0, omega / (1 - beta))
], ids=lambda v: getattr(v, "kind", None))
def test_moment_verdict_per_kind(s, holds):
    diag = rc.exp_moment_check(s)
    assert diag.verdict is (rc.MomentVerdict.PLAUSIBLE if holds
                            else rc.MomentVerdict.SUSPECT_INFINITE)


def test_moment_check_draws_no_path(monkeypatch):
    def refuse(*a, **k):
        raise AssertionError("exp_moment_check drew a path")

    monkeypatch.setattr(rc.processes, "sample_paths", refuse)
    monkeypatch.setattr(rc.processes, "path_rng", refuse)
    for s in (rc.iid_gaussian(2), rc.iid_uniform_bounded(0.0, 1.0), rc.iid_lognormal(1),
              rc.arma(ar=(0.5,)), rc.garch11(0.1, 0.1, 0.8), rc.garch11(0.1, 0.0, 0.8)):
        rc.exp_moment_check(s)


@pytest.mark.parametrize("sigma", [0.1, 1.0])
def test_moment_screen_flags_lognormal(sigma):
    diag = rc.exp_moment_check(rc.iid_lognormal(1, sigma=sigma))
    assert diag.verdict is rc.MomentVerdict.SUSPECT_INFINITE


@pytest.mark.parametrize("half_width", [0.1, 1.0])
def test_moment_screen_passes_bounded(half_width):
    diag = rc.exp_moment_check(rc.iid_uniform_bounded(-half_width, half_width))
    assert diag.verdict is rc.MomentVerdict.PLAUSIBLE


def test_moment_diagnostic_fields():
    diag = rc.exp_moment_check(rc.iid_gaussian(1))
    assert [f.name for f in dataclasses.fields(diag)] == ["verdict", "reason"]
    assert diag.verdict == "plausible" and rc.MomentVerdict.SUSPECT_INFINITE == "suspect_infinite"
    for s in (rc.iid_gaussian(1), rc.iid_uniform_bounded(0.0, 1.0), rc.iid_lognormal(1),
              rc.arma(ar=(0.5,)), rc.garch11(0.1, 0.1, 0.8), rc.garch11(0.1, 0.0, 0.8)):
        reason = rc.exp_moment_check(s).reason
        assert reason and "\n" not in reason


# ---------------------------------------------------------------------------
# shift invariance probe


def test_probe_constant_exact():
    spec = rc.constant(-2.0)
    out = rc.shift_invariance_probe(
        rc.iid_gaussian(1), spec, p=2.0, shifts=(0, -3), T=4, M=50, seed=14
    )
    assert set(out) == {0, -3}
    for est in out.values():
        assert est.value == 2.0 and est.stderr == 0.0


def test_probe_stationary_agreement():
    spec = rc.geometric_ma(0.5)
    out = rc.shift_invariance_probe(
        rc.iid_gaussian(1), spec, p=2.0, shifts=(0, -4, -8), T=30, M=4000, seed=15
    )
    base = out[0]
    for t, est in out.items():
        assert abs(est.value - base.value) <= 3.0 * (est.stderr + base.stderr)


def test_probe_rejects_positive_shift():
    spec = rc.constant(1.0)
    with pytest.raises(ValueError):
        rc.shift_invariance_probe(
            rc.iid_gaussian(1), spec, p=2.0, shifts=(1,), T=4, M=10, seed=0
        )


@pytest.mark.parametrize("bad, message", [
    (dict(seed=-1), "seed must be an integer in [0, 2**64)"),
    (dict(seed=2**64 + 3), "seed must be an integer in [0, 2**64)"),
    (dict(seed=3.0), "seed must be an integer in [0, 2**64)"),
    (dict(M=1), "M must be an integer >= 2, got 1"),
    (dict(M=50.0), "M must be an integer >= 2, got 50.0"),
    (dict(T=0), "T must be an integer >= 1, got 0"),
    (dict(T=4.5), "T must be an integer >= 1, got 4.5"),
    (dict(shifts=(0, -2.7)), "shifts must be integers <= 0"),
    (dict(shifts=(0, False)), "shifts must be integers <= 0"),
], ids=["seed_negative", "seed_past_2_to_64", "seed_float", "M_1", "M_float", "T_0", "T_float",
        "shift_fraction", "shift_bool"])
def test_probe_checks_numbers_before_any_draw(monkeypatch, bad, message):
    calls = []
    monkeypatch.setattr(rc.processes, "sample_paths", lambda *a, **k: calls.append(a))
    kw = dict(p=2.0, shifts=(0, -3), T=4, M=50, seed=14)
    with pytest.raises(ValueError, match=re.escape(message)):
        rc.shift_invariance_probe(rc.iid_gaussian(1), rc.constant(2.0), **{**kw, **bad})
    assert calls == []


def test_probe_deterministic():
    spec = rc.geometric_ma(0.5)
    kw = dict(p=2.0, shifts=(0, -2), T=10, M=200, seed=16)
    a = rc.shift_invariance_probe(rc.iid_gaussian(1), spec, **kw)
    b = rc.shift_invariance_probe(rc.iid_gaussian(1), spec, **kw)
    assert {t: e.value for t, e in a.items()} == {t: e.value for t, e in b.items()}
