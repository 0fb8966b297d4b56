"""Path samplers: determinism, stationarity, moment screening, probes."""

import math
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


def test_sample_windows_wraps():
    s = rc.iid_uniform_bounded(-1.0, 1.0, n=2)
    wins = rc.sample_windows(s, T=5, M=3, seed=1)
    assert len(wins) == 3
    assert all(isinstance(w, rc.Window) and w.data.shape == (5, 2) for w in wins)


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


def test_draw_only_for_iid():
    rng = np.random.default_rng(0)
    assert rc.iid_gaussian(2).draw(rng, (3, 2)).shape == (3, 2)
    with pytest.raises(ValueError):
        rc.garch11(0.1, 0.1, 0.8).draw(rng, (3, 1))


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
    ((0.6, -0.2), (0.4,), 4200),  # one block of 4161 paths plus a remainder
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


def test_garch_validation():
    with pytest.raises(ValueError):
        rc.garch11(0.1, 0.5, 0.5)  # alpha + beta = 1 not stationary
    with pytest.raises(ValueError):
        rc.garch11(0.0, 0.1, 0.8)
    with pytest.raises(ValueError):
        rc.garch11(0.1, -0.1, 0.8)


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


def test_garch_moment_screen_matches_chunked_oracle(monkeypatch):
    s, kw = rc.garch11(0.1, 0.1, 0.8), dict(alpha=1.0, K=2, sample_sizes=(2000, 4000, 9000), seed=4)
    assert 9000 > 2 * _block_paths(s, 3)
    diag = rc.exp_moment_check(s, **kw)

    def chunked(s, T, M, seed):  # windows from the oracle, drawn in chunks of paths
        return np.concatenate([_garch_full_array(s, T, min(4000, M - a), seed, a)
                               for a in range(0, M, 4000)])

    monkeypatch.setattr(rc.processes, "sample_paths", chunked)
    assert diag == rc.exp_moment_check(s, **kw)


@pytest.mark.parametrize("s", [rc.garch11(0.1, 0.1, 0.8), rc.arma(ar=(0.5,), ma=(0.3,))],
                         ids=["garch11", "arma"])
def test_dependent_paths_memory_does_not_grow_with_M(s):
    def peak(M):
        tracemalloc.start()
        try:
            rc.sample_paths(s, 3, M, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # full (M, burn_in + 3) arrays would make the first peak about 5x the second
    assert peak(40_000) <= 1.1 * peak(2 * _block_paths(s, 3))


def test_burn_in_scales_with_memory():
    assert rc.garch11(0.1, 0.1, 0.8).burn_in() == 1000
    assert rc.arma(ar=(0.99,)).burn_in() > 4000
    assert rc.iid_gaussian(1).burn_in() == 0


# ---------------------------------------------------------------------------
# exponential moment screen


def test_moment_screen_gaussian_matches_closed_form():
    alpha, K = 0.25, 2
    diag = rc.exp_moment_check(rc.iid_gaussian(1), alpha=alpha, K=K, seed=11)
    assert diag.verdict is rc.MomentVerdict.PLAUSIBLE
    per_lag = 2.0 * math.exp(alpha**2 / 2.0) * stats.norm.cdf(alpha)
    assert diag.estimate == pytest.approx(per_lag ** (K + 1), abs=0.005)


@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_moment_screen_flags_lognormal(alpha):
    diag = rc.exp_moment_check(rc.iid_lognormal(1), alpha=alpha, K=1, seed=12)
    assert diag.verdict is rc.MomentVerdict.SUSPECT_INFINITE


@pytest.mark.parametrize("alpha", [0.1, 1.0])
def test_moment_screen_passes_bounded(alpha):
    diag = rc.exp_moment_check(
        rc.iid_uniform_bounded(-1.0, 1.0), alpha=alpha, K=1, seed=13
    )
    assert diag.verdict is rc.MomentVerdict.PLAUSIBLE


def test_moment_screen_validation():
    with pytest.raises(ValueError):
        rc.exp_moment_check(rc.iid_gaussian(1), alpha=0.0, K=1)
    with pytest.raises(ValueError):
        rc.exp_moment_check(
            rc.iid_gaussian(1), alpha=1.0, K=1, sample_sizes=(100, 100)
        )


def test_moment_diagnostic_fields():
    diag = rc.exp_moment_check(
        rc.iid_gaussian(1), alpha=0.5, K=0, sample_sizes=(2000, 4000, 8000), seed=1
    )
    assert diag.alpha == 0.5 and diag.K == 0
    assert math.isfinite(diag.estimate)
    assert math.isfinite(diag.tail_growth)
    assert diag.hazard_shallow > 0 and diag.hazard_deep > 0


# ---------------------------------------------------------------------------
# shift invariance probe


def test_probe_constant_exact():
    spec = rc.constant(-2.0).spec
    out = rc.shift_invariance_probe(
        rc.iid_gaussian(1), spec, p=2.0, shifts=(0, -3), T=4, M=50, seed=14
    )
    assert set(out) == {0, -3}
    for est in out.values():
        assert est.value == 2.0 and est.stderr == 0.0


def test_probe_stationary_agreement():
    spec = rc.geometric_ma(0.5, step_std=1.0).spec
    out = rc.shift_invariance_probe(
        rc.iid_gaussian(1), spec, p=2.0, shifts=(0, -4, -8), T=30, M=4000, seed=15
    )
    base = out[0]
    for t, est in out.items():
        assert abs(est.value - base.value) <= 3.0 * (est.stderr + base.stderr)


def test_probe_rejects_positive_shift():
    spec = rc.constant(1.0).spec
    with pytest.raises(ValueError):
        rc.shift_invariance_probe(
            rc.iid_gaussian(1), spec, p=2.0, shifts=(1,), T=4, M=10, seed=0
        )


def test_probe_deterministic():
    spec = rc.geometric_ma(0.5).spec
    kw = dict(p=2.0, shifts=(0, -2), T=10, M=200, seed=16)
    a = rc.shift_invariance_probe(rc.iid_gaussian(1), spec, **kw)
    b = rc.shift_invariance_probe(rc.iid_gaussian(1), spec, **kw)
    assert {t: e.value for t, e in a.items()} == {t: e.value for t, e in b.items()}
