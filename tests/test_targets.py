"""Target catalog: evaluator correctness, truncation bounds, whitelists."""

import math

import numpy as np
import pytest

import rcuniv as rc
from rcuniv import targets


def test_catalog_is_fixed():
    names = [e.name for e in targets.catalog()]
    assert names == [
        "constant",
        "finite_poly",
        "geometric_ma",
        "peak_hold",
        "trig_product",
        "garch_vol",
        "log_sine",
    ]
    assert all(e.integrability_note for e in targets.catalog())


def test_entry_by_name():
    e = targets.entry_by_name("geometric_ma", {"decay": 0.25})
    assert e.spec.params["decay"] == 0.25
    with pytest.raises(ValueError):
        targets.entry_by_name("nope", {})


def test_finite_poly_variable_ordering():
    # stacked lag-major variables: index k*n + i is channel i at lag k
    data = np.array([[[3.0, 4.0], [5.0, 6.0]]])
    ch1_lag0 = rc.finite_poly(2, 1, 1, {(0, 1, 0, 0): 2.0}).spec
    ch0_lag1 = rc.finite_poly(2, 1, 1, {(0, 0, 1, 0): 1.0}).spec
    assert rc.evaluate_functional_batch(ch1_lag0, data)[0] == 8.0
    assert rc.evaluate_functional_batch(ch0_lag1, data)[0] == 5.0


@pytest.mark.parametrize("degree, coefficients, message", [
    (2, {(1, 1, 1): 1.0}, "bad multi-index"),
    (2, {(2, 1): 1.0}, "exceeds degree"),
    (2, {(1, 1): math.nan}, "non-finite coefficient"),
    (-1, {}, "degree must be >= 0"),
    (2.7, {}, "degree must be >= 0 and an integer"),
    (2, {(1.5, 0): 1.0}, "bad multi-index"),
    (2, {(True, 0): 1.0}, "bad multi-index"),
    (2, {(1, 1): "1.0"}, "non-finite coefficient"),
])
def test_finite_poly_rejects_bad_terms_when_built(degree, coefficients, message):
    with pytest.raises(ValueError, match=message):
        rc.finite_poly(1, 1, degree, coefficients)


def test_geometric_ma_manual():
    spec = rc.geometric_ma(0.5).spec
    data = np.array([[[1.0], [2.0], [3.0]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == pytest.approx(2.75, rel=1e-15)


def test_trig_product_manual():
    spec = rc.trig_product(np.array([[1.0], [2.0]]), sine_lags=(0,)).spec
    data = np.array([[[0.3], [0.7]]])
    expected = math.sin(0.3) * math.cos(2.0 * 0.7)
    assert rc.evaluate_functional_batch(spec, data)[0] == pytest.approx(expected, rel=1e-15)


def _garch_vol_recursion(z, omega, alpha, beta):
    # forward recursion from the stationary floor at the oldest lag
    var = omega / (1.0 - beta)
    for zt in z[::-1][:-1]:
        var = omega + alpha * zt**2 + beta * var
    return var


def test_garch_vol_matches_recursion_oracle():
    omega, alpha, beta = 0.1, 0.1, 0.8
    spec = rc.garch_vol(omega, alpha, beta).spec
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = rng.normal(size=40)
        got = rc.evaluate_functional_batch(spec, z[None, :, None])[0]
        want = _garch_vol_recursion(z, omega, alpha, beta)
        assert got == pytest.approx(want, rel=1e-12)


def test_garch_vol_tail_bound_matches_simulation():
    # positive tail terms: E[H_60 - H_10] should sit at the L^1 bound
    entry = rc.garch_vol(0.1, 0.1, 0.8)
    samp = rc.garch11(0.1, 0.1, 0.8)
    data = rc.sample_paths(samp, T=60, M=4000, seed=22)
    full = rc.evaluate_functional_batch(entry.spec, data)
    short = rc.evaluate_functional_batch(entry.spec, np.ascontiguousarray(data[:, :10]))
    diffs = full - short
    assert np.all(diffs >= 0)
    bound = targets.truncation_bound(entry, 10, p=1.0)
    assert bound == pytest.approx(0.067108864, rel=1e-12)
    assert 0.8 * bound < diffs.mean() < 1.2 * bound


def test_log_sine_eval_and_domain():
    spec = rc.log_sine(freq=2.0).spec
    data = np.array([[[2.0], [5.0]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == pytest.approx(
        math.sin(2.0 * math.log(2.0)), rel=1e-15
    )
    with pytest.raises(ValueError):
        rc.evaluate_functional_batch(spec, np.array([[[-1.0]]]))


def test_whitelists():
    targets.check_sampler(rc.peak_hold(0, 1).spec, rc.iid_uniform_bounded(0, 1))
    with pytest.raises(ValueError):
        targets.check_sampler(rc.peak_hold(0, 1).spec, rc.iid_gaussian(1))
    targets.check_sampler(rc.log_sine().spec, rc.iid_lognormal(1))
    with pytest.raises(ValueError):
        targets.check_sampler(rc.log_sine().spec, rc.iid_uniform_bounded(0.5, 2.0))
    # unrestricted targets take anything
    targets.check_sampler(rc.geometric_ma(0.5).spec, rc.garch11(0.1, 0.1, 0.8))


def test_truncation_bound_finite_memory():
    entry = rc.finite_poly(1, 2, 2, {(1, 0, 1): 1.0})
    assert targets.truncation_bound(entry, 3) == 0.0
    assert targets.truncation_bound(entry, 50) == 0.0
    assert targets.truncation_bound(entry, 2) is None
    assert targets.truncation_bound(rc.constant(5.0), 1) == 0.0
    assert targets.truncation_bound(rc.log_sine(), 1) == 0.0


def test_truncation_bound_geometric_frozen():
    # 0.5^20 / (1 - 0.5) is exactly 2^-19
    entry = rc.geometric_ma(0.5, step_bound=1.0)
    assert targets.truncation_bound(entry, 20, p=2.0) == 2.0**-19
    entry_std = rc.geometric_ma(0.5, step_std=1.0)
    assert targets.truncation_bound(entry_std, 20, p=2.0) == pytest.approx(
        2.0**-20 / math.sqrt(0.75), rel=1e-14
    )


def test_truncation_bound_decreasing_in_window():
    entry = rc.geometric_ma(0.9, step_bound=1.0)
    bounds = [targets.truncation_bound(entry, T) for T in (5, 10, 20, 40)]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


def test_peak_hold_bound_beta_moments():
    # excess of the window max over uniform[a, b] is (b-a) * Beta(1, T)
    entry = rc.peak_hold(0.0, 2.0)
    assert targets.truncation_bound(entry, 9, p=1.0) == pytest.approx(0.2, rel=1e-12)
    want = 2.0 * math.sqrt(2.0 / (10.0 * 11.0))
    assert targets.truncation_bound(entry, 9, p=2.0) == pytest.approx(want, rel=1e-12)


def test_random_finite_poly_deterministic():
    a = rc.random_finite_poly(2, 1, 2, seed=5)
    b = rc.random_finite_poly(2, 1, 2, seed=5)
    c = rc.random_finite_poly(2, 1, 2, seed=6)
    assert a.spec.params["coefficients"] == b.spec.params["coefficients"]
    assert a.spec.params["coefficients"] != c.spec.params["coefficients"]
    assert a.spec.memory == 1 and a.spec.n == 2


def test_spec_shapes():
    e = rc.trig_product(np.array([[1.0, 0.5], [0.2, 0.1], [0.0, 1.0]]), sine_lags=(2,))
    assert e.spec.n == 2 and e.spec.memory == 2
    assert rc.garch_vol(0.1, 0.1, 0.8).spec.memory is None
    assert rc.peak_hold(0, 1).spec.memory is None
