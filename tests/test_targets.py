"""Targets: evaluator correctness, truncation bounds, whitelists."""

import math
import re

import numpy as np
import pytest

import rcuniv as rc
from rcuniv import targets
from rcuniv.metrics import lp_norm_of_values


# small params for every factory, and an input law each one allows
_SMALL = {
    "constant": ({"value": 1.5, "n": 2}, rc.iid_gaussian(2)),
    "finite_poly": ({"n": 1, "K": 1, "degree": 2, "coefficients": {(1, 1): 1.0}},
                    rc.iid_gaussian(1)),
    "random_finite_poly": ({"n": 2, "K": 1, "degree": 2, "seed": 3}, rc.iid_gaussian(2)),
    "geometric_ma": ({"decay": 0.5}, rc.iid_gaussian(1)),
    "peak_hold": ({}, rc.iid_uniform_bounded(0.0, 1.0)),
    "trig_product": ({"freqs": [[1.0], [0.7]], "sine_lags": (0,)}, rc.iid_gaussian(1)),
    "garch_vol": ({"omega": 0.1, "alpha": 0.1, "beta": 0.8}, rc.garch11(0.1, 0.1, 0.8)),
    "log_sine": ({}, rc.iid_lognormal(1)),
}


@pytest.mark.parametrize("name", sorted(targets._FACTORIES))
def test_every_factory_returns_an_evaluable_spec(name):
    params, sampler = _SMALL[name]
    spec = targets.entry_by_name(name, params)
    assert isinstance(spec, rc.FunctionalSpec)
    assert spec.kind == ("finite_poly" if name == "random_finite_poly" else name)
    targets.check_sampler(spec, sampler)
    data = rc.sample_paths(sampler, T=4, M=7, seed=2)
    values = rc.evaluate_functional_batch(spec, data)
    assert values.shape == (7,) and np.all(np.isfinite(values))


def test_entry_by_name():
    e = targets.entry_by_name("geometric_ma", {"decay": 0.25})
    assert e.params["decay"] == 0.25
    with pytest.raises(ValueError):
        targets.entry_by_name("nope", {})


def test_finite_poly_variable_ordering():
    # stacked lag-major variables: index k*n + i is channel i at lag k
    data = np.array([[[3.0, 4.0], [5.0, 6.0]]])
    ch1_lag0 = rc.finite_poly(2, 1, 1, {(0, 1, 0, 0): 2.0})
    ch0_lag1 = rc.finite_poly(2, 1, 1, {(0, 0, 1, 0): 1.0})
    assert rc.evaluate_functional_batch(ch1_lag0, data)[0] == 8.0
    assert rc.evaluate_functional_batch(ch0_lag1, data)[0] == 5.0


@pytest.mark.parametrize("degree, coefficients, message", [
    (2, {(1, 1, 1): 1.0}, "bad multi-index"),
    (2, {(2, 1): 1.0}, "exceeds degree"),
    (2, {(1, 1): math.nan}, "non-finite coefficient"),
    (-1, {}, "degree must be an integer >= 0, got -1"),
    (2.7, {}, "degree must be an integer >= 0, got 2.7"),
    (2, {(1.5, 0): 1.0}, "bad multi-index"),
    (2, {(True, 0): 1.0}, "bad multi-index"),
    (2, {(1, 1): "1.0"}, "non-finite coefficient"),
])
def test_finite_poly_rejects_bad_terms_when_built(degree, coefficients, message):
    with pytest.raises(ValueError, match=message):
        rc.finite_poly(1, 1, degree, coefficients)


def test_geometric_ma_manual():
    spec = rc.geometric_ma(0.5)
    data = np.array([[[1.0], [2.0], [3.0]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == pytest.approx(2.75, rel=1e-15)


def test_trig_product_manual():
    spec = rc.trig_product(np.array([[1.0], [2.0]]), sine_lags=(0,))
    data = np.array([[[0.3], [0.7]]])
    expected = math.sin(0.3) * math.cos(2.0 * 0.7)
    assert rc.evaluate_functional_batch(spec, data)[0] == pytest.approx(expected, rel=1e-15)



def test_trig_product_reads_sine_lags_from_any_iterable():
    # a generator is read once: checking it must not leave the sine lags empty
    freqs = [[1.0], [2.0], [0.5]]
    spec = rc.trig_product(freqs, sine_lags=(k for k in (2, 0)))
    assert spec.params["sine_lags"] == (0, 2)
    system, readout = rc.build_nilpotent_trig_sas(freqs, sine_lags=(k for k in (2, 0)))
    data = rc.sample_paths(rc.iid_gaussian(1), 3, 8, seed=1)
    np.testing.assert_allclose(rc.eval_readout(readout, rc.final_states(system, data)),
                               rc.evaluate_functional_batch(spec, data), rtol=1e-12, atol=1e-15)

def test_trig_product_one_channel_form_is_the_column_form():
    flat, column = rc.trig_product([1.0, 2.0], sine_lags=(1,)), rc.trig_product([[1.0], [2.0]], (1,))
    assert (flat.n, flat.memory, flat.params["sine_lags"]) == (column.n, column.memory, (1,))
    np.testing.assert_array_equal(flat.params["freqs"], column.params["freqs"])
    assert flat.params["freqs"].shape == (2, 1)
    assert not flat.params["freqs"].flags.writeable and not column.params["freqs"].flags.writeable


@pytest.mark.parametrize("freqs, sine_lags", [
    ([[True]], ()), ([["1.0"]], ()), ([[1.0], [math.nan]], ()), (np.zeros((0, 1)), ()),
    ([[[1.0]]], ()), ([[1.0], [2.0]], (2,)), ([[1.0]], (0.5,)), ([[1.0]], 5), ([[1.0]], (True,))])
def test_trig_product_and_its_nilpotent_system_refuse_the_same_factors(freqs, sine_lags):
    with pytest.raises(ValueError) as target_error:
        rc.trig_product(freqs, sine_lags)
    with pytest.raises(ValueError, match=f"^{re.escape(str(target_error.value))}$"):
        rc.build_nilpotent_trig_sas(freqs, sine_lags)


@pytest.mark.parametrize("omega, alpha, beta", [
    (0.0, 0.1, 0.8), (0.1, -0.1, 0.8), (0.1, 0.1, True), (0.1, 0.5, 0.5), (math.nan, 0.1, 0.8)])
def test_garch_vol_params_follow_the_garch_sampler_rules(omega, alpha, beta):
    with pytest.raises(ValueError) as sampler_error:
        rc.garch11(omega, alpha, beta)
    with pytest.raises(ValueError, match=f"^{re.escape(str(sampler_error.value))}$"):
        rc.garch_vol(omega, alpha, beta)


def _garch_vol_recursion(z, omega, alpha, beta):
    # forward recursion from the stationary floor at the oldest lag
    var = omega / (1.0 - beta)
    for zt in z[::-1][:-1]:
        var = omega + alpha * zt**2 + beta * var
    return var


def test_garch_vol_matches_recursion_oracle():
    omega, alpha, beta = 0.1, 0.1, 0.8
    spec = rc.garch_vol(omega, alpha, beta)
    rng = np.random.default_rng(21)
    for _ in range(5):
        z = rng.normal(size=40)
        got = rc.evaluate_functional_batch(spec, z[None, :, None])[0]
        want = _garch_vol_recursion(z, omega, alpha, beta)
        assert got == pytest.approx(want, rel=1e-12)


def test_garch_vol_tail_bound_matches_simulation():
    # positive tail terms: E[H_60 - H_10] should sit at the L^1 bound
    spec = rc.garch_vol(0.1, 0.1, 0.8)
    samp = rc.garch11(0.1, 0.1, 0.8)
    data = rc.sample_paths(samp, T=60, M=4000, seed=22)
    full = rc.evaluate_functional_batch(spec, data)
    short = rc.evaluate_functional_batch(spec, np.ascontiguousarray(data[:, :10]))
    diffs = full - short
    assert np.all(diffs >= 0)
    bound = targets.truncation_bound(spec, samp, 10, p=1.0)
    assert bound == pytest.approx(0.067108864, rel=1e-12)
    assert 0.8 * bound < diffs.mean() < 1.2 * bound


def test_log_sine_eval_and_domain():
    spec = rc.log_sine(freq=2.0)
    data = np.array([[[2.0], [5.0]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == pytest.approx(
        math.sin(2.0 * math.log(2.0)), rel=1e-15
    )
    with pytest.raises(ValueError):
        rc.evaluate_functional_batch(spec, np.array([[[-1.0]]]))


def test_whitelists():
    targets.check_sampler(rc.peak_hold(), rc.iid_uniform_bounded(0, 1))
    with pytest.raises(ValueError):
        targets.check_sampler(rc.peak_hold(), rc.iid_gaussian(1))
    targets.check_sampler(rc.log_sine(), rc.iid_lognormal(1))
    with pytest.raises(ValueError):
        targets.check_sampler(rc.log_sine(), rc.iid_uniform_bounded(0.5, 2.0))
    # unrestricted targets take anything
    targets.check_sampler(rc.geometric_ma(0.5), rc.garch11(0.1, 0.1, 0.8))


def test_truncation_bound_finite_memory():
    spec = rc.finite_poly(1, 2, 2, {(1, 0, 1): 1.0})
    samp = rc.iid_gaussian(1)
    assert targets.truncation_bound(spec, samp, 3) == 0.0
    assert targets.truncation_bound(spec, samp, 50) == 0.0
    assert targets.truncation_bound(spec, samp, 2) is None
    assert targets.truncation_bound(rc.constant(5.0), rc.arma(ar=(0.5,)), 1) == 0.0
    assert targets.truncation_bound(rc.log_sine(), rc.iid_lognormal(1), 1) == 0.0


def test_truncation_bound_geometric_frozen():
    # past p = 2 the a.s. bound 1 of uniform[-1, 1] gives 0.5^20 / (1 - 0.5) = 2^-19 exactly
    spec = rc.geometric_ma(0.5)
    assert targets.truncation_bound(spec, rc.iid_uniform_bounded(-1, 1), 20, p=3.0) == 2.0**-19
    # at p <= 2 an iid law gives the exact L^2 norm of the tail
    assert targets.truncation_bound(spec, rc.iid_gaussian(1), 20, p=2.0) == pytest.approx(
        2.0**-20 / math.sqrt(0.75), rel=1e-14
    )
    assert targets.truncation_bound(spec, rc.iid_uniform_bounded(-1, 1), 20, p=1.0) == (
        pytest.approx(2.0**-20 / math.sqrt(3 * 0.75), rel=1e-14))


def test_truncation_bound_decreasing_in_window():
    spec = rc.geometric_ma(0.9)
    samp = rc.iid_uniform_bounded(-1, 1)
    bounds = [targets.truncation_bound(spec, samp, T) for T in (5, 10, 20, 40)]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)


def test_peak_hold_bound_beta_moments():
    # excess of the window max over uniform[a, b] is (b-a) * Beta(1, T)
    spec = rc.peak_hold()
    for samp in (rc.iid_uniform_bounded(0.0, 2.0), rc.iid_uniform_bounded(-3.0, -1.0)):
        assert targets.truncation_bound(spec, samp, 9, p=1.0) == pytest.approx(0.2, rel=1e-12)
        want = 2.0 * math.sqrt(2.0 / (10.0 * 11.0))
        assert targets.truncation_bound(spec, samp, 9, p=2.0) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError, match="requires a sampler"):
        targets.truncation_bound(spec, rc.iid_gaussian(1), 9)


def test_peak_hold_bound_past_lgamma_range_is_the_range_width():
    # load_config accepts any finite p >= 1; lgamma(p + 1) overflows near 1.7e308,
    # and the Beta(1, T) excess lies in [0, 1], so the sound bound is a_max - a_min
    spec = rc.peak_hold()
    assert targets.truncation_bound(spec, rc.iid_uniform_bounded(0, 1), 10, 1.7e308) == 1.0
    assert targets.truncation_bound(spec, rc.iid_uniform_bounded(-1, 2), 10, 1.7e308) == 3.0
    # below the overflow the closed form still holds, and approaches the width
    near = targets.truncation_bound(spec, rc.iid_uniform_bounded(0, 1), 10, 1e300)
    assert near == pytest.approx(1.0, rel=1e-9)


def test_truncation_bound_reads_the_sampler_law():
    # a target no longer carries its own copy of the input law
    gma = rc.geometric_ma(0.9)
    # 0.9^20 * 10 / sqrt(1 - 0.81): the exact L^2 tail under std 10 (a |z| <= 1 bound said 1.22)
    got = targets.truncation_bound(gma, rc.iid_gaussian(1, std=10.0), 20, p=2.0)
    assert got == pytest.approx(0.9**20 * 10.0 / math.sqrt(0.19), rel=1e-14)
    assert got == pytest.approx(2.79, abs=0.005)
    # peak_hold reads the sampler's range (its own [0, 1] default said 0.123)
    got = targets.truncation_bound(rc.peak_hold(), rc.iid_uniform_bounded(0, 5), 10, p=2.0)
    assert got == pytest.approx(0.615, abs=0.001)
    # a nonzero mean enters the L^2 tail as mean / (1 - decay)
    got = targets.truncation_bound(gma, rc.iid_gaussian(1, mean=2.0, std=1.0), 20, p=2.0)
    assert got == pytest.approx(0.9**20 * math.sqrt(1 / 0.19 + 4 / 0.01), rel=1e-14)
    # Gaussian Minkowski past p = 2: ||N(0, 1)||_4 = 3^(1/4)
    got = targets.truncation_bound(gma, rc.iid_gaussian(1, mean=-1.0, std=2.0), 20, p=4.0)
    assert got == pytest.approx(0.9**20 * (1.0 + 2.0 * 3**0.25) / 0.1, rel=1e-12)
    # lognormal: ||z||_3 = exp(mu + 3 sigma^2 / 2)
    got = targets.truncation_bound(gma, rc.iid_lognormal(1, mu=0.5, sigma=0.5), 20, p=3.0)
    assert got == pytest.approx(0.9**20 * math.exp(0.5 + 3 * 0.125) / 0.1, rel=1e-12)


@pytest.mark.parametrize("spec, sampler, p", [
    (rc.geometric_ma(0.5), rc.arma(ar=(0.5,)), 2.0),  # no stationary variance in closed form
    (rc.geometric_ma(0.5), rc.garch11(0.1, 0.1, 0.8), 3.0),  # power-law tail
    (rc.garch_vol(0.1, 0.1, 0.8), rc.garch11(0.1, 0.1, 0.8), 2.0),  # needs ||z||_4
    (rc.garch_vol(0.1, 0.1, 0.8), rc.arma(ma=(0.3,)), 1.0),
    (rc.geometric_ma(0.5), rc.iid_lognormal(1, sigma=30.0), 2.0),  # past float range
    (rc.geometric_ma(0.5), rc.iid_gaussian(1, mean=1e300, std=1e300), 2.0),
], ids=["arma", "garch_p3", "garch_vol_p2", "garch_vol_arma", "lognormal_huge", "gaussian_huge"])
def test_truncation_bound_is_none_where_no_sound_bound_is_known(spec, sampler, p):
    assert targets.truncation_bound(spec, sampler, 10, p) is None


def test_truncation_bound_rejects_bad_arguments():
    spec, samp = rc.geometric_ma(0.5), rc.iid_gaussian(1)
    for T in (0, 2.5, True):
        with pytest.raises(ValueError, match="T must be an integer"):
            targets.truncation_bound(spec, samp, T)
    for p in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="p must be a finite number >= 1"):
            targets.truncation_bound(spec, samp, 10, p)


# every sampler kind on a few params, nonzero means and std 10 among them
_LAW_CASES = [
    rc.iid_gaussian(1), rc.iid_gaussian(1, mean=3.0, std=10.0), rc.iid_gaussian(1, mean=-2.0),
    rc.iid_uniform_bounded(0.0, 5.0), rc.iid_uniform_bounded(-2.0, 1.0),
    rc.iid_lognormal(1, sigma=0.5), rc.iid_lognormal(1, mu=1.0, sigma=1.0),
    rc.arma(ar=(0.5,), ma=(0.3,)),
    rc.garch11(0.1, 0.1, 0.8), rc.garch11(0.2, 0.3, 0.5),
]
_UNBOUNDED_MEMORY = [rc.geometric_ma(0.5), rc.geometric_ma(0.9), rc.peak_hold(),
                     rc.garch_vol(0.1, 0.1, 0.8), rc.garch_vol(0.2, 0.3, 0.5)]


@pytest.mark.filterwarnings("ignore:.*kurtosis:RuntimeWarning")
@pytest.mark.parametrize("sampler", _LAW_CASES, ids=[
    "gaussian", "gaussian_mean3_std10", "gaussian_mean-2", "uniform_0_5", "uniform_-2_1",
    "lognormal_0.5", "lognormal_1_1", "arma", "garch_0.1_0.1_0.8", "garch_0.2_0.3_0.5"])
def test_truncation_bound_is_sound_against_the_semi_infinite_value(sampler):
    # 400 rows leave a tail below 0.9^400 ~ 5e-19 of one value, so they stand in
    # for the semi-infinite past; peak_hold's semi-infinite value is a_max
    L, M = 400, 4000
    data = rc.sample_paths(sampler, L, M, seed=41)
    checked = 0
    for spec in _UNBOUNDED_MEMORY:
        if spec.kind == "peak_hold" and sampler.kind != "iid_uniform_bounded":
            continue
        full = (np.full(M, sampler.params["a_max"]) if spec.kind == "peak_hold"
                else rc.evaluate_functional_batch(spec, data))
        for T in (3, 10):
            short = rc.evaluate_functional_batch(spec, np.ascontiguousarray(data[:, :T]))
            for p in (1.0, 2.0, 3.0):
                bound = targets.truncation_bound(spec, sampler, T, p)
                gap = lp_norm_of_values(full - short, p)
                assert bound is None or math.isfinite(bound)
                assert bound is None or bound >= gap.value - 3 * gap.stderr, (spec.kind, T, p)
                checked += bound is not None
    assert checked > 0 or sampler.kind == "arma"
def test_random_finite_poly_deterministic():
    a = rc.random_finite_poly(2, 1, 2, seed=5)
    b = rc.random_finite_poly(2, 1, 2, seed=5)
    c = rc.random_finite_poly(2, 1, 2, seed=6)
    assert a.params["coefficients"] == b.params["coefficients"]
    assert a.params["coefficients"] != c.params["coefficients"]
    assert a.memory == 1 and a.n == 2


def test_random_finite_poly_with_no_term_drawn_is_the_current_input():
    spec = rc.random_finite_poly(2, 1, 2, seed=5, density=0.0)
    assert spec.params["coefficients"] == {(1, 0, 0, 0): 1.0}


def test_spec_shapes():
    e = rc.trig_product(np.array([[1.0, 0.5], [0.2, 0.1], [0.0, 1.0]]), sine_lags=(2,))
    assert e.n == 2 and e.memory == 2
    assert rc.garch_vol(0.1, 0.1, 0.8).memory is None
    assert rc.peak_hold().memory is None
