"""Monte Carlo L^p estimation: frozen formulas, inequalities, guards."""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

import rcuniv as rc
from rcuniv.metrics import lp_norm_of_values, warn_on_truncation


def test_constant_values_exact():
    est = lp_norm_of_values(np.full(50, -2.0), p=3.0)
    assert est.value == 2.0 and est.stderr == 0.0 and est.M == 50


def test_two_point_delta_method_frozen():
    # values (3, 4), p = 2: mean |x|^2 = 12.5, se_mean = 3.5 exactly
    est = lp_norm_of_values(np.array([3.0, 4.0]), p=2.0, seed=7)
    assert est.value == pytest.approx(math.sqrt(12.5), rel=1e-14)
    assert est.stderr == pytest.approx(3.5 / (2.0 * math.sqrt(12.5)), rel=1e-12)
    assert est.seed == 7


def test_p_below_one_rejected():
    with pytest.raises(ValueError):
        lp_norm_of_values(np.ones(4), p=0.5)


@pytest.mark.parametrize("p", [math.nan, math.inf, -math.inf])
def test_non_finite_p_rejected(p):
    values = np.random.default_rng(0).standard_normal(100)
    with pytest.raises(ValueError, match="finite"):
        lp_norm_of_values(values, p=p)


def test_zero_values():
    est = lp_norm_of_values(np.zeros(10), p=2.0)
    assert est.value == 0.0 and est.stderr == 0.0


def test_empirical_triangle_and_jensen():
    # on a shared sample both inequalities hold exactly, no tolerance needed
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=400), rng.normal(size=400) * 0.5
    lp = lambda v, p: lp_norm_of_values(v, p=p).value
    assert lp(a - b, 2.0) <= lp(a, 2.0) + lp(b, 2.0) + 1e-12
    assert lp(a, 1.0) <= lp(a, 2.0) + 1e-12
    assert lp(a, 2.0) <= lp(a, 4.0) + 1e-12


def test_kurtosis_warning_fires_on_heavy_tails():
    rng = np.random.default_rng(2)
    heavy = np.exp(rng.normal(size=4000) * 3.0)
    with pytest.warns(RuntimeWarning, match="kurtosis") as record:
        lp_norm_of_values(heavy, p=4.0)
    # the numpy moment ratio reports scipy's (non-excess, biased) kurtosis
    expected = stats.kurtosis(np.abs(heavy) ** 4.0, fisher=False)
    assert f"kurtosis {expected:.1f} exceeds" in str(record[0].message)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lp_norm_of_values(rng.normal(size=4000), p=2.0)


def test_lp_norm_geometric_closed_form():
    # ||sum 0.5^k Z_k||_2 = 1/sqrt(0.75) for iid standard normals
    spec = rc.geometric_ma(0.5).spec
    est = rc.lp_norm(spec, rc.iid_gaussian(1), p=2.0, T=40, M=20000, seed=3)
    assert abs(est.value - 1.0 / math.sqrt(0.75)) <= 3.0 * est.stderr
    assert est.stderr < 0.01


def test_lp_norm_peak_hold_moments():
    # E[max(U_1..U_T)^2] = T / (T + 2) on uniform[0, 1]
    spec = rc.peak_hold().spec
    samp = rc.iid_uniform_bounded(0.0, 1.0)
    est = rc.lp_norm(spec, samp, p=2.0, T=60, M=20000, seed=4)
    assert abs(est.value - math.sqrt(60.0 / 62.0)) <= 3.0 * est.stderr


def test_lp_norm_matches_direct_average():
    spec = rc.geometric_ma(0.7).spec
    samp = rc.iid_gaussian(1)
    est = rc.lp_norm(spec, samp, p=2.0, T=12, M=500, seed=5)
    data = rc.sample_paths(samp, T=12, M=500, seed=5)
    vals = rc.evaluate_functional_batch(spec, data)
    want = float(np.mean(np.abs(vals) ** 2) ** 0.5)
    assert est.value == pytest.approx(want, rel=1e-13)


def test_lp_norm_whitelist_enforced():
    with pytest.raises(ValueError):
        rc.lp_norm(rc.peak_hold().spec, rc.iid_gaussian(1), p=2.0, T=8, M=10, seed=0)


def test_lp_norm_takes_a_functional_spec_only():
    # a catalog entry is not its spec
    with pytest.raises(TypeError, match="FunctionalSpec"):
        rc.lp_norm(rc.geometric_ma(0.5), rc.iid_gaussian(1), p=2.0, T=4, M=10, seed=0)


def test_lp_norm_stderr_shrinks_with_paths():
    spec = rc.geometric_ma(0.5).spec
    samp = rc.iid_gaussian(1)
    small = rc.lp_norm(spec, samp, p=2.0, T=20, M=1000, seed=6)
    large = rc.lp_norm(spec, samp, p=2.0, T=20, M=16000, seed=6)
    ratio = small.stderr / large.stderr
    assert 2.0 < ratio < 8.0  # should sit near sqrt(16) = 4


def test_lp_norm_tail_bound_warning():
    spec = rc.geometric_ma(0.9).spec
    samp = rc.iid_gaussian(1)
    short = rc.lp_norm(spec, samp, p=2.0, T=5, M=400, seed=7)
    with pytest.warns(RuntimeWarning, match="truncation"):
        warn_on_truncation(0.9**5 / 0.1, short)
    long = rc.lp_norm(spec, samp, p=2.0, T=200, M=400, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warn_on_truncation(1e-12, long)


def test_worker_env_does_not_change_results(monkeypatch):
    # M = 3000 is two evaluation chunks, and the readout's states run in
    # six 512-row blocks spread over the workers
    spec = rc.geometric_ma(0.5).spec
    samp = rc.iid_gaussian(1)
    esn = rc.random_esn(20, 1, seed=8)
    readout = rc.LinearReadout(np.random.default_rng(8).normal(size=20))
    results = {}
    for workers in ("1", "2", "4"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        estimates = (rc.lp_norm(spec, samp, p=2.0, T=16, M=3000, seed=8),
                     *rc.approx_error(spec, esn, [readout], samp, p=2.0, T=16, M=3000, seed=8,
                                      train_seed=1))
        results[workers] = [(e.value, e.stderr) for e in estimates]
    assert results["2"] == results["1"] and results["4"] == results["1"]


def test_metrics_reexports_the_worker_count():
    # perfbench/child.py reads metrics._worker_count for its run manifest
    from rcuniv import core, metrics

    assert metrics._worker_count is core._worker_count


def test_approx_error_exact_model_is_tiny():
    target = rc.finite_poly(1, 1, 2, {(1, 1): 1.0, (2, 0): 0.5})
    sr = rc.build_shift_register(1, 1)
    readout = rc.PolynomialReadout(2, 2, target.spec.params["coefficients"])
    (est,) = rc.approx_error(target.spec, sr, [readout], rc.iid_gaussian(1), p=2.0, T=4, M=500,
                             seed=9, train_seed=100)
    assert est.value < 1e-10


def test_approx_error_scores_a_list_of_models_as_single_calls_would():
    # M = 2500 is two evaluation chunks; every readout sees the same states
    spec = rc.geometric_ma(0.5).spec
    samp = rc.iid_gaussian(1)
    esn = rc.random_esn(8, 1, seed=3)
    rng = np.random.default_rng(3)
    readouts = [rc.LinearReadout(rng.normal(size=8)),
                rc.LinearReadout(np.zeros(8)),
                rc.PolynomialReadout(8, 2, {(2,) + (0,) * 7: 0.5})]
    together = rc.approx_error(spec, esn, readouts, samp, p=2.0, T=10, M=2500, seed=4,
                               train_seed=1)
    alone = [rc.approx_error(spec, esn, [r], samp, p=2.0, T=10, M=2500, seed=4, train_seed=1)[0]
             for r in readouts]
    assert together == alone
    with pytest.raises(ValueError, match="training seed"):
        rc.approx_error(spec, esn, readouts, samp, p=2.0, T=10, M=10, seed=1, train_seed=1)
    with pytest.raises(ValueError, match="at least one readout"):
        rc.approx_error(spec, esn, [], samp, p=2.0, T=10, M=10, seed=4)


def test_approx_error_rejects_training_seed():
    sr = rc.build_shift_register(1, 0)
    with pytest.raises(ValueError):
        rc.approx_error(rc.geometric_ma(0.5).spec, sr, [rc.LinearReadout(np.ones(1))],
                        rc.iid_gaussian(1), p=2.0, T=4, M=10, seed=9, train_seed=9)


_BAD_ARGS = {
    "p_half": (dict(p=0.5), "p must be a finite number >= 1"),
    "p_nan": (dict(p=math.nan), "p must be a finite number >= 1"),
    "p_bool": (dict(p=True), "p must be a finite number >= 1"),
    "M_one": (dict(M=1), "M >= 2"),
    "M_float": (dict(M=3000.0), "M >= 2"),
    "seed_negative": (dict(seed=-1), "seed must be an integer"),
    "seed_float": (dict(seed=8.0), "seed must be an integer"),
}


@pytest.mark.parametrize("estimator", ["lp_norm", "approx_error"])
@pytest.mark.parametrize("case", sorted(_BAD_ARGS))
def test_bad_arguments_raise_before_any_draw(monkeypatch, estimator, case):
    def no_draws(*args, **kwargs):
        raise RuntimeError("paths drawn before the arguments were checked")

    monkeypatch.setattr(rc.metrics, "sample_paths", no_draws)
    bad, message = _BAD_ARGS[case]
    args = {"p": 2.0, "T": 16, "M": 3000, "seed": 8, **bad}
    spec, samp = rc.geometric_ma(0.5).spec, rc.iid_gaussian(1)
    with pytest.raises(ValueError, match=message):
        if estimator == "lp_norm":
            rc.lp_norm(spec, samp, **args)
        else:
            esn = rc.random_esn(4, 1, seed=8)
            rc.approx_error(spec, esn, [rc.LinearReadout(np.ones(4))], samp, **args)


def test_lp_estimate_is_frozen_record():
    est = lp_norm_of_values(np.ones(3), p=2.0, seed=1)
    with pytest.raises(Exception):
        est.value = 5.0
