"""Readout training: ridge solver, recovery, nesting, failure modes."""

import math
import re
import warnings

import numpy as np
import pytest

import rcuniv as rc
from rcuniv.processes import sample_paths
from rcuniv.readouts import _ridge_solve, get_activation
from rcuniv.reservoirs import final_states
from rcuniv.training import _holdout_mask

DIAG_KEYS = {"lambda", "paths", "rmse_train", "rmse_holdout", "coeff_count", "seed", "rank"}


def test_fits_reject_a_bad_ridge_or_seed():
    states, y = np.zeros((20, 3)), np.zeros(20)
    for fit in (rc.fit_linear_readout, _fit_polynomial(2), _fit_network()):
        for ridge in (-1, math.nan, math.inf, True):
            with pytest.raises(ValueError, match="ridge must be a finite number >= 0"):
                fit(states, y, ridge=ridge, seed=0)
        for seed in (-1, 2.0):
            with pytest.raises(ValueError, match="seed must be an integer"):
                fit(states, y, ridge=0.0, seed=seed)


def test_ridge_solver_matches_normal_equations():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6)) * np.array([1.0, 0.1, 10.0, 1.0, 2.0, 0.5])
    y = rng.normal(size=200)
    lam = 0.3
    w, rank = _ridge_solve(X, y, lam)
    scale = np.sqrt(np.mean(X**2, axis=0))
    Xs = X / scale
    beta = np.linalg.solve(Xs.T @ Xs + lam * np.eye(6), Xs.T @ y)
    np.testing.assert_allclose(w, beta / scale, rtol=1e-8)
    assert rank == 6


def test_ridge_shrinks_to_zero():
    rng = np.random.default_rng(1)
    X, y = rng.normal(size=(100, 4)), rng.normal(size=100)
    w, _ = _ridge_solve(X, y, 1e12)
    assert np.linalg.norm(w) < 1e-6


def test_ridge_norm_monotone_in_penalty():
    rng = np.random.default_rng(2)
    X, y = rng.normal(size=(120, 5)), rng.normal(size=120)
    scale = np.sqrt(np.mean(X**2, axis=0))
    norms = []
    for lam in (0.0, 1e-3, 1e-1, 1.0, 10.0, 1e3):
        w, _ = _ridge_solve(X, y, lam)
        norms.append(np.linalg.norm(w * scale))  # standardized-space norm
    for a, b in zip(norms, norms[1:]):
        assert b <= a + 1e-12


def test_holdout_is_every_fifth_path():
    mask = _holdout_mask(12)
    np.testing.assert_array_equal(np.nonzero(mask)[0], [4, 9])


def test_linear_recovery_of_state_coordinate():
    # target = newest input = first shift register coordinate; exact fit
    sr = rc.build_shift_register(1, 1)
    target = rc.finite_poly(1, 1, 1, {(1, 0): 1.0})
    states, y = rc.sample_states(sr, target, rc.iid_gaussian(1), T=6, M=200, seed=3)
    readout, diag = rc.fit_linear_readout(states, y, ridge=0.0, seed=3)
    np.testing.assert_allclose(readout.W, [1.0, 0.0], atol=1e-8)
    assert diag["rmse_train"] < 1e-10
    assert diag["rank"] == 2
    assert set(diag) == DIAG_KEYS
    assert (diag["paths"], diag["seed"], diag["lambda"]) == (200, 3, 0.0)


def test_polynomial_recovery_frozen_coefficients():
    # z_0^2 + z_0 z_-1 over graded-lex features -> (0, 0, 0, 1, 1, 0)
    sr = rc.build_shift_register(1, 1)
    target = rc.finite_poly(1, 1, 2, {(2, 0): 1.0, (1, 1): 1.0})
    readout, diag = rc.fit_polynomial_readout(
        *rc.sample_states(sr, target, rc.iid_gaussian(1), T=6, M=200, seed=4), 2,
        ridge=1e-10, seed=4,
    )
    np.testing.assert_allclose(
        readout.coefficient_vector(), [0.0, 0.0, 0.0, 1.0, 1.0, 0.0], atol=1e-6
    )
    assert diag["rmse_holdout"] < 1e-6
    assert diag["coeff_count"] == 6


def test_degree_zero_fits_the_mean():
    sr = rc.build_shift_register(1, 0)
    target = rc.geometric_ma(0.5)
    readout, _ = rc.fit_polynomial_readout(
        *rc.sample_states(sr, target, rc.iid_gaussian(1), T=20, M=500, seed=5), 0,
        ridge=0.0, seed=5,
    )
    data = rc.sample_paths(rc.iid_gaussian(1), 20, 500, seed=5)
    y = rc.evaluate_functional_batch(target, data)
    mean_train = y[~_holdout_mask(500)].mean()
    assert readout.coefficient_vector()[0] == pytest.approx(mean_train, abs=1e-10)


def test_zero_target_gives_zero_weights():
    sr = rc.build_shift_register(1, 1)
    readout, diag = rc.fit_linear_readout(
        *rc.sample_states(sr, rc.constant(0.0), rc.iid_gaussian(1), T=4, M=100, seed=6),
        ridge=1.0, seed=6,
    )
    np.testing.assert_array_equal(readout.W, np.zeros(2))
    assert diag["rmse_train"] == 0.0


def test_training_requires_certificate():
    esn = rc.random_esn(6, 1, seed=7, spectral=1.2)
    with pytest.raises(rc.EspNotCertifiedError):
        rc.sample_states(esn, rc.geometric_ma(0.5), rc.iid_gaussian(1), T=8, M=50, seed=8)


def test_training_respects_whitelist():
    sr = rc.build_shift_register(1, 0)
    with pytest.raises(ValueError):
        rc.sample_states(sr, rc.peak_hold(), rc.iid_gaussian(1), T=4, M=50, seed=9)


def _fit_network(**kw):
    return lambda states, y, **fit: rc.fit_network_readout(
        states, y, kw.get("units", 4), **fit, activation=kw.get("activation", "tanh"))


def _fit_polynomial(degree):
    return lambda states, y, **fit: rc.fit_polynomial_readout(states, y, degree, **fit)


@pytest.mark.parametrize("fit, message", [
    (_fit_network(activation="relu"), "activation must be one of"),
    (_fit_network(units=2.5), "hidden_units must be an integer >= 1"),
    (_fit_network(units=0), "hidden_units must be an integer >= 1"),
    (_fit_polynomial(-1), "degree must be an integer >= 0"),
    (_fit_polynomial(2.5), "degree must be an integer >= 0"),
    (_fit_polynomial(True), "degree must be an integer >= 0"),
], ids=["relu", "units_2_5", "units_0", "degree_-1", "degree_2_5", "degree_true"])
def test_bad_fit_argument_raises_before_any_path_is_drawn(monkeypatch, fit, message):
    def no_draws(*args, **kwargs):
        raise RuntimeError("paths drawn before the arguments were checked")

    monkeypatch.setattr(rc.training, "sample_paths", no_draws)
    # fits take the training stage's arrays and draw nothing; None states
    # would raise another error if they were read before the argument check
    with pytest.raises(ValueError, match=message):
        fit(None, None, ridge=0.1, seed=12)


@pytest.mark.parametrize("fit", [
    rc.fit_linear_readout,
    _fit_polynomial(2),
    _fit_network(),
], ids=["linear", "polynomial", "network"])
def test_fits_reject_arrays_that_are_not_the_training_stage_shape(fit):
    states, y = np.zeros((20, 3)), np.zeros(20)
    # four paths leave the holdout split with no held-out path
    for bad in ((states[:19], y), (states, y[:19]), (states[:, 0], y), (states, states),
                (states[:4], y[:4])):
        with pytest.raises(ValueError, match=re.escape("expected states (M, N) with M >= 5")):
            fit(*bad, ridge=0.1, seed=12)


def test_rank_deficiency_warns_without_penalty():
    # duplicated state coordinates make the feature matrix singular
    dup = rc.LinearReservoir(np.zeros((2, 2)), np.array([[1.0], [1.0]]))
    states, y = rc.sample_states(dup, rc.geometric_ma(0.5), rc.iid_gaussian(1),
                                 T=4, M=100, seed=10)
    with pytest.warns(RuntimeWarning, match="rank"):
        rc.fit_linear_readout(states, y, ridge=0.0, seed=10)


def test_network_units_nest_by_prefix():
    sr = rc.build_shift_register(1, 1)
    target = rc.trig_product(np.array([[1.0], [0.7]]))
    states, y = rc.sample_states(sr, target, rc.iid_gaussian(1), T=6, M=500, seed=11)
    small, diag_s = rc.fit_network_readout(states, y, 4, ridge=0.0, seed=11)
    large, diag_l = rc.fit_network_readout(states, y, 16, ridge=0.0, seed=11)
    np.testing.assert_array_equal(large.alpha[:4], small.alpha)
    np.testing.assert_array_equal(large.theta[:4], small.theta)
    assert diag_l["rmse_train"] <= diag_s["rmse_train"] + 1e-9


def test_network_fit_matches_reference_draw():
    # the hidden layer drawn inline, as before the shared random-feature builder
    sr = rc.build_shift_register(1, 2)
    target = rc.trig_product(np.array([[1.0], [0.7], [0.4]]))
    T, M, seed, ridge = 5, 400, 21, 1e-8
    net, _ = rc.fit_network_readout(*rc.sample_states(sr, target, rc.iid_gaussian(1), T, M, seed),
                                    24, ridge=ridge, seed=seed, activation="logistic")
    data = sample_paths(rc.iid_gaussian(1), T, M, seed)
    states = final_states(sr, data)
    y = rc.evaluate_functional_batch(target, data)
    N = states.shape[1]
    alpha = np.random.default_rng([seed, 0xA1FA]).standard_normal((24, N)) / np.sqrt(N)
    proj = states @ alpha.T
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    theta = lo + (hi - lo) * np.random.default_rng([seed, 0x7E7A]).uniform(size=24)
    feats = get_activation("logistic").fn(proj - theta)
    hold = _holdout_mask(M)
    beta, _ = _ridge_solve(feats[~hold], y[~hold], ridge)
    for got, want in ((net.alpha, alpha), (net.theta, theta), (net.beta, beta)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_network_fit_reaches_small_error():
    # bounded two-lag target; 256 random features should get within 5%
    freqs = np.array([[1.0], [0.7]])
    target = rc.trig_product(freqs)
    norm = math.sqrt(
        0.5 * (1.0 + math.exp(-2.0 * 1.0**2)) * 0.5 * (1.0 + math.exp(-2.0 * 0.7**2))
    )
    sr = rc.build_shift_register(1, 1)
    worst = 0.0
    for seed in (12, 13, 14):
        states, y = rc.sample_states(sr, target, rc.iid_gaussian(1), T=4, M=4000, seed=seed)
        _, diag = rc.fit_network_readout(states, y, 256, ridge=1e-8, seed=seed)
        worst = max(worst, diag["rmse_holdout"])
    assert worst < 0.05 * norm


def test_polynomials_plateau_on_lognormal_log_sine():
    # the orthogonal-target floor: no polynomial degree helps
    sr = rc.build_shift_register(1, 0)
    target = rc.log_sine()
    samp = rc.iid_lognormal(1)
    floor = math.sqrt(0.5)
    states, y = rc.sample_states(sr, target, samp, T=2, M=3000, seed=15)
    for degree in (1, 3, 6):
        _, diag = rc.fit_polynomial_readout(states, y, degree, ridge=1e-8, seed=15)
        assert diag["rmse_holdout"] > 0.7 * floor


def test_fits_are_deterministic():
    sr = rc.build_shift_register(1, 1)
    target = rc.geometric_ma(0.5)
    n1, d1 = rc.fit_network_readout(
        *rc.sample_states(sr, target, rc.iid_gaussian(1), T=12, M=300, seed=17),
        32, ridge=1e-6, seed=17)
    n2, d2 = rc.fit_network_readout(
        *rc.sample_states(sr, target, rc.iid_gaussian(1), T=12, M=300, seed=17),
        32, ridge=1e-6, seed=17)
    np.testing.assert_array_equal(n1.beta, n2.beta)
    assert d1 == d2
