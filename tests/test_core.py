"""Functional evaluation, nilpotent shift algebra, conditional truncation
error, worker threads, and window CSV round trips."""

import functools
import io
import math
import os
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import rcuniv as rc
from rcuniv.core import (
    _THREADED_PAST_VALUES,
    _run_blocks,
    _worker_count,
    evaluate_functional_batch,
)
from rcuniv.metrics import lp_norm_of_values
from rcuniv.processes import path_rng


# ---------------------------------------------------------------------------
# functional evaluation


def test_constant_functional():
    spec = rc.constant(3.5)
    data = np.random.default_rng(0).normal(size=(1, 5, 1))
    assert rc.evaluate_functional_batch(spec, data)[0] == 3.5


def test_peak_hold_example():
    spec = rc.peak_hold()
    data = np.array([[[0.2], [0.9], [0.4]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == 0.9


def test_finite_poly_product_example():
    # q(z) = z_0 * z_{-1} on the window (2, 3)
    spec = rc.finite_poly(1, 1, 2, {(1, 1): 1.0})
    data = np.array([[[2.0], [3.0]]])
    assert rc.evaluate_functional_batch(spec, data)[0] == 6.0


def test_window_too_short_for_memory():
    spec = rc.finite_poly(1, 3, 2, {(1, 0, 0, 0): 1.0})
    with pytest.raises(ValueError):
        rc.evaluate_functional_batch(spec, np.ones((1, 2, 1)))


def test_channel_mismatch_rejected():
    spec = rc.geometric_ma(0.5)
    with pytest.raises(ValueError):
        rc.evaluate_functional_batch(spec, np.ones((1, 4, 2)))


def test_batch_matches_single():
    spec = rc.geometric_ma(0.7)
    data = np.random.default_rng(1).normal(size=(16, 10, 1))
    batch = rc.evaluate_functional_batch(spec, data)
    # M one-window batches against one batch of M windows
    single = np.concatenate([rc.evaluate_functional_batch(spec, d[None]) for d in data])
    np.testing.assert_allclose(batch, single, rtol=1e-13)


def test_causality_beyond_memory():
    # rows deeper than the declared memory must not affect the value
    spec = rc.finite_poly(1, 1, 2, {(1, 1): 1.0, (2, 0): 0.5})
    rng = np.random.default_rng(2)
    base = rng.normal(size=(6, 1))
    tweaked = base.copy()
    tweaked[2:] = rng.normal(size=(4, 1))
    v0 = rc.evaluate_functional_batch(spec, base[None])[0]
    v1 = rc.evaluate_functional_batch(spec, tweaked[None])[0]
    assert v0 == v1


# ---------------------------------------------------------------------------
# argument rules


_GAPS = {
    "spec_fractional_n": (lambda: rc.FunctionalSpec("geometric_ma", 1.5, None, {"decay": 0.5}),
                          "n must be an integer >= 1, got 1.5"),
    "spec_bool_n": (lambda: rc.FunctionalSpec("geometric_ma", True, None, {"decay": 0.5}),
                    "n must be an integer >= 1, got True"),
    "spec_fractional_memory": (lambda: rc.FunctionalSpec("constant", 1, 0.5, {"value": 1.0}),
                               "memory must be an integer >= 0, got 0.5"),
    "sampler_fractional_n": (lambda: rc.ProcessSampler("iid_gaussian", 1.5, {}),
                             "n must be an integer >= 1, got 1.5"),
    "paths_fractional_T": (lambda: rc.sample_paths(rc.iid_gaussian(1), 2.5, 2, 0),
                           "T must be an integer >= 1, got 2.5"),
    "paths_bool_T": (lambda: rc.sample_paths(rc.iid_gaussian(1), True, 2, 0),
                     "T must be an integer >= 1, got True"),
    "paths_fractional_M": (lambda: rc.sample_paths(rc.iid_gaussian(1), 2, 2.5, 0),
                           "M must be an integer >= 1, got 2.5"),
    "multi_indices_fractional": (lambda: rc.readouts.multi_indices(1.5, 2),
                                 "n_vars must be an integer >= 1, got 1.5"),
    "identity_fractional_units": (lambda: rc.fit_identity_network(1, 1.0, 2.5),
                                  "hidden_units must be an integer >= 1, got 2.5"),
    "identity_bool_units": (lambda: rc.fit_identity_network(1, 1.0, True),
                            "hidden_units must be an integer >= 1, got True"),
    "identity_nan_half_width": (lambda: rc.fit_identity_network(1, math.nan, 4),
                                "half_width must be a finite number > 0, got nan"),
    "identity_no_channels": (lambda: rc.fit_identity_network(0, 1.0, 4),
                             "n must be an integer >= 1, got 0"),
    "esn_nan_spectral": (lambda: rc.random_esn(4, 1, seed=0, spectral=math.nan),
                         "spectral must be a finite number > 0, got nan"),
    "esn_bool_spectral": (lambda: rc.random_esn(4, 1, seed=0, spectral=True),
                          "spectral must be a finite number > 0, got True"),
    "esn_nan_bias_scale": (lambda: rc.random_esn(4, 1, seed=0, bias_scale=math.nan),
                           "bias_scale must be a finite number >= 0, got nan"),
    "esn_negative_bias_scale": (lambda: rc.random_esn(4, 1, seed=0, bias_scale=-1),
                                "bias_scale must be a finite number >= 0, got -1"),
    "trig_sas_negative_contraction": (
        lambda: rc.random_trig_sas(4, 1, terms=2, seed=0, contraction=-0.5),
        "contraction must be a finite number > 0, got -0.5"),
    "trig_sas_nan_freq_scale": (
        lambda: rc.random_trig_sas(4, 1, terms=2, seed=0, freq_scale=math.nan),
        "freq_scale must be a finite number, got nan"),
    "nilpotent_no_rows": (lambda: rc.build_nilpotent_trig_sas(np.zeros((0, 1))),
                          "freqs must have at least one row and column, got shape (0, 1)"),
    "nilpotent_1d_freqs": (lambda: rc.build_nilpotent_trig_sas(np.array([1.0, 0.5])),
                           "freqs must be 2-d, got shape (2,)"),
    "nilpotent_nan_freq": (lambda: rc.build_nilpotent_trig_sas([[1.0], [math.nan]]),
                           "freqs has non-finite entries"),
    "nilpotent_fractional_lag": (
        lambda: rc.build_nilpotent_trig_sas([[1.0], [0.5]], sine_lags=(0.5,)),
        "sine lags must be integers in 0..1, got (0.5,)"),
    "nilpotent_bool_freqs": (lambda: rc.build_nilpotent_trig_sas([[True]]),
                             "freqs must hold integers or floats, got boolean entries"),
    "nilpotent_lags_not_iterable": (lambda: rc.build_nilpotent_trig_sas([[1.0]], sine_lags=5),
                                    "sine lags must be integers in 0..0, got 5"),
    "trig_product_lags_not_iterable": (lambda: rc.trig_product([1.0], sine_lags=5),
                                       "sine lags must be integers in 0..0, got 5"),
    "linear_readout_string_entries": (lambda: rc.LinearReadout(["1", True]),
                                      "W must hold integers or floats, got string entries"),
    "final_states_string_batch": (
        lambda: rc.final_states(rc.build_shift_register(1, 0), [[["1"]]]),
        "batch data must hold integers or floats, got string entries"),
    "washout_string_batch": (
        lambda: rc.washout_decay(rc.build_shift_register(1, 0), [[["1"]]]),
        "batch data must hold integers or floats, got string entries"),
    # numpy promotes booleans beside numbers in a list; the entries are read one by one
    "linear_readout_bool_after_float": (lambda: rc.LinearReadout([1.5, True]),
                                        "W must hold integers or floats, got boolean entries"),
    "linear_readout_bool_first": (lambda: rc.LinearReadout([True, 2.0]),
                                  "W must hold integers or floats, got boolean entries"),
    "linear_readout_numpy_bool": (lambda: rc.LinearReadout([1, np.True_]),
                                  "W must hold integers or floats, got boolean entries"),
    "linear_readout_bool_array_entry": (lambda: rc.LinearReadout([np.array(True), 2.0]),
                                        "W must hold integers or floats, got boolean entries"),
    "network_readout_nested_bool": (lambda: rc.NetworkReadout([1.0], [[1.0, False]], [0.0]),
                                    "alpha must hold integers or floats, got boolean entries"),
    "final_states_nested_bool_batch": (
        lambda: rc.final_states(rc.build_shift_register(1, 0), [[[1.0], [True]]]),
        "batch data must hold integers or floats, got boolean entries"),
    "eval_readout_bool_states": (lambda: rc.eval_readout(rc.LinearReadout([1.0]), [[True]]),
                                 "states must hold integers or floats, got boolean entries"),
    "linear_readout_nan": (lambda: rc.LinearReadout([math.nan, 1.0]),
                           "W has non-finite entries"),
    "linear_readout_scalar": (lambda: rc.LinearReadout(2.0), "W must be 1-d, got shape ()"),
    "network_readout_nan_beta": (lambda: rc.NetworkReadout([math.nan], [[1.0]], [0.0]),
                                 "beta has non-finite entries"),
    "network_readout_nan_alpha": (lambda: rc.NetworkReadout([1.0], [[math.nan]], [0.0]),
                                  "alpha has non-finite entries"),
    "network_readout_nan_theta": (lambda: rc.NetworkReadout([1.0], [[1.0]], [math.inf]),
                                  "theta has non-finite entries"),
}


@pytest.mark.parametrize("case", sorted(_GAPS))
def test_bad_arguments_are_named_before_any_draw(monkeypatch, case):
    def no_draws(*args, **kwargs):
        raise RuntimeError("drew before the arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(rc.processes, "path_rng", no_draws)
    call, message = _GAPS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def _window_file(text):
    """A window CSV holding text, in the working directory."""
    path = Path("window.csv")
    path.write_text(text)
    return path


def _trig(cos_mats, sin_mats, cos_freqs, sin_freqs):
    """A TrigPolynomial of zero arrays of the given shapes."""
    return rc.TrigPolynomial(*map(np.zeros, (cos_mats, sin_mats, cos_freqs, sin_freqs)))


def _net(k, inputs, activation="logistic"):
    return rc.NetworkReadout(np.ones(k), np.ones((k, inputs)), np.zeros(k), activation)


_P2, _Q2 = _trig((1, 2, 2), (1, 2, 2), (1, 1), (1, 1)), _trig((1, 2, 1), (1, 2, 1), (1, 1), (1, 1))
_MEMORY_5 = rc.finite_poly(1, 5, 1, {(1, 0, 0, 0, 0, 0): 1.0})

# case -> (call, error, message): a rule of each module that no other test reaches
_RULES = {
    "core_2d_batch": (lambda: evaluate_functional_batch(rc.geometric_ma(0.5), np.zeros((4, 3))),
                      ValueError, "batch data must be 3-d (M, T, n), got shape (4, 3)"),
    "core_unregistered_kind": (
        lambda: evaluate_functional_batch(rc.FunctionalSpec("nope", 1, 0), np.zeros((2, 1, 1))),
        ValueError, "no evaluator registered for kind 'nope'"),
    "core_window_below_memory": (
        lambda: rc.truncated_conditional_error(_MEMORY_5, (0,), rc.iid_gaussian(), 2.0, 10, 0,
                                               window_length=3),
        ValueError, "window_length shorter than the functional's memory"),
    "core_csv_short_row": (lambda: rc.read_window_csv(_window_file("lag,ch0,ch1\n0,1.0\n")),
                           ValueError, "window.csv: row 0 has 2 fields, want 3"),
    "core_csv_no_rows": (lambda: rc.read_window_csv(_window_file("lag,ch0\n")),
                         ValueError, "window.csv: no data rows"),
    "metrics_no_values": (lambda: lp_norm_of_values([], p=2.0),
                          ValueError, "values must be a non-empty vector"),
    **{f"metrics_train_seed_{name}": (
        lambda bad=bad: rc.approx_error(rc.geometric_ma(0.5), rc.build_shift_register(1, 0),
                                        [rc.LinearReadout([1.0])], rc.iid_gaussian(), 2.0, 2, 10,
                                        seed=0, train_seed=bad),
        ValueError, f"train_seed must be an integer in [0, 2**64), got {bad!r}")
       for name, bad in (("bool", True), ("negative", -3), ("past_64_bits", 2**70))},
    "processes_gaussian_std": (lambda: rc.iid_gaussian(std=0),
                               ValueError, "std must be a finite number > 0, got 0"),
    "processes_arma_std": (lambda: rc.arma(std=-1.0),
                           ValueError, "std must be a finite number > 0, got -1.0"),
    "processes_uniform_order": (lambda: rc.iid_uniform_bounded(1.0, 1.0),
                                ValueError, "need a_min < a_max"),
    "processes_lognormal_sigma": (lambda: rc.iid_lognormal(sigma=0.0),
                                  ValueError, "sigma must be a finite number > 0, got 0.0"),
    "processes_arma_channels": (lambda: rc.ProcessSampler("arma", 2, {}),
                                ValueError, "arma sampler is univariate"),
    "processes_garch_channels": (
        lambda: rc.ProcessSampler("garch11", 2, {"omega": 0.1, "alpha": 0.1, "beta": 0.8}),
        ValueError, "garch11 sampler is univariate"),
    "readouts_network_k": (lambda: rc.NetworkReadout([1.0, 2.0], [[1.0]], [0.0]),
                           ValueError, "beta, alpha, theta must share leading dimension k"),
    "readouts_network_unhashable_activation": (
        lambda: rc.NetworkReadout([1.0], [[1.0]], [0.0], [1]),
        ValueError, "activation must be one of ['hard_sigmoid', 'logistic', 'tanh'], got [1]"),
    "readouts_eval_non_readout": (lambda: rc.eval_readout(object(), [[1.0]]),
                                  TypeError, "not a readout: object"),
    "linear_reservoir_square": (lambda: rc.LinearReservoir(np.zeros((2, 3)), np.zeros((2, 1))),
                                ValueError, "A must be square"),
    "linear_reservoir_rows": (lambda: rc.LinearReservoir(np.zeros((2, 2)), np.zeros((3, 1))),
                              ValueError, "c must have N rows"),
    "trig_polynomial_mats": (lambda: _trig((1, 2, 2), (1, 2, 3), (1, 1), (1, 1)),
                             ValueError, "cos_mats and sin_mats must share shape (r, rows, cols)"),
    "trig_polynomial_freqs": (lambda: _trig((1, 2, 2), (1, 2, 2), (2, 1), (2, 1)),
                              ValueError, "frequency arrays must have shape (r, n)"),
    "trig_sas_square": (lambda: rc.TrigSAS(_trig((1, 2, 3), (1, 2, 3), (1, 1), (1, 1)), _Q2),
                        ValueError, "P must be square"),
    "trig_sas_drive": (lambda: rc.TrigSAS(_P2, _P2),
                       ValueError, "Q must be a single-column polynomial with N rows"),
    "trig_sas_channels": (lambda: rc.TrigSAS(_P2, _trig((1, 2, 1), (1, 2, 1), (1, 2), (1, 2))),
                          ValueError, "P and Q must share the input channel count"),
    "esn_square": (lambda: rc.EchoStateNetwork(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros(2)),
                   ValueError, "A must be square"),
    "esn_state_dimension": (
        lambda: rc.EchoStateNetwork(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros(2)),
        ValueError, "C, bias must match the state dimension"),
    "esn_scalar_bias": (lambda: rc.EchoStateNetwork(np.zeros((1, 1)), np.zeros((1, 1)), 0.0),
                        ValueError, "bias must be 1-d, got shape ()"),
    "final_states_2d_batch": (lambda: rc.final_states(rc.build_shift_register(1, 1), np.zeros((3, 1))),
                              ValueError, "batch data must be 3-d (M, T, n), got shape (3, 1)"),
    "direct_sum_not_trig_sas": (
        lambda: rc.direct_sum_sas(rc.EchoStateNetwork(np.zeros((1, 1)), np.ones((1, 1)),
                                                      np.zeros(1)),
                                  rc.build_nilpotent_trig_sas(np.ones((1, 1)))[0]),
        TypeError, "direct sums are of TrigSAS systems, got EchoStateNetwork"),
    "direct_sum_channels": (
        lambda: rc.direct_sum_sas(rc.build_nilpotent_trig_sas(np.ones((2, 1)))[0],
                                  rc.build_nilpotent_trig_sas(np.ones((2, 2)))[0]),
        ValueError, "systems must share the input channel count"),
    "block_esn_inputs": (lambda: rc.build_block_esn(_net(2, 3), [], 2),
                         ValueError, "inner network input dimension must be a multiple of n"),
    "block_esn_no_input": (lambda: rc.build_block_esn(_net(2, 0), [], 1),
                           ValueError, "inner network must read at least the current input"),
    "block_esn_identity_count": (lambda: rc.build_block_esn(_net(2, 2), [], 1),
                                 ValueError, "need one identity network per channel, got 0"),
    "block_esn_identity_activation": (
        lambda: rc.build_block_esn(_net(2, 2), [_net(2, 1, "tanh")], 1),
        ValueError, "identity networks must share the inner activation"),
    "block_esn_identity_inputs": (lambda: rc.build_block_esn(_net(2, 2), [_net(2, 2)], 1),
                                  ValueError, "identity networks must map R^n"),
    "block_esn_bool_n": (lambda: rc.build_block_esn(_net(2, 1), [], True),
                         ValueError, "n must be an integer >= 1, got True"),
    "block_esn_float_n": (lambda: rc.build_block_esn(_net(2, 2), [], 2.0),
                          ValueError, "n must be an integer >= 1, got 2.0"),
    "block_esn_no_channels": (lambda: rc.build_block_esn(_net(2, 1), [], 0),
                              ValueError, "n must be an integer >= 1, got 0"),
    "block_esn_functional_inputs": (
        lambda: rc.block_esn_functional(_net(2, 3), [], np.zeros((2, 2, 2))),
        ValueError, "inner network input dimension must be a multiple of n"),
    "block_esn_functional_no_channels": (
        lambda: rc.block_esn_functional(_net(2, 1), [], np.zeros((2, 2, 0))),
        ValueError, "n must be an integer >= 1, got 0"),
    "block_esn_functional_identity_count": (
        lambda: rc.block_esn_functional(_net(2, 2), [], np.zeros((2, 2, 1))),
        ValueError, "need one identity network per channel, got 0"),
    "block_esn_functional_window": (
        lambda: rc.block_esn_functional(_net(2, 2), [_net(2, 1)], np.zeros((2, 1, 1))),
        ValueError, "window length 1 shorter than memory 1"),
    "certify_esp_non_system": (lambda: rc.certify_esp(object()),
                               TypeError, "not a reservoir system: object"),
    "targets_basis": (lambda: rc.random_finite_poly(1, 20, 6, seed=0),
                      ValueError, "polynomial basis too large"),
    "targets_degree_0": (lambda: rc.random_finite_poly(1, 1, 0, seed=0),
                         ValueError, "degree must be an integer >= 1, got 0"),
    "targets_decay": (lambda: rc.geometric_ma(1.0), ValueError, "decay must lie in (0, 1)"),
    "targets_sine_lag": (lambda: rc.trig_product([[1.0], [2.0]], sine_lags=(2,)),
                         ValueError, "sine lags must be integers in 0..1, got (2,)"),
    "targets_garch_stationarity": (lambda: rc.garch_vol(0.1, 0.5, 0.5),
                                   ValueError, "stationarity needs alpha + beta < 1, got 1.0"),
}


@pytest.mark.parametrize("case", sorted(_RULES))
def test_each_rule_raises_its_named_error_before_any_draw(monkeypatch, tmp_path, case):
    def no_draws(*args, **kwargs):
        raise RuntimeError("drew before the arguments were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(rc.processes, "path_rng", no_draws)
    monkeypatch.chdir(tmp_path)
    call, error, message = _RULES[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# conditional truncation error


def test_truncation_error_zero_for_finite_memory():
    spec = rc.finite_poly(1, 1, 2, {(1, 1): 1.0})
    samp = rc.iid_gaussian(1)
    (est,) = rc.truncated_conditional_error(spec, K=(1,), sampler=samp, p=2.0, M=64, seed=3)
    assert est.value == 0.0 and est.stderr == 0.0
    (est,) = rc.truncated_conditional_error(spec, K=(3,), sampler=samp, p=2.0, M=64, seed=3)
    assert est.value == 0.0


def test_truncation_error_matches_geometric_closed_form():
    # E[(H - E[H | lags 0..K])^2]^(1/2) = decay^(K+1) / sqrt(1 - decay^2)
    decay = 0.5
    spec = rc.geometric_ma(decay)
    samp = rc.iid_gaussian(1)
    (est,) = rc.truncated_conditional_error(
        spec, K=(3,), sampler=samp, p=2.0, M=4000, seed=9, window_length=40
    )
    exact = decay**4 / math.sqrt(1.0 - decay**2)
    assert abs(est.value - exact) <= 3.0 * est.stderr


@pytest.mark.parametrize("cutoffs, window", [((1, 3), 64), ((40,), 82)])
def test_truncation_error_default_window_for_unbounded_memory(cutoffs, window):
    # with no memory to cover, the window is twice the deepest cutoff's lags, at least 64
    kw = dict(sampler=rc.iid_gaussian(1), p=2.0, M=200, seed=6)
    spec = rc.geometric_ma(0.5)
    default = rc.truncated_conditional_error(spec, cutoffs, **kw)
    assert default == rc.truncated_conditional_error(spec, cutoffs, window_length=window, **kw)


def test_truncation_error_monotone_in_cutoff():
    spec = rc.geometric_ma(0.6)
    samp = rc.iid_gaussian(1)
    kw = dict(sampler=samp, p=2.0, M=3000, seed=4, window_length=36)
    (e2,) = rc.truncated_conditional_error(spec, K=(2,), **kw)
    (e5,) = rc.truncated_conditional_error(spec, K=(5,), **kw)
    assert e5.value <= e2.value + 3.0 * (e2.stderr + e5.stderr)


def test_truncation_error_rejects_dependent_sampler():
    spec = rc.geometric_ma(0.5)
    with pytest.raises(ValueError):
        rc.truncated_conditional_error(
            spec, K=(1,), sampler=rc.garch11(0.1, 0.1, 0.8), p=2.0, M=16, seed=0
        )


def test_truncation_error_input_validation():
    spec = rc.geometric_ma(0.5)
    samp = rc.iid_gaussian(1)
    with pytest.raises(ValueError):
        rc.truncated_conditional_error(spec, K=(-1,), sampler=samp, p=2.0, M=16, seed=0)
    with pytest.raises(ValueError):
        rc.truncated_conditional_error(spec, K=(1,), sampler=samp, p=2.0, M=1, seed=0)
    with pytest.raises(ValueError, match="channels"):
        # nothing to redraw, but the sampler still has to fit the functional
        rc.truncated_conditional_error(spec, K=(3,), sampler=rc.iid_gaussian(2), p=2.0, M=16,
                                       seed=0, window_length=4)


@pytest.mark.parametrize("bad, message", [
    (dict(seed=-1), "seed must be an integer in [0, 2**64)"),
    (dict(seed=2**64), "seed must be an integer in [0, 2**64)"),
    (dict(K=(3.0,)), "cutoff K must be an integer"),
    (dict(M=16.0), "M must be an integer >= 2, got 16.0"),
    (dict(inner_samples=2.5), "inner_samples must be an integer >= 1, got 2.5"),
    (dict(window_length=4.9), "window_length must be an integer"),
], ids=["seed_negative", "seed_2_to_64", "K_float", "M_float", "inner_samples_float",
        "window_length_float"])
def test_truncation_error_checks_arguments_before_the_exact_zero(bad, message):
    # window_length == K + 1 leaves nothing to redraw, where the estimate is exactly 0
    kw = dict(K=(3,), sampler=rc.iid_gaussian(1), p=2.0, M=16, seed=0, window_length=4)
    (est,) = rc.truncated_conditional_error(rc.geometric_ma(0.5), **kw)
    assert est.value == 0.0
    with pytest.raises(ValueError, match=re.escape(message)):
        rc.truncated_conditional_error(rc.geometric_ma(0.5), **{**kw, **bad})


_LAWS = {
    # each iid law as the one numpy expression per path it is drawn with
    "iid_gaussian": lambda p, rng, shape: p["mean"] + p["std"] * rng.standard_normal(shape),
    "iid_uniform_bounded": lambda p, rng, shape: rng.uniform(p["a_min"], p["a_max"], size=shape),
    "iid_lognormal": lambda p, rng, shape: np.exp(p["mu"] + p["sigma"] * rng.standard_normal(shape)),
}


def _conditional_diffs(spec, K, sampler, M, seed, T, R):
    # the estimator's former serial chunk loop, kept as the bit-level reference:
    # each path's value minus the mean over its R redrawn pasts
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
    return diffs


def _conditional_error_oracle(spec, K, sampler, p, M, seed, T, R):
    diffs = _conditional_diffs(spec, K, sampler, M, seed, T, R)
    if p == 2:
        # the inner mean adds Var(H | lags 0..K) / R to the mean square
        diffs *= np.sqrt(R / (R + 1))
    return lp_norm_of_values(diffs, p=p, seed=seed)


def test_truncation_error_matches_serial_loop_for_any_worker_count(monkeypatch):
    # 1100 paths: 68 full 16-path tasks and one of 12
    spec = rc.geometric_ma(0.5)
    sampler = rc.iid_gaussian(1)
    oracle = _conditional_error_oracle(spec, 2, sampler, 2.0, 1100, 5, T=40, R=100)
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        (est,) = rc.truncated_conditional_error(spec, K=(2,), sampler=sampler, p=2.0, M=1100,
                                             seed=5, window_length=40, inner_samples=100)
        assert (est.value, est.stderr) == (oracle.value, oracle.stderr)


def test_truncation_error_matches_serial_loop_on_two_bounded_channels(monkeypatch):
    # trig_product evaluates without BLAS; 1003 paths end in an 11-path task
    spec = rc.trig_product(np.arange(10.0).reshape(5, 2) / 7, sine_lags=(1,))
    sampler = rc.iid_uniform_bounded(-1.0, 2.0, n=2)
    oracle = _conditional_error_oracle(spec, 1, sampler, 2.0, 1003, 9, T=8, R=50)
    assert oracle.value > 0
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        (est,) = rc.truncated_conditional_error(spec, K=(1,), sampler=sampler, p=2.0, M=1003,
                                             seed=9, window_length=8, inner_samples=50)
        assert (est.value, est.stderr) == (oracle.value, oracle.stderr)


@pytest.mark.parametrize("R", [1, 3])
def test_truncation_error_scales_only_the_l2_differences(R):
    # p = 2 multiplies the differences by sqrt(R / (R + 1)); p = 1 and 3 keep them
    spec, sampler = rc.geometric_ma(0.5), rc.iid_gaussian(1)
    kw = dict(sampler=sampler, M=40, seed=4, window_length=12, inner_samples=R)
    diffs = _conditional_diffs(spec, 2, sampler, 40, 4, T=12, R=R)
    factor = np.sqrt(R / (R + 1))
    for p in (1.0, 3.0, 2.0):
        (est,) = rc.truncated_conditional_error(spec, (2,), p=p, **kw)
        exact = lp_norm_of_values(diffs * factor if p == 2 else diffs, p=p, seed=4)
        assert (est.value, est.stderr) == (exact.value, exact.stderr)
    # value and stderr of the p = 2 estimate scale together
    plain = lp_norm_of_values(diffs, p=2.0, seed=4)
    assert est.value == pytest.approx(plain.value * factor, rel=1e-12)
    assert est.stderr == pytest.approx(plain.stderr * factor, rel=1e-12)


def test_one_redrawn_past_is_unbiased_at_p2():
    # R = 1 against the closed form decay^(K+1) / sqrt(1 - decay^2); without the
    # sqrt(R / (R + 1)) factor each estimate is sqrt(2) too large, about 26 stderr here
    t0 = time.perf_counter()
    spec, sampler = rc.geometric_ma(0.5), rc.iid_gaussian(1)
    for seed in (12, 13):
        estimates = rc.truncated_conditional_error(spec, (1, 3), sampler, p=2.0, M=4000,
                                                   seed=seed, window_length=40, inner_samples=1)
        for K, est in zip((1, 3), estimates):
            exact = 0.5 ** (K + 1) / math.sqrt(0.75)
            assert abs(est.value - exact) <= 3 * est.stderr, (seed, K, est, exact)
    assert time.perf_counter() - t0 < 2.0


def test_truncation_error_with_nothing_to_resample_draws_no_path(monkeypatch):
    calls = []

    def counted(seed, path):
        calls.append(path)
        return path_rng(seed, path)

    monkeypatch.setattr(rc.processes, "path_rng", counted)
    spec = rc.geometric_ma(0.5)
    sampler = rc.iid_gaussian(1)
    (est,) = rc.truncated_conditional_error(spec, K=(39,), sampler=sampler, p=2.0, M=100,
                                            seed=1, window_length=40, inner_samples=10)
    assert (est.value, est.stderr, est.M) == (0.0, 0.0, 100)
    assert calls == []
    # one resampled lag: each path draws its base and its replicas' past
    rc.truncated_conditional_error(spec, K=(38,), sampler=sampler, p=2.0, M=100, seed=1,
                                   window_length=40, inner_samples=10)
    assert sorted(calls) == list(range(200))


# ---------------------------------------------------------------------------
# cutoff sweeps


@pytest.mark.parametrize("spec, sampler", [
    (rc.geometric_ma(0.5), rc.iid_gaussian(1)),
    (rc.trig_product(np.arange(10.0).reshape(5, 2) / 7, sine_lags=(1,)),
     rc.iid_uniform_bounded(-1.0, 2.0, n=2)),
    (rc.geometric_ma(0.5), rc.iid_lognormal()),
], ids=["iid_gaussian", "iid_uniform_bounded_n2", "iid_lognormal"])
def test_cutoff_sweep_equals_single_calls(spec, sampler):
    # 40 paths: two full 16-path tasks and one of 8; cutoffs out of order and repeated
    kw = dict(sampler=sampler, p=2.0, M=40, seed=7, window_length=12, inner_samples=20)
    sweep = rc.truncated_conditional_error(spec, (3, 1, 3), **kw)
    assert [[est] for est in sweep] == [rc.truncated_conditional_error(spec, (K,), **kw)
                                        for K in (3, 1, 3)]
    assert sweep[0].value > 0 and sweep[1].value > 0
    assert rc.truncated_conditional_error(spec, [1], **kw) == [sweep[1]]


def test_cutoff_sweep_exact_cutoff_reads_zero_and_leaves_the_others():
    spec, sampler = rc.geometric_ma(0.5), rc.iid_gaussian(1)
    kw = dict(sampler=sampler, p=2.0, M=40, seed=2, window_length=8, inner_samples=20)
    exact, two = rc.truncated_conditional_error(spec, (7, 2), **kw)
    assert (exact.value, exact.stderr, exact.M) == (0.0, 0.0, 40)
    assert [two] == rc.truncated_conditional_error(spec, (2,), **kw)
    assert two.value > 0


def _count_draws(monkeypatch):
    calls = []
    draw = rc.processes.sample_paths

    def counted(s, T, M, seed, path_offset=0):
        calls.append((T, M, path_offset))
        return draw(s, T, M, seed, path_offset=path_offset)

    monkeypatch.setattr(rc.processes, "sample_paths", counted)
    return calls


@pytest.mark.parametrize("bad, message", [
    (dict(M=1), "M must be an integer >= 2, got 1"),
    (dict(seed=-1), "seed must be an integer in [0, 2**64)"),
    (dict(inner_samples=0), "inner_samples must be an integer >= 1, got 0"),
    (dict(K=(3, -1)), "cutoff K must be an integer"),
    (dict(window_length=3), "window_length must be an integer >= 4, got 3"),
], ids=["M_1", "seed_negative", "inner_samples_0", "K_negative_element", "window_too_short"])
def test_cutoff_sweep_with_every_cutoff_exact_draws_nothing(monkeypatch, bad, message):
    calls = _count_draws(monkeypatch)
    spec = rc.geometric_ma(0.5)
    kw = dict(K=(3, 3), sampler=rc.iid_gaussian(1), p=2.0, M=16, seed=0, window_length=4)
    estimates = rc.truncated_conditional_error(spec, **kw)
    assert [(e.value, e.stderr) for e in estimates] == [(0.0, 0.0)] * 2
    with pytest.raises(ValueError, match=re.escape(message)):
        rc.truncated_conditional_error(spec, **{**kw, **bad})
    assert calls == []


def test_cutoff_sweep_draws_each_task_once(monkeypatch):
    # per task: the base windows and the past of the smallest cutoff, however many cutoffs
    calls = _count_draws(monkeypatch)
    monkeypatch.setenv("RCUNIV_WORKERS", "2")
    rc.truncated_conditional_error(rc.geometric_ma(0.5), (5, 1, 2), rc.iid_gaussian(1),
                                   p=2.0, M=40, seed=3, window_length=12, inner_samples=10)
    tasks = [(0, 16), (16, 16), (32, 8)]
    assert sorted(calls) == sorted([(12, m, start) for start, m in tasks]
                                   + [(10 * 10, m, 40 + start) for start, m in tasks])


@pytest.mark.parametrize("K, message", [
    ((), "non-empty sequence"),
    ((1, 2.0), "cutoff K must be an integer"),
    ((1, True), "cutoff K must be an integer"),
    ((-1, 2), "cutoff K must be an integer"),
    (2.0, "cutoff K must be an integer"),
    (2, "cutoff K must be an integer"),
    ((1, 12), "window_length must be an integer >= 13, got 12"),
], ids=["empty", "float_element", "bool_element", "negative_element", "float", "int",
        "K_past_window"])
def test_cutoff_sweep_rejects_bad_cutoffs_before_any_draw(monkeypatch, K, message):
    calls = _count_draws(monkeypatch)
    kw = dict(sampler=rc.iid_gaussian(1), p=2.0, M=16, seed=0, window_length=12, inner_samples=4)
    with pytest.raises(ValueError, match=re.escape(message)):
        rc.truncated_conditional_error(rc.geometric_ma(0.5), K, **kw)
    assert calls == []


@pytest.mark.parametrize("p", [0.5, math.nan, math.inf, True, "2"],
                         ids=["half", "nan", "inf", "bool", "string"])
@pytest.mark.parametrize("estimate", [
    lambda sampler, spec, p: rc.truncated_conditional_error(
        spec, (1, 3), sampler, p=p, M=4000, seed=11, window_length=40, inner_samples=100),
    lambda sampler, spec, p: rc.shift_invariance_probe(
        sampler, spec, p=p, shifts=(0, -5), T=40, M=40_000, seed=53),
], ids=["truncated_conditional_error", "shift_invariance_probe"])
def test_bad_p_raises_before_any_draw(monkeypatch, estimate, p):
    def no_draws(*args, **kwargs):
        raise RuntimeError("paths drawn before p was checked")

    monkeypatch.setattr(rc.processes, "sample_paths", no_draws)
    with pytest.raises(ValueError, match="p must be a finite number >= 1"):
        estimate(rc.iid_gaussian(1), rc.geometric_ma(0.5), p)


def test_truncation_error_memory_does_not_grow_with_paths(monkeypatch):
    # a (chunk, R, T, n) replica array of 500 paths would take 16 MB here
    monkeypatch.setenv("RCUNIV_WORKERS", "2")
    spec = rc.geometric_ma(0.5)
    sampler = rc.iid_gaussian(1)

    def peak(M):
        tracemalloc.start()
        try:
            rc.truncated_conditional_error(spec, K=(2,), sampler=sampler, p=2.0, M=M, seed=3,
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
    assert _worker_count("draws") == workers


@pytest.mark.parametrize("env, workers", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1),
    ({"RCUNIV_WORKERS": "3"}, 3),
    ({"RCUNIV_WORKERS": "0"}, 1),
])
def test_gil_bound_worker_count_is_the_calling_thread(monkeypatch, env, workers):
    for var in ("RCUNIV_WORKERS",) + _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert _worker_count("gil") == workers


def test_short_redrawn_pasts_run_on_the_calling_thread(monkeypatch):
    # verify's own call redraws 38 values per path: it makes no pool, on 8
    # CPUs with BLAS pinned, and gives the bits RCUNIV_WORKERS=3 gives
    pools = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a GIL-bound estimate made a thread pool")

    for var in ("RCUNIV_WORKERS",) + _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    spec, sampler = rc.geometric_ma(0.5), rc.iid_gaussian(1)
    verify = dict(sampler=sampler, p=2.0, M=4000, seed=11, window_length=40, inner_samples=1)
    assert 1 * 38 * 1 < _THREADED_PAST_VALUES <= 200 * 46 * 1

    monkeypatch.setattr("rcuniv.core.ThreadPoolExecutor", NoPool)
    serial = rc.truncated_conditional_error(spec, (1, 3), **verify)
    monkeypatch.setattr("rcuniv.core.ThreadPoolExecutor", CountingPool)
    monkeypatch.setenv("RCUNIV_WORKERS", "3")
    threaded = rc.truncated_conditional_error(spec, (1, 3), **verify)
    assert pools == [2]
    assert [(e.value, e.stderr) for e in serial] == [(e.value, e.stderr) for e in threaded]

    # 200 redrawn pasts of 46 rows: 9200 values per path, one worker per task
    monkeypatch.delenv("RCUNIV_WORKERS")
    rc.truncated_conditional_error(spec, (1,), sampler, p=2.0, M=64, seed=11,
                                   window_length=48, inner_samples=200)
    assert pools == [2, 3]


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
