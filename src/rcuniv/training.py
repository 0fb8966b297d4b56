"""Readout training against target functionals, in two stages.

sample_states(system, target, sampler, T, M, seed) is the training
stage: it certifies the system, checks the sampler, draws M windows of T
rows, and returns their final reservoir states and target values.  The
fit_* functions regress those target values on features of those states,
so readouts of one system share one draw and one state run; they take
the ridge penalty and seed, and their path count is the states' row
count.  The normal equations are never formed: ridge solves go through
an SVD-based least-squares factorization on features rescaled to unit
root-mean-square, so the penalty acts in standardized feature space.  A
fifth of the paths (index = 4 mod 5) are held out for reporting.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import (FunctionalSpec, _require_integers, _require_numbers, _require_seed,
                   evaluate_functional_batch)
from .processes import ProcessSampler, sample_paths
from .readouts import (
    LinearReadout,
    NetworkReadout,
    PolynomialReadout,
    _random_features,
    _ridge_solve,
    get_activation,
    multi_indices,
    poly_features,
)
from .reservoirs import EspNotCertifiedError, certify_esp, final_states
from .targets import check_sampler

__all__ = [
    "sample_states",
    "fit_linear_readout",
    "fit_polynomial_readout",
    "fit_network_readout",
]


def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _holdout_mask(M: int) -> np.ndarray:
    return np.arange(M) % 5 == 4


def sample_states(system, target: FunctionalSpec, sampler: ProcessSampler, T: int, M: int,
                  seed: int):
    """The training stage -> (states, y): final states (M, N) and target values (M,).

    Refuses a system without an ESP certificate and a sampler outside the
    target's whitelist, then draws M windows of T rows from seed.
    """
    report = certify_esp(system)
    if not report.certified:
        raise EspNotCertifiedError(
            f"refusing to train: ESP certificate failed ({report.method}, "
            f"bound {report.bound:.4g})"
        )
    check_sampler(target, sampler)
    data = sample_paths(sampler, T, M, seed)
    states = final_states(system, data)
    y = evaluate_functional_batch(target, data)
    return states, y


def _training_arrays(states, y, ridge, seed):
    """The training stage's (states, y), checked with the ridge penalty and seed."""
    _require_numbers(0, ridge=ridge)
    _require_seed(seed)
    states = np.asarray(states, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if states.ndim != 2 or states.shape[0] < 5 or y.shape != states.shape[:1]:
        raise ValueError(
            f"expected states (M, N) with M >= 5 paths for the holdout split and "
            f"target values (M,), got shapes {states.shape} and {y.shape}"
        )
    return states, y


def _fit_on_features(feats: np.ndarray, y: np.ndarray, ridge: float, seed: int):
    hold = _holdout_mask(len(y))
    w, rank = _ridge_solve(feats[~hold], y[~hold], ridge)
    if rank < feats.shape[1] and ridge == 0.0:
        warnings.warn(
            f"normal equations are singular (rank {rank} of {feats.shape[1]}); "
            "consider ridge > 0",
            RuntimeWarning,
            stacklevel=3,
        )
    pred = feats @ w
    diag = {
        "lambda": ridge,
        "paths": len(y),
        "rmse_train": _rmse(pred[~hold], y[~hold]),
        "rmse_holdout": _rmse(pred[hold], y[hold]),
        "coeff_count": int(feats.shape[1]),
        "seed": seed,
        "rank": rank,
    }
    return w, diag


def fit_linear_readout(states, y, *, ridge: float, seed: int):
    """Ridge-fit W so states @ W tracks y; returns (readout, diagnostics).

    states (M, N) and y (M,) come from sample_states, with M >= 5; ridge is
    the penalty in standardized feature space, a finite number >= 0, and
    seed, an integer in [0, 2**64), is reported in the diagnostics.
    """
    states, y = _training_arrays(states, y, ridge, seed)
    w, diag = _fit_on_features(states, y, ridge, seed)
    return LinearReadout(w), diag


def fit_polynomial_readout(states, y, degree: int, *, ridge: float, seed: int):
    """Ridge-fit a polynomial readout of the given degree on final states.

    Arguments as in fit_linear_readout.  The paper's polynomial readouts act
    on linear reservoir states; the input law's exponential moment condition
    is decided once per experiment, from the sampler's kind, in
    harness.run_experiment, not here.
    """
    _require_integers(0, degree=degree)
    states, y = _training_arrays(states, y, ridge, seed)
    feats = poly_features(states, degree)
    w, diag = _fit_on_features(feats, y, ridge, seed)
    coeffs = {
        mi: float(w[i])
        for i, mi in enumerate(multi_indices(states.shape[1], degree))
        if w[i] != 0.0
    }
    return PolynomialReadout(states.shape[1], degree, coeffs), diag


def fit_network_readout(states, y, hidden_units: int, *, ridge: float, seed: int,
                        activation: str = "tanh"):
    """Random-feature fit of a single-hidden-layer readout on final states.

    Arguments as in fit_linear_readout; seed also draws the hidden layer.
    Hidden directions are Gaussian scaled by 1/sqrt(N); thresholds are
    uniform over each unit's projected state range; only the output layer
    is solved, by ridge least squares.  Growing hidden_units with the same
    seed extends the hidden layer by new units, keeping earlier ones fixed.
    """
    _require_integers(1, hidden_units=hidden_units)
    get_activation(activation)
    states, y = _training_arrays(states, y, ridge, seed)
    # separate streams so unit j's direction and threshold do not depend on
    # how many units follow it (nested prefixes for growing hidden_units)
    rng_dir = np.random.default_rng([seed, 0xA1FA])
    rng_thr = np.random.default_rng([seed, 0x7E7A])
    alpha, theta, feats = _random_features(states, hidden_units, np.sqrt(states.shape[1]),
                                           activation, rng_dir, rng_thr)
    w, diag = _fit_on_features(feats, y, ridge, seed)
    return NetworkReadout(w, alpha, theta, activation), diag
