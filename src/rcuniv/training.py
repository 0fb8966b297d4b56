"""Readout training against target functionals.

Fits regress target values on final reservoir states over sampled
windows.  The normal equations are never formed: ridge solves go through
an SVD-based least-squares factorization on features rescaled to unit
root-mean-square, so the penalty acts in standardized feature space.
A fifth of the paths (index = 4 mod 5) are held out for reporting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FunctionalSpec, _integer, evaluate_functional_batch
from .processes import ProcessSampler, sample_paths
from .readouts import (
    LinearReadout,
    NetworkReadout,
    PolynomialReadout,
    _random_features,
    _ridge_solve,
    feature_count,
    get_activation,
    multi_indices,
    poly_features,
)
from .reservoirs import EspNotCertifiedError, LinearReservoir, certify_esp, final_states
from .targets import check_sampler

__all__ = [
    "TrainConfig",
    "fit_linear_readout",
    "fit_polynomial_readout",
    "fit_network_readout",
]


@dataclass(frozen=True)
class TrainConfig:
    """Sampling and regularization choices for a readout fit.

    Windows have window_length rows, and features are the states after
    all of them.  washout is validated (0 <= washout < window_length) but
    not read yet.  ridge is the penalty applied in standardized feature
    space; all randomness derives from seed.
    """

    ridge: float
    paths: int
    window_length: int
    washout: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.ridge < 0:
            raise ValueError("ridge must be >= 0")
        if self.paths < 5:
            raise ValueError("need at least 5 paths for the holdout split")
        if self.window_length < 1:
            raise ValueError("window_length must be >= 1")
        if not 0 <= self.washout < self.window_length:
            raise ValueError("washout must satisfy 0 <= washout < window_length")


def _rmse(pred: np.ndarray, y: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - y) ** 2)))


def _holdout_mask(M: int) -> np.ndarray:
    return np.arange(M) % 5 == 4


def _sample_states(system, target: FunctionalSpec, sampler: ProcessSampler, cfg: TrainConfig):
    report = certify_esp(system)
    if not report.certified:
        raise EspNotCertifiedError(
            f"refusing to train: ESP certificate failed ({report.method}, "
            f"bound {report.bound:.4g})"
        )
    check_sampler(target, sampler)
    data = sample_paths(sampler, cfg.window_length, cfg.paths, cfg.seed)
    states = final_states(system, data)
    y = evaluate_functional_batch(target, data)
    return states, y


def _fit_on_features(feats: np.ndarray, y: np.ndarray, cfg: TrainConfig):
    hold = _holdout_mask(cfg.paths)
    w, rank = _ridge_solve(feats[~hold], y[~hold], cfg.ridge)
    if rank < feats.shape[1] and cfg.ridge == 0.0:
        warnings.warn(
            f"normal equations are singular (rank {rank} of {feats.shape[1]}); "
            "consider ridge > 0",
            RuntimeWarning,
            stacklevel=3,
        )
    pred = feats @ w
    diag = {
        "lambda": cfg.ridge,
        "paths": cfg.paths,
        "rmse_train": _rmse(pred[~hold], y[~hold]),
        "rmse_holdout": _rmse(pred[hold], y[hold]),
        "coeff_count": int(feats.shape[1]),
        "seed": cfg.seed,
        "rank": rank,
    }
    return w, diag


def fit_linear_readout(system, target: FunctionalSpec, sampler: ProcessSampler,
                       cfg: TrainConfig):
    """Ridge-fit W so W . x_0 tracks the target; returns (readout, diagnostics)."""
    states, y = _sample_states(system, target, sampler, cfg)
    w, diag = _fit_on_features(states, y, cfg)
    return LinearReadout(w), diag


def fit_polynomial_readout(system: LinearReservoir, degree: int, target: FunctionalSpec,
                           sampler: ProcessSampler, cfg: TrainConfig):
    """Ridge-fit a polynomial readout of the given degree on final states.

    The input law's exponential moment condition is decided once per
    experiment, from the sampler's kind, in harness.run_experiment, not here.
    """
    if not isinstance(system, LinearReservoir):
        raise TypeError("polynomial readouts are fit on linear reservoir states")
    if not _integer(degree, 0):
        raise ValueError(f"degree must be an integer >= 0, got {degree!r}")
    states, y = _sample_states(system, target, sampler, cfg)
    C = feature_count(system.N, degree)
    feats = poly_features(states, degree)
    w, diag = _fit_on_features(feats, y, cfg)
    coeffs = {
        mi: float(w[i])
        for i, mi in enumerate(multi_indices(system.N, degree))
        if w[i] != 0.0
    }
    assert len(w) == C
    return PolynomialReadout(system.N, degree, coeffs), diag


def fit_network_readout(system, hidden_units: int, target: FunctionalSpec,
                        sampler: ProcessSampler, cfg: TrainConfig,
                        activation: str = "tanh"):
    """Random-feature fit of a single-hidden-layer readout.

    Hidden directions are Gaussian scaled by 1/sqrt(N); thresholds are
    uniform over each unit's projected state range; only the output layer
    is solved, by ridge least squares.  Growing hidden_units with the same
    seed extends the hidden layer by new units, keeping earlier ones fixed.
    """
    if not _integer(hidden_units, 1):
        raise ValueError(f"hidden_units must be an integer >= 1, got {hidden_units!r}")
    get_activation(activation)  # an unknown name raises before any path is drawn
    states, y = _sample_states(system, target, sampler, cfg)
    # separate streams so unit j's direction and threshold do not depend on
    # how many units follow it (nested prefixes for growing hidden_units)
    rng_dir = np.random.default_rng([cfg.seed, 0xA1FA])
    rng_thr = np.random.default_rng([cfg.seed, 0x7E7A])
    alpha, theta, feats = _random_features(states, hidden_units, np.sqrt(states.shape[1]),
                                           activation, rng_dir, rng_thr)
    w, diag = _fit_on_features(feats, y, cfg)
    return NetworkReadout(w, alpha, theta, activation), diag
