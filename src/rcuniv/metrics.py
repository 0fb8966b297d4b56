"""Monte Carlo L^p norms and approximation errors for window functionals.

Estimates are (1/M sum |X_i|^p)^(1/p) over independent paths with a
delta-method standard error.  Path values are filled independently per
path index and reduced with a single pairwise sum, so results do not
depend on chunking or worker count; the worker threads run inside the
state loop (reservoirs.final_states), not here.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import FunctionalSpec, evaluate_functional_batch
from .core import _worker_count  # noqa: F401  (perfbench/child.py reads metrics._worker_count)
from .processes import ProcessSampler, sample_paths
from .reservoirs import _BLOCK_ROWS, ReservoirModel
from .targets import check_sampler

__all__ = [
    "LpEstimate",
    "lp_norm_of_values",
    "lp_norm",
    "approx_error",
]

KURTOSIS_WARN = 100.0
# paths sampled and evaluated at a time; bounds the memory of evaluation.  A
# multiple of the state run's block, so a chunk's state blocks are the blocks
# of one unchunked run and the values do not depend on chunking
_EVAL_CHUNK = 4 * _BLOCK_ROWS


@dataclass(frozen=True)
class LpEstimate:
    """Monte Carlo estimate of an L^p norm."""

    p: float
    value: float
    stderr: float
    M: int
    seed: int


def lp_norm_of_values(values: np.ndarray, p: float, seed: int = 0) -> LpEstimate:
    """L^p norm estimate from already-computed path values.

    Warns when the p-th power sample is so heavy-tailed (kurtosis above
    100) that the reported standard error is unreliable.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"p must be a finite number >= 1, got {p!r}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or values.shape[0] < 1:
        raise ValueError("values must be a non-empty vector")
    M = values.shape[0]
    q = np.abs(values) ** p
    mean_q = float(np.sum(q) / M)
    if M > 3 and mean_q > 0 and np.var(q) > 0:
        dev = q - np.mean(q)
        kurt = float(np.mean(dev**4) / np.mean(dev**2) ** 2)
        if kurt > KURTOSIS_WARN:
            warnings.warn(
                f"|X|^p sample kurtosis {kurt:.1f} exceeds {KURTOSIS_WARN:.0f}; "
                "the standard error estimate is unreliable",
                RuntimeWarning,
                stacklevel=2,
            )
    if mean_q == 0.0:
        return LpEstimate(p=p, value=0.0, stderr=0.0, M=M, seed=seed)
    se_mean = float(np.std(q, ddof=1) / np.sqrt(M)) if M > 1 else float("inf")
    value = mean_q ** (1.0 / p)
    stderr = se_mean * mean_q ** (1.0 / p - 1.0) / p
    return LpEstimate(p=p, value=float(value), stderr=float(stderr), M=M, seed=seed)


def _collect_values(value_fn, sampler: ProcessSampler, T: int, M: int, seed: int) -> np.ndarray:
    """Fill per-path values, _EVAL_CHUNK paths at a time."""
    out = np.empty(M)
    for start in range(0, M, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, M)
        out[start:stop] = value_fn(sample_paths(sampler, T, stop - start, seed,
                                                path_offset=start))
    return out


def _values_fn(functional, sampler: ProcessSampler):
    if isinstance(functional, FunctionalSpec):
        check_sampler(functional, sampler)
        return lambda data: evaluate_functional_batch(functional, data)
    if isinstance(functional, ReservoirModel):
        return functional.values
    raise TypeError(
        f"expected FunctionalSpec or ReservoirModel, got {type(functional).__name__}"
    )


def lp_norm(
    functional,
    sampler: ProcessSampler,
    p: float,
    T: int,
    M: int,
    seed: int,
    tail_bound: float | None = None,
) -> LpEstimate:
    """||H(Z)||_p over M windows of length T.

    functional is a FunctionalSpec or a ReservoirModel.  When a closed-form
    truncation bound for the chosen T is passed in, a warning is raised if
    it is not below a tenth of the measured standard error.
    """
    if M < 2:
        raise ValueError("need M >= 2 paths")
    vals = _collect_values(_values_fn(functional, sampler), sampler, T, M, seed)
    est = lp_norm_of_values(vals, p=p, seed=seed)
    if tail_bound is not None and est.stderr > 0 and tail_bound >= est.stderr / 10.0:
        warnings.warn(
            f"truncation bound {tail_bound:.3g} is not negligible against "
            f"stderr {est.stderr:.3g}; increase T",
            RuntimeWarning,
            stacklevel=2,
        )
    return est


def approx_error(
    target: FunctionalSpec,
    model: ReservoirModel,
    sampler: ProcessSampler,
    p: float,
    T: int,
    M: int,
    seed: int,
) -> LpEstimate:
    """|| H_target(Z) - H_model(Z) ||_p on fresh evaluation paths.

    The evaluation seed must differ from the model's recorded training
    seed so train and eval paths never coincide.
    """
    if model.train_seed is not None and seed == model.train_seed:
        raise ValueError(
            f"evaluation seed {seed} equals the training seed; use disjoint seeds"
        )
    check_sampler(target, sampler)
    model_fn = _values_fn(model, sampler)

    def diff(data):
        return evaluate_functional_batch(target, data) - model_fn(data)

    vals = _collect_values(diff, sampler, T, M, seed)
    return lp_norm_of_values(vals, p=p, seed=seed)
