"""Monte Carlo L^p norms and approximation errors for window functionals.

Estimates are (1/M sum |X_i|^p)^(1/p) over independent paths with a
delta-method standard error.  Path values are filled independently per
path index and reduced with a single pairwise sum, so results do not
depend on chunking or worker count; the worker threads run inside the
state loop (reservoirs.final_states), not here.  approx_error scores
every readout of one system in one pass: each chunk of evaluation paths
is drawn, its target evaluated and its states run once, whatever the
number of readouts.  Both estimators check p, M and seed, and
approx_error the readouts' input dimension, before any draw.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (FunctionalSpec, _check_draw_args, _require_numbers, _require_seed,
                   evaluate_functional_batch)
from .core import _worker_count  # noqa: F401  (perfbench/child.py reads metrics._worker_count)
from .processes import ProcessSampler, sample_paths
from .readouts import _require_state_dim, eval_readout
from .reservoirs import _BLOCK_ROWS, final_states
from .targets import check_sampler

__all__ = [
    "LpEstimate",
    "lp_norm_of_values",
    "lp_norm",
    "approx_error",
    "warn_on_truncation",
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
    _require_numbers(1, p=p)
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


def _collect_values(values_fn, count: int, sampler: ProcessSampler, T: int, M: int,
                    seed: int) -> np.ndarray:
    """(count, M) per-path values, _EVAL_CHUNK paths at a time.

    values_fn maps a chunk of windows to its (count, chunk) values.
    """
    out = np.empty((count, M))
    for start in range(0, M, _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, M)
        out[:, start:stop] = values_fn(sample_paths(sampler, T, stop - start, seed,
                                                    path_offset=start))
    return out


def lp_norm(
    spec: FunctionalSpec,
    sampler: ProcessSampler,
    p: float,
    T: int,
    M: int,
    seed: int,
) -> LpEstimate:
    """||H(Z)||_p of a functional over M windows of length T."""
    if not isinstance(spec, FunctionalSpec):
        raise TypeError(f"expected a FunctionalSpec, got {type(spec).__name__}")
    _check_draw_args(p, M, seed)
    check_sampler(spec, sampler)
    (vals,) = _collect_values(lambda data: evaluate_functional_batch(spec, data), 1,
                              sampler, T, M, seed)
    return lp_norm_of_values(vals, p=p, seed=seed)


def warn_on_truncation(tail_bound: float | None, est: LpEstimate) -> None:
    """Warn when a truncation bound is not below a tenth of the estimate's stderr.

    tail_bound bounds the L^p gap between the T-row windows and the
    semi-infinite past (targets.truncation_bound); None means no sound
    bound is known, and nothing is said.
    """
    if tail_bound is not None and est.stderr > 0 and tail_bound >= est.stderr / 10.0:
        warnings.warn(
            f"truncation bound {tail_bound:.3g} is not negligible against "
            f"stderr {est.stderr:.3g}; increase T",
            RuntimeWarning,
            stacklevel=3,
        )


def approx_error(
    target: FunctionalSpec,
    system,
    readouts,
    sampler: ProcessSampler,
    p: float,
    T: int,
    M: int,
    seed: int,
    *,
    train_seed: int | None = None,
) -> list[LpEstimate]:
    """|| H_target(Z) - readout(final state of system) ||_p per readout, on fresh paths.

    readouts is a non-empty sequence of readouts of the system's states,
    and the result lists one estimate per readout in its order.  Each
    chunk of paths is drawn, its target evaluated and its states run
    once, and every readout is applied to those states, so each estimate
    is the one a single-readout call would return.  The evaluation seed
    must differ from train_seed, the seed the readouts were fit on, so
    train and eval paths never coincide; train_seed, when given, is a seed
    like any other, an integer in [0, 2**64).
    """
    readouts = list(readouts)
    if not readouts:
        raise ValueError("need at least one readout")
    _check_draw_args(p, M, seed)
    for r in readouts:
        _require_state_dim(r, system.N)
    if train_seed is not None:
        _require_seed(train_seed, "train_seed")
    if seed == train_seed:
        raise ValueError(
            f"evaluation seed {seed} equals the training seed; use disjoint seeds"
        )
    check_sampler(target, sampler)

    def diffs(data):
        y = evaluate_functional_batch(target, data)
        states = final_states(system, data)
        return [y - eval_readout(r, states) for r in readouts]

    vals = _collect_values(diffs, len(readouts), sampler, T, M, seed)
    return [lp_norm_of_values(v, p=p, seed=seed) for v in vals]
