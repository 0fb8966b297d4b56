"""Core types for causal functionals on finite input windows.

A window is a (T, n) array holding the most recent T observations of an
n-channel discrete-time process, row k being the value k steps in the
past; a batch of M windows is an (M, T, n) array.  Functionals of the
semi-infinite past are evaluated on such truncations; the targets module
registers the concrete evaluators.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

__all__ = [
    "FunctionalSpec",
    "register_evaluator",
    "evaluate_functional_batch",
    "nilpotent_product",
    "truncated_conditional_error",
    "write_window_csv",
    "read_window_csv",
]


# the number rules every constructor and config check shares
def _integer(v, lo: float = -math.inf) -> bool:
    """An integer, not a boolean, >= lo."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= lo


def _finite_real(v) -> bool:
    """A real, not a boolean, inside float range: nan, inf and ints past it fail."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _seed(v) -> bool:
    """An integer in [0, 2**64): one word of a path stream's key, so no two seeds share streams."""
    return _integer(v, 0) and v < 2**64


@dataclass(frozen=True)
class FunctionalSpec:
    """Description of a causal, time-invariant functional.

    kind selects a registered evaluator, n is the expected channel count,
    memory is the exact memory depth in lags (None for unbounded), and
    params hold the kind-specific real parameters.
    """

    kind: str
    n: int
    memory: int | None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("channel count n must be >= 1")
        if self.memory is not None and self.memory < 0:
            raise ValueError("memory must be >= 0 or None")


# kind -> evaluator acting on a batch of windows, shape (M, T, n) -> (M,)
_EVALUATORS: dict[str, Callable[[FunctionalSpec, np.ndarray], np.ndarray]] = {}


def register_evaluator(kind: str, fn: Callable[[FunctionalSpec, np.ndarray], np.ndarray]) -> None:
    """Register the batch evaluator for a functional kind."""
    _EVALUATORS[kind] = fn


def evaluate_functional_batch(spec: FunctionalSpec, data: np.ndarray) -> np.ndarray:
    """Evaluate spec on a stack of windows, shape (M, T, n) -> (M,)."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError(f"batch data must be 3-d (M, T, n), got shape {data.shape}")
    M, T, n = data.shape
    if n != spec.n:
        raise ValueError(f"spec expects {spec.n} channels, window has {n}")
    if spec.memory is not None and T < spec.memory + 1:
        raise ValueError(
            f"functional has memory {spec.memory}, window length {T} is too short"
        )
    try:
        fn = _EVALUATORS[spec.kind]
    except KeyError:
        raise ValueError(f"no evaluator registered for kind {spec.kind!r}") from None
    out = np.asarray(fn(spec, data), dtype=np.float64)
    if out.shape != (M,):
        raise RuntimeError(f"evaluator for {spec.kind!r} returned shape {out.shape}")
    return out


# ---------------------------------------------------------------------------
# nilpotent shift algebra


def nilpotent_product(N: int, indices) -> np.ndarray:
    """Product of unit shift matrices, factors applied right to left.

    indices = (j_0, ..., j_L) denotes the product A_{j_L} ... A_{j_0} where
    A_j has its only unit entry at (j+1, j).  The product is nonzero exactly
    when the indices form a consecutive run j_i = j_0 + i, in which case it
    has a single unit entry at row j_L + 1, column j_0.  Computed without
    matrix multiplication.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("need at least one factor")
    for j in indices:
        if not 1 <= j <= N - 1:
            raise ValueError(f"index {j} outside 1..{N - 1}")
    out = np.zeros((N, N))
    consecutive = all(indices[i] == indices[0] + i for i in range(len(indices)))
    if consecutive and indices[-1] + 1 <= N:
        out[indices[-1], indices[0] - 1] = 1.0
    return out


# ---------------------------------------------------------------------------
# block runs on several threads

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _positive_int(raw: str | None) -> int | None:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        return None
    return value if value > 0 else None


def _worker_count(blas: bool = True) -> int:
    """Threads for block runs: RCUNIV_WORKERS, else usable CPUs (per BLAS thread).

    Blocks that spend next to none of their time in BLAS (blas=False) use
    every usable CPU.  For other blocks, the CPUs are divided by the BLAS
    thread count, read from the first of OPENBLAS_NUM_THREADS,
    MKL_NUM_THREADS and OMP_NUM_THREADS that is set; unset (or not a
    positive integer) lets BLAS use every core and gives one worker, so
    workers are never stacked on a threaded BLAS.
    """
    raw = os.environ.get("RCUNIV_WORKERS")
    if raw is not None:
        return _positive_int(raw) or 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if not blas:
        return cpus
    blas_threads = next((os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ), None)
    return max(1, cpus // (_positive_int(blas_threads) or cpus))


def _run_blocks(fill: Callable[[int, int], None], M: int, rows: int, blas: bool = True) -> None:
    """Call fill(start, stop) on each fixed block of rows rows covering range(M).

    The calling thread and a pool of _worker_count(blas) - 1 threads take
    blocks in turn, and the call returns when every block is done; pass
    blas=False when fill spends next to none of its time in BLAS (the
    noise draws of an ARMA/GARCH path block; the past-resampling tasks,
    about 3% in matvecs) to use every CPU.  fill must write only its own
    rows, so results do not depend on the worker count.
    When blocks raise, the exception of the lowest-index one is raised,
    whatever the worker count.
    """
    blocks = range(0, M, rows)
    workers = min(_worker_count(blas), len(blocks))
    starts = iter(blocks)
    lock = threading.Lock()
    failed: dict[int, Exception] = {}

    def drain():
        while True:
            with lock:
                start = next(starts, None)
                if start is None or (failed and start > min(failed)):
                    return
            try:
                fill(start, min(start + rows, M))
            except Exception as exc:  # re-raised in the calling thread below
                with lock:
                    failed[start] = exc

    if workers <= 1:
        drain()
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            helpers = [pool.submit(drain) for _ in range(workers - 1)]
            drain()
            for helper in helpers:
                helper.result()
    if failed:
        raise failed[min(failed)]


# ---------------------------------------------------------------------------
# truncated conditional expectation


def truncated_conditional_error(
    spec: FunctionalSpec,
    K: int,
    sampler,
    p: float,
    M: int,
    seed: int,
    window_length: int | None = None,
    inner_samples: int = 200,
):
    """Monte Carlo estimate of || H(Z) - E[H(Z) | lags 0..K] ||_p.

    The conditional expectation is estimated per path by holding lags 0..K
    fixed and redrawing the deeper past inner_samples times, which is valid
    only for samplers with independent innovations (the iid kinds).  Windows
    of window_length rows stand in for the full past; pick it so the
    truncation tail of the functional is negligible.  Path i's window is
    sample_paths path i and its redrawn deeper pasts are the rows of path
    M + i, both under seed.  Tasks of 16 paths draw, evaluate and
    difference on the worker threads, with one replica buffer per thread,
    so memory does not grow with M.  With nothing to redraw
    (window_length == K + 1) the estimate is exactly 0 and draws no path.

    Returns an LpEstimate.  Raises ValueError for dependent-innovation
    samplers, K < 0, or M < 2.
    """
    from . import metrics
    from .processes import sample_paths

    if K < 0:
        raise ValueError("cutoff K must be >= 0")
    if M < 2:
        raise ValueError("need M >= 2 paths")
    if inner_samples < 1:
        raise ValueError("need inner_samples >= 1")
    if not sampler.iid:
        raise ValueError(
            f"sampler kind {sampler.kind!r} does not have independent innovations; "
            "the past-resampling estimator is invalid"
        )
    if window_length is None:
        if spec.memory is None:
            window_length = max(2 * (K + 1), 64)
        else:
            window_length = max(spec.memory + 1, K + 1)
    T = int(window_length)
    if T < K + 1:
        raise ValueError(f"window_length {T} must be at least K + 1 = {K + 1}")
    if spec.memory is not None and T < spec.memory + 1:
        raise ValueError("window_length shorter than the functional's memory")
    if sampler.n != spec.n:
        raise ValueError(f"spec expects {spec.n} channels, sampler draws {sampler.n}")

    n = sampler.n
    R = inner_samples
    deep = T - (K + 1)  # rows to resample per inner draw
    diffs = np.zeros(M)
    if deep == 0:
        # H is measurable w.r.t. the kept lags; conditional error is zero
        return metrics.lp_norm_of_values(diffs, p=p, seed=seed)
    buffers = threading.local()  # one task's replica windows per thread, reused

    def fill(start, stop):
        m = stop - start
        if not hasattr(buffers, "rep"):
            buffers.rep = np.empty((16, R, T, n))
        rep = buffers.rep[:m]
        base = sample_paths(sampler, T, m, seed, path_offset=start)
        # replicas keep lags 0..K and redraw the deeper past from path M + i's stream
        rep[:, :, : K + 1] = base[:, None, : K + 1]
        past = sample_paths(sampler, R * deep, m, seed, path_offset=M + start)
        rep[:, :, K + 1 :] = past.reshape(m, R, deep, n)
        cond = evaluate_functional_batch(spec, rep.reshape(m * R, T, n))
        diffs[start:stop] = evaluate_functional_batch(spec, base) - cond.reshape(m, R).mean(axis=1)

    # each path has its own streams and output rows, so the 16-path tasks move no value
    _run_blocks(fill, M, 16, blas=False)
    return metrics.lp_norm_of_values(diffs, p=p, seed=seed)


# ---------------------------------------------------------------------------
# window CSV round trip


def write_window_csv(data: np.ndarray, path) -> None:
    """Write a (T, n) window as CSV with header lag,ch0,...,ch{n-1}."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError(f"window data must be 2-d (T, n), got shape {data.shape}")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lag"] + [f"ch{i}" for i in range(data.shape[1])])
        for k, row in enumerate(data):
            writer.writerow([k] + [repr(float(v)) for v in row])


def read_window_csv(path) -> np.ndarray:
    """Read a window written by write_window_csv as a (T, n) float64 array; bit-exact."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if len(header) < 2 or header[0] != "lag":
            raise ValueError(f"{path}: expected header lag,ch0,...")
        n = len(header) - 1
        rows = []
        for line, row in enumerate(reader):
            if len(row) != n + 1:
                raise ValueError(f"{path}: row {line} has {len(row)} fields, want {n + 1}")
            if int(row[0]) != line:
                raise ValueError(f"{path}: lag column must be 0,1,... in order")
            rows.append([float(v) for v in row[1:]])
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.array(rows, dtype=np.float64)
    if not np.isfinite(data).all():
        raise ValueError(f"{path}: window entries must be finite")
    return data
