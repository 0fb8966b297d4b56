"""Core types for causal functionals on finite input windows.

A window is a (T, n) array holding the most recent T observations of an
n-channel discrete-time process, row k being the value k steps in the
past; a batch of M windows is an (M, T, n) array.  Functionals of the
semi-infinite past are evaluated on such truncations; the targets module
registers the concrete evaluators.

The argument rules of the whole package live here: every public builder,
sampler, target, fit and estimator checks its counts with
_require_integers, its reals with _require_numbers, its names with
_require_choice, its seed with _require_seed, its arrays with _frozen (or
_floats), its window batches with _batch and the factors of a trig
product with _trig_factors, so a bad argument raises a ValueError that
names it before anything is drawn.  Configs, sampler documents and
target params check their keys with _require_keys.
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
    "truncated_conditional_error",
    "write_window_csv",
    "read_window_csv",
]


# the argument rules of every public entry point: two predicates, the
# raisers that name the argument, the read-only array copy and the batch form
def _integer(v, lo: float = -math.inf) -> bool:
    """An integer, not a boolean, >= lo."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= lo


def _number(v, lo: float = -math.inf, strict: bool = False) -> bool:
    """A real, not a boolean, inside float range, >= lo (> lo when strict).

    nan, inf and integers past float range fail.
    """
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max and (v > lo if strict else v >= lo))


def _seed(v) -> bool:
    """An integer in [0, 2**64): one word of a path stream's key, so no two seeds share streams."""
    return _integer(v, 0) and v < 2**64


def _require_integers(lo: int, **values) -> None:
    """Raise ValueError naming the first value not an integer >= lo."""
    for name, v in values.items():
        if not _integer(v, lo):
            raise ValueError(f"{name} must be an integer >= {lo}, got {v!r}")


def _require_numbers(lo: float = -math.inf, strict: bool = False, **values) -> None:
    """Raise ValueError naming the first value not a finite number >= lo (> lo if strict)."""
    for name, v in values.items():
        if not _number(v, lo, strict):
            bound = "" if lo == -math.inf else f" {'>' if strict else '>='} {lo}"
            raise ValueError(f"{name} must be a finite number{bound}, got {v!r}")


def _require_choice(choices, **values) -> None:
    """Raise ValueError naming the first value that is not a string in choices."""
    for name, v in values.items():
        if not (isinstance(v, str) and v in choices):
            raise ValueError(f"{name} must be one of {sorted(choices)}, got {v!r}")


def _require_seed(seed, name: str = "seed") -> None:
    """Raise ValueError, naming the seed, unless it is an integer in [0, 2**64)."""
    if not _seed(seed):
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {seed!r}")


def _check_draw_args(p, M, seed) -> None:
    """Raise ValueError for a bad norm order, path count or seed; draws nothing."""
    _require_numbers(1, p=p)
    _require_integers(2, M=M)
    _require_seed(seed)


def _has_bool(x) -> bool:
    """Whether x is a boolean or boolean array, or a (nested) list or tuple holding one."""
    if isinstance(x, (list, tuple)):
        return any(map(_has_bool, x))
    return isinstance(x, bool) or getattr(x, "dtype", None) == np.bool_


def _floats(x, name: str) -> np.ndarray:
    """x as a float64 array; ValueError naming it unless its entries are integers
    or floats (not booleans, strings or objects)."""
    arr = np.asarray(x)
    kind = arr.dtype.kind
    if kind in "iuf" and _has_bool(x):  # numpy promotes booleans listed beside numbers
        kind = "b"
    if kind not in "iuf":
        kind = {"b": "boolean", "U": "string", "S": "string"}.get(kind, arr.dtype)
        raise ValueError(f"{name} must hold integers or floats, got {kind} entries")
    return arr.astype(np.float64, copy=False)


def _frozen(x, name: str, ndim: int) -> np.ndarray:
    """Read-only float64 copy, so later writes by the caller cannot reach it.

    Raises ValueError naming the array for entries that are not integers or
    floats, for a dimension other than ndim and for non-finite entries.
    """
    arr = np.array(_floats(x, name))  # a copy
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-d, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite entries")
    arr.setflags(write=False)
    return arr


def _trig_factors(freqs, sine_lags) -> tuple[np.ndarray, tuple[int, ...]]:
    """A trig product's factors: freqs as a read-only finite (K + 1, n) array and
    sine_lags as sorted unique integers in 0..K; ValueError naming either otherwise."""
    freqs = _frozen(freqs, "freqs", 2)
    if freqs.size == 0:
        raise ValueError(f"freqs must have at least one row and column, got shape {freqs.shape}")
    K = freqs.shape[0] - 1
    sine_lags = tuple(sine_lags) if np.iterable(sine_lags) else sine_lags
    if not (isinstance(sine_lags, tuple) and all(_integer(k, 0) and k <= K for k in sine_lags)):
        raise ValueError(f"sine lags must be integers in 0..{K}, got {sine_lags!r}")
    return freqs, tuple(sorted({int(k) for k in sine_lags}))


def _batch(data) -> np.ndarray:
    """data as a float64 batch of windows (M, T, n); ValueError for any other shape
    and for entries that are not integers or floats."""
    data = _floats(data, "batch data")
    if data.ndim != 3:
        raise ValueError(f"batch data must be 3-d (M, T, n), got shape {data.shape}")
    return data


def _require_keys(doc, required, optional, where: str) -> None:
    """Raise ValueError unless doc is a dict with every required key and no key
    outside required and optional, naming every missing and every unknown key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {type(doc).__name__}")
    missing, unknown = set(required) - doc.keys(), doc.keys() - set(required) - set(optional)
    wrong = [f"{which} keys {sorted(keys, key=str)}"
             for which, keys in (("missing", missing), ("unknown", unknown)) if keys]
    if wrong:
        raise ValueError(f"{' and '.join(wrong)} in {where}")


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
        _require_integers(1, n=self.n)
        if self.memory is not None:
            _require_integers(0, memory=self.memory)


# kind -> evaluator acting on a batch of windows, shape (M, T, n) -> (M,)
_EVALUATORS: dict[str, Callable[[FunctionalSpec, np.ndarray], np.ndarray]] = {}


def register_evaluator(kind: str, fn: Callable[[FunctionalSpec, np.ndarray], np.ndarray]) -> None:
    """Register the batch evaluator for a functional kind."""
    _EVALUATORS[kind] = fn


def evaluate_functional_batch(spec: FunctionalSpec, data: np.ndarray) -> np.ndarray:
    """Evaluate spec on a stack of windows, shape (M, T, n) -> (M,)."""
    data = _batch(data)
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
# block runs on several threads

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _positive_int(raw: str | None) -> int | None:
    try:
        value = int(raw)
    except (TypeError, ValueError):
        return None
    return value if value > 0 else None


# A past-resampling task (truncated_conditional_error) re-keys path_rng for
# each path's window and redrawn past while holding the GIL (about 2 us a
# key) and drops the GIL only to fill them (1.4 us for 38 normals).  When a
# path's redrawn past, R * deepest * n values, is shorter than this, the
# fills are too short for a second thread to gain anything, and two threads
# only hand the GIL back and forth.  Four sweeps of R at window 40, K 1 on a
# 2-vCPU guest put the crossover of one worker and two between 1216 and 2128
# values.  At 1024 paths, one worker against two took 11 against 26 ms at 38
# values, 21 against 39 ms at 608 and 159 against 89 ms at 7600.
_THREADED_PAST_VALUES = 1536


def _worker_count(work: str = "blas") -> int:
    """Threads for a block run of the given kind of work: RCUNIV_WORKERS, else by kind.

    "blas": blocks spend their time in BLAS (state runs).  The usable CPUs
    are divided by the BLAS thread count, read from the first of
    OPENBLAS_NUM_THREADS, MKL_NUM_THREADS and OMP_NUM_THREADS that is set;
    unset (or not a positive integer) lets BLAS use every core and gives one
    worker, so workers are never stacked on a threaded BLAS.
    "draws": blocks spend their time in numpy fills that release the GIL
    (the noise of an ARMA/GARCH path block, long redrawn pasts): every
    usable CPU.
    "gil": blocks spend their time holding the GIL (redrawn pasts shorter
    than _THREADED_PAST_VALUES): one, the calling thread.
    """
    raw = os.environ.get("RCUNIV_WORKERS")
    if raw is not None:
        return _positive_int(raw) or 1
    if work == "gil":
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    if work == "draws":
        return cpus
    blas_threads = next((os.environ[var] for var in _BLAS_THREAD_VARS if var in os.environ), None)
    return max(1, cpus // (_positive_int(blas_threads) or cpus))


def _run_blocks(fill: Callable[[int, int], None], M: int, rows: int, work: str = "blas") -> None:
    """Call fill(start, stop) on each fixed block of rows rows covering range(M).

    The calling thread and a pool of _worker_count(work) - 1 threads take
    blocks in turn, and the call returns when every block is done; with one
    worker the calling thread takes them all, in order, and no pool is made.
    fill must write only its own rows, so results do not depend on the
    worker count.
    When blocks raise, the exception of the lowest-index one is raised,
    whatever the worker count.
    """
    blocks = range(0, M, rows)
    workers = min(_worker_count(work), len(blocks))
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
    K,
    sampler,
    p: float,
    M: int,
    seed: int,
    window_length: int | None = None,
    inner_samples: int = 200,
) -> list:
    """Monte Carlo estimates of || H(Z) - E[H(Z) | lags 0..k] ||_p, one per cutoff k in K.

    The conditional expectation is estimated per path by holding lags 0..k
    fixed and redrawing the deeper past inner_samples times, which is valid
    only for samplers with independent innovations (the iid kinds).  Windows
    of window_length rows stand in for the full past; pick it so the
    truncation tail of the functional is negligible (by default it follows
    the largest cutoff).  Path i's window is sample_paths path i and its
    redrawn deeper pasts are the rows of path M + i, both under seed.
    Tasks of 16 paths draw, evaluate and difference in one block run, with
    one replica buffer per thread, so memory does not grow with M.  The run
    uses the worker threads when a path's redrawn past holds at least
    _THREADED_PAST_VALUES values and the calling thread alone below that
    (RCUNIV_WORKERS, when set, fixes the count); values do not depend on it.
    A cutoff with nothing to redraw (window_length == k + 1) reads exactly
    0; when every cutoff is such, no path is drawn.

    With R = inner_samples, the mean of R redrawn pasts adds Var(H | lags
    0..k) / R to the expected squared difference.  For p == 2 each path's
    difference is therefore multiplied by sqrt(R / (R + 1)), which makes
    the squared norm unbiased for any R >= 1, R = 1 included; value and
    stderr scale together.  For p != 2 no such form is used: the inner
    mean biases the estimate up by O(1/R).

    K is a non-empty sequence of cutoffs.  Each task's windows and its
    deepest redrawn past are drawn once and H is evaluated on the windows
    once; a cutoff's redrawn rows are a prefix of path M + i's stream, so
    each estimate equals the one for K = (k,) with the same seed and
    window_length, bit for bit.

    Returns a list of LpEstimates in the order of K.  Raises ValueError for
    dependent-innovation samplers, for a K that is not a non-empty sequence,
    for a cutoff, M, inner_samples, window_length or seed outside its
    integer range, and for p not a finite number >= 1, before any other work.
    """
    from . import metrics
    from .processes import sample_paths

    try:
        cutoffs = tuple(K)
    except TypeError:
        cutoffs = ()
    if not cutoffs or not all(_integer(k, 0) for k in cutoffs):
        raise ValueError(
            f"cutoff K must be an integer >= 0 and K a non-empty sequence of cutoffs, got {K!r}")
    _check_draw_args(p, M, seed)
    _require_integers(1, inner_samples=inner_samples)
    if not sampler.iid:
        raise ValueError(
            f"sampler kind {sampler.kind!r} does not have independent innovations; "
            "the past-resampling estimator is invalid"
        )
    K_max = max(cutoffs)
    if window_length is None:
        if spec.memory is None:
            window_length = max(2 * (K_max + 1), 64)
        else:
            window_length = max(spec.memory + 1, K_max + 1)
    T = window_length
    _require_integers(K_max + 1, window_length=T)
    if spec.memory is not None and T < spec.memory + 1:
        raise ValueError("window_length shorter than the functional's memory")
    if sampler.n != spec.n:
        raise ValueError(f"spec expects {spec.n} channels, sampler draws {sampler.n}")

    n = sampler.n
    R = inner_samples
    deeps = [T - (k + 1) for k in cutoffs]  # rows to resample per inner draw
    # a cutoff with nothing to redraw leaves H measurable w.r.t. the kept
    # lags: its conditional error is zero
    diffs = np.zeros((len(cutoffs), M))
    buffers = threading.local()  # one task's replica windows per thread, reused

    def fill(start, stop):
        m = stop - start
        if not hasattr(buffers, "rep"):
            buffers.rep = np.empty((16, R, T, n))
        rep = buffers.rep[:m]
        base = sample_paths(sampler, T, m, seed, path_offset=start)
        # replicas keep lags 0..K and redraw the deeper past from path M + i's
        # stream; each cutoff reads the first R x deep rows of the deepest draw
        past = sample_paths(sampler, R * max(deeps), m, seed, path_offset=M + start)
        values = evaluate_functional_batch(spec, base)
        for j, (k, deep) in enumerate(zip(cutoffs, deeps)):
            if deep == 0:
                continue
            rep[:, :, : k + 1] = base[:, None, : k + 1]
            rep[:, :, k + 1 :] = past[:, : R * deep].reshape(m, R, deep, n)
            cond = evaluate_functional_batch(spec, rep.reshape(m * R, T, n))
            diffs[j, start:stop] = values - cond.reshape(m, R).mean(axis=1)

    if max(deeps) > 0:
        # each path has its own streams and output rows, so neither the 16-path
        # tasks nor the worker count moves a value
        _run_blocks(fill, M, 16, "draws" if R * max(deeps) * n >= _THREADED_PAST_VALUES else "gil")
    if p == 2:
        diffs *= np.sqrt(R / (R + 1))
    return [metrics.lp_norm_of_values(d, p=p, seed=seed) for d in diffs]


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
