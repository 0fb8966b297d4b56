"""Stationary input process samplers and their exponential moment condition.

Every path is generated from its own counter-based stream keyed by
(seed, path index), so path i is the same no matter how many paths are
drawn, in what order, or across how many workers.  Windows follow the
core convention: row k holds the value k steps in the past.
exp_moment_check decides the exponential moment condition of a sampler
from its kind and params alone; it draws no path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import _finite_real, _integer, _run_blocks, _seed, evaluate_functional_batch

__all__ = [
    "ProcessSampler",
    "iid_gaussian",
    "iid_uniform_bounded",
    "iid_lognormal",
    "arma",
    "garch11",
    "path_rng",
    "sample_paths",
    "MomentVerdict",
    "MomentDiagnostic",
    "exp_moment_check",
    "shift_invariance_probe",
]

_MASK64 = (1 << 64) - 1
_thread = threading.local()


def path_rng(seed: int, path: int) -> np.random.Generator:
    """Generator for one path, keyed by (seed, path) in the Philox key space.

    The 128-bit key is seed in the high word and path index in the low
    word; streams for distinct (seed, path) pairs are independent and the
    mapping contains no global state.  Each thread owns one generator that
    every call re-keys (counter 0, empty buffer), so the draws equal those
    of a fresh np.random.Philox(key=...) but the returned generator is only
    valid until the calling thread's next path_rng call.
    """
    try:
        rng, state = _thread.rng, _thread.state
    except AttributeError:
        rng = _thread.rng = np.random.Generator(np.random.Philox(key=0))
        state = _thread.state = rng.bit_generator.state
    key = state["state"]["key"]
    key[0], key[1] = int(path) & _MASK64, int(seed) & _MASK64
    rng.bit_generator.state = state
    return rng


# the params each kind accepts: required keys, then optional keys with defaults
_PARAMS = {
    "iid_gaussian": ((), {"mean": 0.0, "std": 1.0}),
    "iid_uniform_bounded": (("a_min", "a_max"), {}),
    "iid_lognormal": ((), {"mu": 0.0, "sigma": 1.0}),
    "arma": ((), {"ar": (), "ma": (), "std": 1.0}),
    "garch11": (("omega", "alpha", "beta"), {}),
}
_IID_KINDS = ("iid_gaussian", "iid_uniform_bounded", "iid_lognormal")
_KINDS = tuple(_PARAMS)


@dataclass(frozen=True)
class ProcessSampler:
    """Stationary n-channel input process.

    kind is one of iid_gaussian, iid_uniform_bounded, iid_lognormal, arma,
    garch11; params are validated per kind at construction: only the
    kind's own keys, every value a finite real (ar and ma sequences of
    them).  arma and garch11 are univariate.
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; choices {list(_KINDS)}")
        if self.n < 1:
            raise ValueError("channel count n must be >= 1")
        required, defaults = _PARAMS[self.kind]
        unknown = self.params.keys() - set(required) - defaults.keys()
        if unknown:
            raise ValueError(f"{self.kind} takes no params {sorted(unknown)}; "
                             f"allowed {sorted(set(required) | defaults.keys())}")
        missing = set(required) - self.params.keys()
        if missing:
            raise ValueError(f"{self.kind} needs params {sorted(missing)}")
        p = {**defaults, **self.params}
        for key, value in p.items():
            if key in ("ar", "ma"):
                if not isinstance(value, (list, tuple)) or not all(map(_finite_real, value)):
                    raise ValueError(f"{key} must be a sequence of finite reals")
                p[key] = tuple(float(c) for c in value)
            elif not _finite_real(value):
                raise ValueError(f"{key} must be a finite real, got {value!r}")
        if self.kind == "iid_gaussian":
            if p["std"] <= 0:
                raise ValueError("std must be > 0")
        elif self.kind == "iid_uniform_bounded":
            if not p["a_min"] < p["a_max"]:
                raise ValueError("need a_min < a_max")
            if not math.isfinite(p["a_max"] - p["a_min"]):
                raise ValueError("a_max - a_min overflows")
        elif self.kind == "iid_lognormal":
            if p["sigma"] <= 0:
                raise ValueError("sigma must be > 0")
        elif self.kind == "arma":
            if self.n != 1:
                raise ValueError("arma sampler is univariate")
            if p["std"] <= 0:
                raise ValueError("innovation std must be > 0")
            _check_roots_outside(p["ar"], "ar")
            _check_roots_outside(tuple(-c for c in p["ma"]), "ma")
        elif self.kind == "garch11":
            if self.n != 1:
                raise ValueError("garch11 sampler is univariate")
            if p["omega"] <= 0:
                raise ValueError("omega must be > 0")
            if p["alpha"] < 0 or p["beta"] < 0:
                raise ValueError("alpha and beta must be >= 0")
            if p["alpha"] + p["beta"] >= 1:
                raise ValueError(
                    f"stationarity needs alpha + beta < 1, got {p['alpha'] + p['beta']}"
                )
        object.__setattr__(self, "params", p)

    @property
    def iid(self) -> bool:
        """True when successive values are independent draws."""
        return self.kind in _IID_KINDS

    # -- characteristic time and burn-in -------------------------------------

    def characteristic_time(self) -> float:
        """Rough memory scale in steps; 1 for iid kinds."""
        p = self.params
        if self.iid:
            return 1.0
        if self.kind == "arma":
            ar, ma = p["ar"], p["ma"]
            rho = 0.0
            if ar:
                roots = np.roots(np.r_[[-c for c in ar[::-1]], 1.0])
                if roots.size:
                    # stationarity puts the roots outside the unit circle;
                    # the AR decay rate is the largest reciprocal modulus
                    rho = float(np.max(1.0 / np.abs(roots)))
            tau = 1.0 / (1.0 - rho)
            return tau + len(ma)
        if self.kind == "garch11":
            return 1.0 / (1.0 - (p["alpha"] + p["beta"]))
        raise AssertionError(self.kind)

    def burn_in(self) -> int:
        """Discarded leading steps: max(1000, 50 x characteristic time).

        Zero for iid kinds, whose windows are drawn directly.
        """
        if self.iid:
            return 0
        return max(1000, int(math.ceil(50 * self.characteristic_time())))


def _check_roots_outside(coeffs: tuple, which: str) -> None:
    """Require all roots of 1 - c_1 z - ... - c_q z^q outside the unit circle."""
    if not coeffs:
        return
    poly = np.r_[[-c for c in coeffs[::-1]], 1.0]
    roots = np.roots(poly)
    if roots.size and np.min(np.abs(roots)) <= 1.0 + 1e-12:
        raise ValueError(f"{which} polynomial has a root inside or on the unit circle")


# ---------------------------------------------------------------------------
# sampler factories


def iid_gaussian(n: int = 1, mean: float = 0.0, std: float = 1.0) -> ProcessSampler:
    return ProcessSampler("iid_gaussian", n, {"mean": float(mean), "std": float(std)})


def iid_uniform_bounded(a_min: float, a_max: float, n: int = 1) -> ProcessSampler:
    return ProcessSampler(
        "iid_uniform_bounded", n, {"a_min": float(a_min), "a_max": float(a_max)}
    )


def iid_lognormal(n: int = 1, mu: float = 0.0, sigma: float = 1.0) -> ProcessSampler:
    return ProcessSampler("iid_lognormal", n, {"mu": float(mu), "sigma": float(sigma)})


def arma(ar=(), ma=(), std: float = 1.0) -> ProcessSampler:
    return ProcessSampler("arma", 1, {"ar": tuple(ar), "ma": tuple(ma), "std": float(std)})


def garch11(omega: float, alpha: float, beta: float) -> ProcessSampler:
    return ProcessSampler(
        "garch11", 1, {"omega": float(omega), "alpha": float(alpha), "beta": float(beta)}
    )


# ---------------------------------------------------------------------------
# path generation

# a dependent-kind block of paths holds its noise in at most this many
# float64 values (30 MiB), one buffer per sample_paths call; values do not
# depend on it
_BLOCK_VALUES = (1 << 22) - (1 << 18)


def sample_paths(s: ProcessSampler, T: int, M: int, seed: int, path_offset: int = 0) -> np.ndarray:
    """M stationary windows as an array of shape (M, T, n).

    Path i uses the stream keyed by (seed, path_offset + i).  iid kinds
    fill path i's (T, n) values from that stream in C order.  Dependent
    kinds simulate burn_in() + T chronological steps per path and keep the
    last T, reversed into lag order.  They run in blocks of paths that
    share one noise buffer of a fixed byte budget, so memory beyond the
    (M, T, n) result grows neither with M nor with the worker count.  The
    worker threads draw a block's noise (core._run_blocks; the draws call
    no BLAS, so every usable CPU takes part), then the calling thread runs
    the recursion (_simulate) once over the whole block.  Paths are
    independent and the recursion works row by row, so the values depend
    neither on the worker count nor on the block size.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    if not _seed(seed):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    out = np.empty((M, T, s.n))
    if s.iid:
        # standard variates straight into the result, then the kind's map in
        # place: a_min + (a_max - a_min) u (numpy's uniform), mean + std x and
        # exp(mu + sigma x), each in that operation order
        p, bounded = s.params, s.kind == "iid_uniform_bounded"
        for i in range(M):
            rng = path_rng(seed, path_offset + i)
            (rng.random if bounded else rng.standard_normal)(out=out[i])
        if bounded:
            scale, shift = p["a_max"] - p["a_min"], p["a_min"]
        else:
            scale, shift = (p["std"], p["mean"]) if s.kind == "iid_gaussian" else (p["sigma"], p["mu"])
        out *= scale
        out += shift
        return np.exp(out, out=out) if s.kind == "iid_lognormal" else out

    burn = s.burn_in()
    total = burn + T
    noise = np.empty((max(1, min(M, _BLOCK_VALUES // total)), total))
    for start in range(0, M, len(noise)):
        eps = noise[: M - start]

        def draw(i, j):
            for k in range(i, j):
                path_rng(seed, path_offset + start + k).standard_normal(total, out=eps[k])

        _run_blocks(draw, len(eps), 64, blas=False)
        out[start : start + len(eps), :, 0] = _simulate(s, eps, burn)[:, ::-1]
    return out


def _simulate(s: ProcessSampler, eps: np.ndarray, burn: int) -> np.ndarray:
    """Chronological steps burn.. of a dependent kind driven by noise eps (paths x steps).

    eps may be overwritten.
    """
    p = s.params
    if s.kind == "arma":
        eps *= p["std"]
        # x_t = sum ar_i x_{t-i} + eps_t + sum ma_j eps_{t-j}
        return _lfilter(np.r_[1.0, p["ma"]], np.r_[1.0, [-c for c in p["ar"]]], eps, burn)
    if s.kind == "garch11":
        omega, alpha, beta = p["omega"], p["alpha"], p["beta"]
        kept = np.empty((len(eps), eps.shape[1] - burn))
        var = np.full(len(eps), omega / (1.0 - alpha - beta))  # start at unconditional variance
        for t in range(eps.shape[1]):
            z = np.sqrt(var) * eps[:, t]
            if t >= burn:
                kept[:, t - burn] = z
            var = omega + alpha * z**2 + beta * var
        return kept
    raise AssertionError(s.kind)


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, burn: int) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x, axis=1)[:, burn:] for a[0] = 1, operation for operation.

    Only the kept steps t >= burn are stored.
    """
    total = x.shape[1]
    y = np.empty((x.shape[0], total - burn))
    if len(a) == 1:  # no AR part: lfilter convolves each row
        for y_row, x_row in zip(y, x):
            y_row[:] = np.convolve(b, x_row)[burn:total]
        return y
    L = max(len(a), len(b))
    b, a = np.r_[b, np.zeros(L - len(b))], np.r_[a, np.zeros(L - len(a))]
    z = np.zeros((L - 1, x.shape[0]))  # transposed direct form II delays
    for t in range(total):
        xt = x[:, t]
        yt = z[0] + b[0] * xt
        if t >= burn:
            y[:, t - burn] = yt
        z[:-1] = z[1:] + np.outer(b[1:-1], xt) - np.outer(a[1:-1], yt)
        z[-1] = xt * b[-1] - yt * a[-1]
    return y


# ---------------------------------------------------------------------------
# exponential moment condition


class MomentVerdict(str, Enum):
    """Exponential moment finite (plausible) or infinite (suspect_infinite), proved per kind."""

    PLAUSIBLE = "plausible"
    SUSPECT_INFINITE = "suspect_infinite"


@dataclass(frozen=True)
class MomentDiagnostic:
    """E[exp(alpha * sum_{k<=K} sum_i |z_i,-k|)] < inf at rate alpha and depth K.

    value: the closed form (inf when infinite or past float range), else None.
    """

    alpha: float
    K: int
    value: float | None
    verdict: MomentVerdict
    reason: str


def exp_moment_check(s: ProcessSampler, alpha: float, K: int) -> MomentDiagnostic:
    """Decide the exponential moment condition from the sampler's kind and params.

    iid Gaussian and bounded uniform laws, Gaussian ARMA and garch11 with
    alpha = 0 (iid N(0, omega / (1 - beta))) have every exponential moment;
    lognormal laws and garch11 with alpha > 0, whose stationary tail is a
    power law (Kesten-Goldie; Mikosch & Starica, Ann. Statist. 28, 2000),
    have none.  The kind alone decides the verdict; no path is drawn.
    """
    if not (_finite_real(alpha) and alpha > 0):
        raise ValueError(f"alpha must be a finite real > 0, got {alpha!r}")
    if not _integer(K, 0):
        raise ValueError(f"K must be an integer >= 0, got {K!r}")
    p, lags = s.params, s.n * (K + 1)
    if s.kind == "iid_gaussian":
        holds, reason = True, "Gaussian marginal: every exponential moment is finite"
        value = _closed_form(_gaussian_abs_mgf, alpha, p["mean"], p["std"], lags=lags)
    elif s.kind == "iid_uniform_bounded":
        holds, reason = True, "bounded support: every exponential moment is finite"
        value = _closed_form(_uniform_abs_mgf, alpha, p["a_min"], p["a_max"], lags=lags)
    elif s.kind == "iid_lognormal":
        holds, reason = False, "lognormal tail: E exp(alpha |z|) is infinite for alpha > 0"
        value = math.inf
    elif s.kind == "arma":
        holds, reason = True, "stationary Gaussian ARMA: every exponential moment is finite"
        value = None  # the window's lags are correlated: no closed form
    elif p["alpha"] == 0:
        holds, reason = True, "GARCH(1,1) with alpha = 0 is iid N(0, omega / (1 - beta))"
        sigma = math.sqrt(p["omega"] / (1.0 - p["beta"]))
        value = _closed_form(_gaussian_abs_mgf, alpha, 0.0, sigma, lags=lags)
    else:
        holds, reason = False, "GARCH(1,1) with alpha > 0 has a power-law tail (Kesten-Goldie)"
        value = math.inf
    verdict = MomentVerdict.PLAUSIBLE if holds else MomentVerdict.SUSPECT_INFINITE
    return MomentDiagnostic(float(alpha), int(K), value, verdict, reason)


def _closed_form(abs_mgf, *args, lags: int) -> float:
    """abs_mgf(*args) ** lags, the value over lags independent values; inf past float range."""
    try:
        return abs_mgf(*args) ** lags
    except OverflowError:
        return math.inf


def _gaussian_abs_mgf(alpha: float, mu: float, sigma: float) -> float:
    """E exp(alpha |X|) for X ~ N(mu, sigma^2); may raise OverflowError."""
    r2 = math.sqrt(2.0)
    return math.exp(alpha**2 * sigma**2 / 2.0) * 0.5 * (
        math.exp(alpha * mu) * (1.0 + math.erf((mu / sigma + alpha * sigma) / r2))
        + math.exp(-alpha * mu) * (1.0 + math.erf((alpha * sigma - mu / sigma) / r2)))


def _uniform_abs_mgf(alpha: float, a: float, b: float) -> float:
    """E exp(alpha |U|) for U uniform on [a, b]; may raise OverflowError."""
    if a < 0 < b:
        integral = (math.expm1(alpha * b) + math.expm1(-alpha * a)) / alpha
    else:  # one-sided: exp(alpha * near end) * expm1(alpha * width), free of cancellation
        integral = math.exp(alpha * min(abs(a), abs(b))) * math.expm1(alpha * (b - a)) / alpha
    return integral / (b - a)


# ---------------------------------------------------------------------------
# stationarity probe


def shift_invariance_probe(
    s: ProcessSampler,
    spec,
    p: float,
    shifts,
    T: int,
    M: int,
    seed: int,
) -> dict[int, "object"]:
    """Per-shift estimates of E[|H(shifted Z)|^p]^(1/p).

    shifts are non-positive integers; shift t evaluates the functional on
    the window seen t steps in the past, generated with |t| extra leading
    steps.  Each shift uses its own derived seed so the estimates are
    independent; for a stationary sampler they agree up to Monte Carlo
    noise.
    """
    from . import metrics

    shifts = sorted(set(int(t) for t in shifts), reverse=True)
    if any(t > 0 for t in shifts):
        raise ValueError("shifts must be <= 0")
    deepest = -min(shifts) if shifts else 0
    out = {}
    for j, t in enumerate(shifts):
        sub_seed = (seed * 1_000_003 + j) & _MASK64
        data = sample_paths(s, T + deepest, M, sub_seed)
        view = data[:, -t : -t + T, :]
        vals = evaluate_functional_batch(spec, view)
        out[t] = metrics.lp_norm_of_values(vals, p=p, seed=sub_seed)
    return out
