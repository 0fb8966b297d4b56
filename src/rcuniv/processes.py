"""Stationary input process samplers and their exponential moment condition.

Every path is generated from its own counter-based stream keyed by
(seed, path index), so path i is the same no matter how many paths are
drawn, in what order, or across how many workers.  Windows follow the
core convention: row k holds the value k steps in the past.
exp_moment_check(sampler) decides from the sampler's kind and params
alone whether every exponential moment of the input law is finite, at
every rate and window depth; it takes nothing else and draws no path.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (_check_draw_args, _integer, _number, _require_choice, _require_integers,
                   _require_keys, _require_numbers, _require_seed, _run_blocks,
                   evaluate_functional_batch)

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
# the sign rule of each param that has one: its lower bound, and whether it is strict
_SIGNS = {"std": (0, True), "sigma": (0, True), "omega": (0, True), "alpha": (0,), "beta": (0,)}
_IID_KINDS = ("iid_gaussian", "iid_uniform_bounded", "iid_lognormal")
_KINDS = tuple(_PARAMS)


@dataclass(frozen=True)
class ProcessSampler:
    """Stationary n-channel input process.

    kind is one of iid_gaussian, iid_uniform_bounded, iid_lognormal, arma,
    garch11; params are validated per kind at construction: a dict of
    the kind's own keys, its required ones included, every value a finite
    real (ar and ma sequences of them), std, sigma and omega > 0 and alpha
    and beta >= 0; they are stored as floats (ar and ma as float tuples)
    once checked.  arma and garch11 are univariate.
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _require_choice(_KINDS, kind=self.kind)
        _require_integers(1, n=self.n)
        required, defaults = _PARAMS[self.kind]
        _require_keys(self.params, required, defaults, f"{self.kind} params")
        p = {**defaults, **self.params}
        for key, value in p.items():
            if key in ("ar", "ma"):
                if not isinstance(value, (list, tuple)) or not all(map(_number, value)):
                    raise ValueError(f"{key} must be a sequence of finite reals, got {value!r}")
                p[key] = tuple(map(float, value))
            else:
                _require_numbers(*_SIGNS.get(key, ()), **{key: value})
                p[key] = float(value)
        if self.kind == "iid_uniform_bounded":
            if not p["a_min"] < p["a_max"]:
                raise ValueError("need a_min < a_max")
            if not math.isfinite(p["a_max"] - p["a_min"]):
                raise ValueError("a_max - a_min overflows")
        elif not self.iid and self.n != 1:
            raise ValueError(f"{self.kind} sampler is univariate")
        if self.kind == "arma":
            _check_roots_outside(p["ar"], "ar")
            _check_roots_outside(tuple(-c for c in p["ma"]), "ma")
        elif self.kind == "garch11" and p["alpha"] + p["beta"] >= 1:
            raise ValueError(f"stationarity needs alpha + beta < 1, got {p['alpha'] + p['beta']}")
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
    return ProcessSampler("iid_gaussian", n, {"mean": mean, "std": std})


def iid_uniform_bounded(a_min: float, a_max: float, n: int = 1) -> ProcessSampler:
    return ProcessSampler("iid_uniform_bounded", n, {"a_min": a_min, "a_max": a_max})


def iid_lognormal(n: int = 1, mu: float = 0.0, sigma: float = 1.0) -> ProcessSampler:
    return ProcessSampler("iid_lognormal", n, {"mu": mu, "sigma": sigma})


def arma(ar=(), ma=(), std: float = 1.0) -> ProcessSampler:
    return ProcessSampler("arma", 1, {"ar": ar, "ma": ma, "std": std})


def garch11(omega: float, alpha: float, beta: float) -> ProcessSampler:
    return ProcessSampler("garch11", 1, {"omega": omega, "alpha": alpha, "beta": beta})


# ---------------------------------------------------------------------------
# path generation

# a dependent-kind block of paths holds its noise in at most this many
# float64 values (8 MiB: 1008 paths at burn-in 1000 + T 40), one buffer per
# sample_paths call; values do not depend on it.  Each block pays the
# recursion's per-step call overhead once: the 1040 steps of 2048 GARCH
# paths took 24 ms as one block, 25 ms as two and 40 ms as four in place,
# and 29 ms as two allocating each step's arrays (2-vCPU guest, numpy 2.4),
# so a smaller budget costs time
_BLOCK_VALUES = 1 << 20


def sample_paths(s: ProcessSampler, T: int, M: int, seed: int, path_offset: int = 0) -> np.ndarray:
    """M stationary windows as an array of shape (M, T, n).

    Path i uses the stream keyed by (seed, path_offset + i).  iid kinds
    fill path i's (T, n) values from that stream in C order.  Dependent
    kinds simulate burn_in() + T chronological steps per path and keep the
    last T, reversed into lag order.  They run in blocks of paths that
    share one noise buffer of 8 MiB (_BLOCK_VALUES; 1008 paths at the
    default burn-in and T 40), so memory beyond the (M, T, n) result grows
    neither with M nor with the worker count; the budget is not smaller
    because each block pays the recursion's per-step overhead.  The
    worker threads draw a block's noise (core._run_blocks; the draws call
    no BLAS, so every usable CPU takes part), then the calling thread runs
    the recursion (_simulate) once over the whole block.  Paths are
    independent and the recursion works row by row, so the values depend
    neither on the worker count nor on the block size.
    """
    _require_integers(1, T=T, M=M)
    _require_seed(seed)
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

        _run_blocks(draw, len(eps), 64, "draws")
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
        z, a = np.empty(len(eps)), np.empty(len(eps))
        for t in range(eps.shape[1]):
            # z = sqrt(var) eps_t, var = (omega + alpha z^2) + beta var, in place
            np.multiply(np.sqrt(var, out=z), eps[:, t], out=z)
            if t >= burn:
                kept[:, t - burn] = z
            np.square(z, out=a)
            a *= alpha
            a += omega
            var *= beta
            var += a
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
    """Whether E exp(alpha |z|) < inf for every rate alpha > 0, and why."""

    verdict: MomentVerdict
    reason: str


def exp_moment_check(s: ProcessSampler) -> MomentDiagnostic:
    """Decide the exponential moment condition from the sampler's kind and params.

    iid Gaussian and bounded uniform laws, Gaussian ARMA and garch11 with
    alpha = 0 (iid N(0, omega / (1 - beta))) have every exponential moment,
    of every window of any depth; lognormal laws and garch11 with alpha > 0,
    whose stationary tail is a power law (Kesten-Goldie; Mikosch & Starica,
    Ann. Statist. 28, 2000), have none.  The kind alone decides the verdict;
    no path is drawn.
    """
    if s.kind == "iid_gaussian":
        holds, reason = True, "Gaussian marginal: every exponential moment is finite"
    elif s.kind == "iid_uniform_bounded":
        holds, reason = True, "bounded support: every exponential moment is finite"
    elif s.kind == "iid_lognormal":
        holds, reason = False, "lognormal tail: E exp(alpha |z|) is infinite for alpha > 0"
    elif s.kind == "arma":
        holds, reason = True, "stationary Gaussian ARMA: every exponential moment is finite"
    elif s.params["alpha"] == 0:
        holds, reason = True, "GARCH(1,1) with alpha = 0 is iid N(0, omega / (1 - beta))"
    else:
        holds, reason = False, "GARCH(1,1) with alpha > 0 has a power-law tail (Kesten-Goldie)"
    return MomentDiagnostic(MomentVerdict.PLAUSIBLE if holds else MomentVerdict.SUSPECT_INFINITE,
                            reason)


def _marginal(s: ProcessSampler, q: float) -> tuple[float, float, float]:
    """(E z, Var z, a bound on ||z||_q) for the stationary value z of each channel.

    The bound is almost sure for bounded uniform laws, |mean| + std ||N(0, 1)||_q for
    Gaussian ones, exact for lognormal ones and ||z||_2 for garch11 at q <= 2.  An entry
    is inf where no finite value is known (arma; garch11 past q = 2) or past float range.
    """
    p, inf = s.params, math.inf
    try:
        if s.kind == "iid_uniform_bounded":
            a, b = p["a_min"], p["a_max"]
            return (a + b) / 2.0, (b - a) ** 2 / 12.0, max(abs(a), abs(b))
        if s.kind == "iid_gaussian":
            # E|N(0, 1)|^q = 2^(q/2) Gamma((q + 1) / 2) / sqrt(pi)
            log_moment = math.lgamma((q + 1.0) / 2.0) + (q * math.log(2) - math.log(math.pi)) / 2
            return p["mean"], p["std"] ** 2, abs(p["mean"]) + p["std"] * math.exp(log_moment / q)
        if s.kind == "iid_lognormal":
            mu, s2 = p["mu"], p["sigma"] ** 2
            var = math.expm1(s2) * math.exp(2.0 * mu + s2)
            return math.exp(mu + s2 / 2.0), var, math.exp(mu + q * s2 / 2.0)
        if s.kind == "garch11":
            ez2 = p["omega"] / (1.0 - p["alpha"] - p["beta"])
            return 0.0, ez2, math.sqrt(ez2) if q <= 2.0 else inf
    except OverflowError:
        pass
    return inf, inf, inf


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
    noise.  Raises ValueError for seed, T, M or a shift outside its
    integer range, and for p not a finite number >= 1, before any draw.
    """
    from . import metrics

    _check_draw_args(p, M, seed)
    _require_integers(1, T=T)
    shifts = tuple(shifts)
    if not all(_integer(t) and t <= 0 for t in shifts):
        raise ValueError(f"shifts must be integers <= 0, got {shifts!r}")
    shifts = sorted({int(t) for t in shifts}, reverse=True)
    deepest = -min(shifts) if shifts else 0
    out = {}
    for j, t in enumerate(shifts):
        sub_seed = (seed * 1_000_003 + j) & _MASK64
        data = sample_paths(s, T + deepest, M, sub_seed)
        view = data[:, -t : -t + T, :]
        vals = evaluate_functional_batch(spec, view)
        out[t] = metrics.lp_norm_of_values(vals, p=p, seed=sub_seed)
    return out
