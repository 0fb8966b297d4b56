"""Stationary input process samplers and moment diagnostics.

Every path is generated from its own counter-based stream keyed by
(seed, path index), so path i is the same no matter how many paths are
drawn, in what order, or across how many workers.  Windows follow the
core convention: row k holds the value k steps in the past.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import Window, evaluate_functional_batch

__all__ = [
    "ProcessSampler",
    "iid_gaussian",
    "iid_uniform_bounded",
    "iid_lognormal",
    "arma",
    "garch11",
    "path_rng",
    "sample_paths",
    "sample_windows",
    "MomentVerdict",
    "MomentDiagnostic",
    "exp_moment_check",
    "shift_invariance_probe",
]

_MASK64 = (1 << 64) - 1


def path_rng(seed: int, path: int) -> np.random.Generator:
    """Generator for one path, keyed by (seed, path) in the Philox key space.

    The 128-bit key is seed in the high word and path index in the low
    word; streams for distinct (seed, path) pairs are independent and the
    mapping contains no global state.
    """
    key = ((int(seed) & _MASK64) << 64) | (int(path) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


_IID_KINDS = ("iid_gaussian", "iid_uniform_bounded", "iid_lognormal")
_KINDS = _IID_KINDS + ("arma", "garch11")


@dataclass(frozen=True)
class ProcessSampler:
    """Stationary n-channel input process.

    kind is one of iid_gaussian, iid_uniform_bounded, iid_lognormal, arma,
    garch11; params are validated per kind at construction.  arma and
    garch11 are univariate.
    """

    kind: str
    n: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown sampler kind {self.kind!r}; choices {list(_KINDS)}")
        if self.n < 1:
            raise ValueError("channel count n must be >= 1")
        p = dict(self.params)
        if self.kind == "iid_gaussian":
            p.setdefault("mean", 0.0)
            p.setdefault("std", 1.0)
            if p["std"] <= 0:
                raise ValueError("std must be > 0")
        elif self.kind == "iid_uniform_bounded":
            if not {"a_min", "a_max"} <= p.keys():
                raise ValueError("iid_uniform_bounded needs a_min and a_max")
            if not p["a_min"] < p["a_max"]:
                raise ValueError("need a_min < a_max")
        elif self.kind == "iid_lognormal":
            p.setdefault("mu", 0.0)
            p.setdefault("sigma", 1.0)
            if p["sigma"] <= 0:
                raise ValueError("sigma must be > 0")
        elif self.kind == "arma":
            if self.n != 1:
                raise ValueError("arma sampler is univariate")
            ar = tuple(float(c) for c in p.get("ar", ()))
            ma = tuple(float(c) for c in p.get("ma", ()))
            p["ar"], p["ma"] = ar, ma
            p.setdefault("std", 1.0)
            if p["std"] <= 0:
                raise ValueError("innovation std must be > 0")
            _check_roots_outside(ar, "ar")
            _check_roots_outside(tuple(-c for c in ma), "ma")
        elif self.kind == "garch11":
            if self.n != 1:
                raise ValueError("garch11 sampler is univariate")
            missing = {"omega", "alpha", "beta"} - p.keys()
            if missing:
                raise ValueError(f"garch11 needs parameters {sorted(missing)}")
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

    # -- raw iid draws (used for past-resampling estimators) ----------------

    def draw(self, rng: np.random.Generator, shape) -> np.ndarray:
        """Independent draws of the marginal law; iid kinds only."""
        p = self.params
        if self.kind == "iid_gaussian":
            return p["mean"] + p["std"] * rng.standard_normal(shape)
        if self.kind == "iid_uniform_bounded":
            return rng.uniform(p["a_min"], p["a_max"], size=shape)
        if self.kind == "iid_lognormal":
            return np.exp(p["mu"] + p["sigma"] * rng.standard_normal(shape))
        raise ValueError(f"{self.kind!r} values are dependent; use sample_paths")

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

# dependent kinds are simulated in blocks of paths holding about this many
# float64 noise values (32 MiB); values do not depend on it
_BLOCK_VALUES = 1 << 22


def sample_paths(s: ProcessSampler, T: int, M: int, seed: int, path_offset: int = 0) -> np.ndarray:
    """M stationary windows as an array of shape (M, T, n).

    Path i uses the stream keyed by (seed, path_offset + i).  Dependent
    kinds simulate burn_in() + T chronological steps per path and keep the
    last T, reversed into lag order.  They run in blocks of paths whose
    working arrays stay within a fixed byte budget, so memory beyond the
    (M, T, n) result does not grow with M; paths are independent, so the
    values do not depend on the block size.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    if M < 1:
        raise ValueError("M must be >= 1")
    out = np.empty((M, T, s.n))
    if s.iid:
        for i in range(M):
            out[i] = s.draw(path_rng(seed, path_offset + i), (T, s.n))
        return out

    burn = s.burn_in()
    total = burn + T
    block = max(1, _BLOCK_VALUES // total)
    eps_buf = np.empty((min(block, M), total))
    for b0 in range(0, M, block):
        eps = eps_buf[: min(block, M - b0)]
        for j in range(len(eps)):
            eps[j] = path_rng(seed, path_offset + b0 + j).standard_normal(total)
        out[b0 : b0 + len(eps), :, 0] = _simulate(s, eps, burn)[:, ::-1]
    return out


def _simulate(s: ProcessSampler, eps: np.ndarray, burn: int) -> np.ndarray:
    """Chronological steps burn.. of a dependent kind driven by noise eps (paths x steps).

    eps may be overwritten.
    """
    p = s.params
    if s.kind == "arma":
        eps *= p["std"]
        # x_t = sum ar_i x_{t-i} + eps_t + sum ma_j eps_{t-j}
        return _lfilter(np.r_[1.0, p["ma"]], np.r_[1.0, [-c for c in p["ar"]]], eps)[:, burn:]
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


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """scipy.signal.lfilter(b, a, x, axis=1) for a[0] = 1, operation for operation."""
    if len(a) == 1:  # no AR part: lfilter convolves each row
        return np.stack([np.convolve(b, row)[: x.shape[1]] for row in x])
    L = max(len(a), len(b))
    b, a = np.r_[b, np.zeros(L - len(b))], np.r_[a, np.zeros(L - len(a))]
    y, z = np.empty_like(x), np.zeros((L - 1, x.shape[0]))  # z: transposed direct form II delays
    for t in range(x.shape[1]):
        xt = x[:, t]
        yt = y[:, t] = z[0] + b[0] * xt
        z[:-1] = z[1:] + np.outer(b[1:-1], xt) - np.outer(a[1:-1], yt)
        z[-1] = xt * b[-1] - yt * a[-1]
    return y


def sample_windows(s: ProcessSampler, T: int, M: int, seed: int) -> list[Window]:
    """Like sample_paths but wrapped into Window objects."""
    data = sample_paths(s, T, M, seed)
    return [Window(data[i]) for i in range(M)]


# ---------------------------------------------------------------------------
# exponential moment diagnostic


class MomentVerdict(str, Enum):
    PLAUSIBLE = "plausible"
    SUSPECT_INFINITE = "suspect_infinite"


@dataclass(frozen=True)
class MomentDiagnostic:
    """Heuristic screen for E[exp(alpha * sum_{k<=K} sum_i |z_i,-k|)] < inf.

    estimate is the sample mean of the exponential at the largest size;
    tail_growth is the fitted log-log slope of that mean across the
    requested sample sizes; hazard_shallow / hazard_deep are reciprocal
    mean excesses of the exponent at the 0.99 / 0.999 quantiles.  The
    verdict is suspect_infinite when the mean keeps growing, is non-finite,
    or the exponent's tail hazard sits at or below 1 or decays with depth
    (subexponential tail, so no exponential moment at any rate survives the
    deep tail).  A finite sample can never prove the moment finite; this is
    a screen, not a certificate.
    """

    alpha: float
    K: int
    estimate: float
    tail_growth: float
    hazard_shallow: float
    hazard_deep: float
    verdict: MomentVerdict


def exp_moment_check(
    s: ProcessSampler,
    alpha: float,
    K: int,
    sample_sizes=(50_000, 100_000, 200_000, 400_000),
    seed: int = 0,
    growth_threshold: float = 0.05,
    hazard_ratio_threshold: float = 0.8,
) -> MomentDiagnostic:
    """Screen the exponential moment condition at rate alpha and depth K."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if K < 0:
        raise ValueError("K must be >= 0")
    sizes = sorted(int(v) for v in sample_sizes)
    if len(sizes) < 2 or sizes[0] < 1000:
        raise ValueError("need at least two sample sizes, smallest >= 1000")
    S = sizes[-1]
    if s.iid:
        vals = s.draw(path_rng(seed, 0), (S, K + 1, s.n))
        exponent = alpha * np.abs(vals).sum(axis=(1, 2))
    else:
        # dependent kinds: exponent over actual joint windows
        exponent = alpha * np.abs(sample_paths(s, K + 1, S, seed)).sum(axis=(1, 2))

    with np.errstate(over="ignore"):
        expvals = np.exp(exponent)
    means = np.array([expvals[:m].mean() for m in sizes])
    if np.all(np.isfinite(means)) and np.all(means > 0):
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
    else:
        slope = math.inf

    def hazard(q):
        u = np.quantile(exponent, q)
        excess = exponent[exponent > u] - u
        if excess.size == 0 or excess.mean() <= 0:
            return math.inf
        return 1.0 / float(excess.mean())

    h_shallow, h_deep = hazard(0.99), hazard(0.999)
    suspect = (
        not math.isfinite(float(means[-1]))
        or slope > growth_threshold
        or h_deep <= 1.0
        or (math.isfinite(h_deep) and math.isfinite(h_shallow)
            and h_deep / h_shallow < hazard_ratio_threshold)
    )
    return MomentDiagnostic(
        alpha=float(alpha),
        K=int(K),
        estimate=float(means[-1]),
        tail_growth=float(slope),
        hazard_shallow=float(h_shallow),
        hazard_deep=float(h_deep),
        verdict=MomentVerdict.SUSPECT_INFINITE if suspect else MomentVerdict.PLAUSIBLE,
    )


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
