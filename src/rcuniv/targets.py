"""Catalog of target functionals with integrability notes and tail bounds.

Each entry wraps a FunctionalSpec whose evaluator is registered with the
core dispatcher, an optional closed-form truncation bound in the window
length, and a sampler whitelist where the functional only makes sense for
particular input laws (peak_hold needs bounded support, log_sine needs
positive values).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import FunctionalSpec, _finite_real, _integer, register_evaluator
from .readouts import PolynomialReadout, eval_readout, feature_count, multi_indices

__all__ = [
    "TargetCatalogEntry",
    "constant",
    "finite_poly",
    "random_finite_poly",
    "geometric_ma",
    "peak_hold",
    "trig_product",
    "garch_vol",
    "log_sine",
    "catalog",
    "entry_by_name",
    "truncation_bound",
    "check_sampler",
]


@dataclass(frozen=True)
class TargetCatalogEntry:
    """A named target functional with metadata for experiments."""

    name: str
    spec: FunctionalSpec
    integrability_note: str
    # closed-form L^p truncation error as a function of (T, p), or None;
    # truncation_bound reads it only for targets of unbounded memory
    tail_bound: Callable[[int, float], float] | None = None


_WHITELIST = {
    "peak_hold": ("iid_uniform_bounded",),
    "log_sine": ("iid_lognormal",),
}


def check_sampler(spec: FunctionalSpec, sampler) -> None:
    """Reject sampler kinds outside the functional's whitelist."""
    allowed = _WHITELIST.get(spec.kind)
    if allowed is not None and sampler.kind not in allowed:
        raise ValueError(
            f"target {spec.kind!r} requires a sampler in {list(allowed)}, "
            f"got {sampler.kind!r}"
        )


# ---------------------------------------------------------------------------
# evaluators (batch: (spec, data[M, T, n]) -> (M,))


def _eval_constant(spec, data):
    return np.full(data.shape[0], spec.params["value"])


def _window_readout(spec: FunctionalSpec) -> PolynomialReadout:
    """The finite_poly target as a polynomial of the stacked window (z_0, ..., z_-K)."""
    return PolynomialReadout(n_vars=spec.n * (spec.memory + 1), degree=spec.params["degree"],
                             coefficients=spec.params["coefficients"])


def _eval_finite_poly(spec, data):
    readout = _window_readout(spec)
    stacked = data[:, : spec.memory + 1, :].reshape(data.shape[0], readout.n_vars)
    return eval_readout(readout, stacked)


def _eval_geometric_ma(spec, data):
    lam = spec.params["decay"]
    T = data.shape[1]
    return data[:, :, 0] @ lam ** np.arange(T)


def _eval_peak_hold(spec, data):
    return data[:, :, 0].max(axis=1)


def _eval_trig_product(spec, data):
    freqs = np.asarray(spec.params["freqs"], dtype=np.float64)  # (K+1, n)
    sine_lags = set(spec.params["sine_lags"])
    K = spec.memory
    phases = np.einsum("mtc,tc->mt", data[:, : K + 1, :], freqs)
    out = np.ones(data.shape[0])
    for k in range(K + 1):
        g = np.sin if k in sine_lags else np.cos
        out = out * g(phases[:, k])
    return out


def _eval_garch_vol(spec, data):
    omega, alpha, beta = (spec.params[k] for k in ("omega", "alpha", "beta"))
    T = data.shape[1]
    # conditional variance unrolled over the available past, lags 1..T-1
    weights = beta ** np.arange(T - 1)
    sq = data[:, 1:, 0] ** 2
    return omega / (1.0 - beta) + alpha * (sq @ weights)


def _eval_log_sine(spec, data):
    z0 = data[:, 0, 0]
    if np.any(z0 <= 0):
        raise ValueError("log_sine requires strictly positive inputs")
    return np.sin(spec.params["freq"] * np.log(z0))


for _kind, _fn in [
    ("constant", _eval_constant),
    ("finite_poly", _eval_finite_poly),
    ("geometric_ma", _eval_geometric_ma),
    ("peak_hold", _eval_peak_hold),
    ("trig_product", _eval_trig_product),
    ("garch_vol", _eval_garch_vol),
    ("log_sine", _eval_log_sine),
]:
    register_evaluator(_kind, _fn)


# ---------------------------------------------------------------------------
# entry factories; each checks its params by the number rules of core before
# it builds anything


def _require_reals(**values) -> None:
    for key, v in values.items():
        if not _finite_real(v):
            raise ValueError(f"{key} must be a finite real, got {v!r}")


def constant(value: float, n: int = 1) -> TargetCatalogEntry:
    _require_reals(value=value)
    if not _integer(n, 1):
        raise ValueError(f"n must be an integer >= 1, got {n!r}")
    spec = FunctionalSpec("constant", n=n, memory=0, params={"value": float(value)})
    return TargetCatalogEntry("constant", spec, "bounded, integrable for every input law")


def finite_poly(n: int, K: int, degree: int, coefficients: dict) -> TargetCatalogEntry:
    """Polynomial q(z_0, z_-1, ..., z_-K); variables are stacked lag-major.

    coefficients maps exponent tuples of length n*(K+1) to reals; variable
    index k*n + i is channel i at lag k.
    """
    if not (_integer(n, 1) and _integer(K, 0)):
        raise ValueError(f"need integers n >= 1 and K >= 0, got n={n!r}, K={K!r}")
    spec = FunctionalSpec(
        "finite_poly", n=n, memory=K,
        params={"degree": degree, "coefficients": dict(coefficients)},
    )
    # rejects a degree that is not an integer >= 0, exponent tuples that are
    # not integers >= 0 of the right length or that exceed the degree, and
    # coefficients that are not finite reals, before any evaluation
    _window_readout(spec)
    return TargetCatalogEntry(
        "finite_poly", spec,
        "integrable whenever the input law has moments of the polynomial degree",
    )


def random_finite_poly(
    n: int, K: int, degree: int, seed: int, density: float = 0.6, scale: float = 1.0
) -> TargetCatalogEntry:
    """Random sparse polynomial target, deterministic in seed."""
    if not (_integer(n, 1) and _integer(K, 0) and _integer(degree, 0) and _integer(seed, 0)):
        raise ValueError("n >= 1, K >= 0, degree >= 0 and seed >= 0 must be integers, got "
                         f"n={n!r}, K={K!r}, degree={degree!r}, seed={seed!r}")
    _require_reals(density=density, scale=scale)
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    rng = np.random.default_rng(seed)
    n_vars = n * (K + 1)
    if feature_count(n_vars, degree) > 100_000:
        raise ValueError("polynomial basis too large")
    coeffs = {}
    for mi in multi_indices(n_vars, degree):
        if sum(mi) == 0:
            continue
        if rng.uniform() < density:
            coeffs[mi] = float(scale * rng.standard_normal())
    if not coeffs:
        coeffs[(1,) + (0,) * (n_vars - 1)] = 1.0
    return finite_poly(n, K, degree, coeffs)


def geometric_ma(
    decay: float, step_bound: float | None = None, step_std: float | None = None
) -> TargetCatalogEntry:
    """Geometric moving average of channel 0: sum_t decay^t z_-t.

    The tail bound uses step_bound (an a.s. bound on |z|, giving
    decay^T * step_bound / (1 - decay)), or step_std for the iid L^2 tail
    decay^T * step_std / sqrt(1 - decay^2).  Default: step_bound = 1.
    """
    _require_reals(decay=decay)
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0, 1)")
    if step_bound is not None and step_std is not None:
        raise ValueError("give step_bound or step_std, not both")
    for key, v in (("step_bound", step_bound), ("step_std", step_std)):
        if v is not None and not (_finite_real(v) and v >= 0):
            raise ValueError(f"{key} must be a finite real >= 0, got {v!r}")
    if step_bound is None and step_std is None:
        step_bound = 1.0
    spec = FunctionalSpec("geometric_ma", n=1, memory=None, params={"decay": float(decay)})

    def bound(T: int, p: float) -> float:
        if step_bound is not None:
            return step_bound * decay**T / (1.0 - decay)
        if step_std is not None and p <= 2.0:
            return step_std * decay**T / math.sqrt(1.0 - decay**2)
        return math.inf

    return TargetCatalogEntry(
        "geometric_ma", spec,
        "integrable for any input law with a finite p-th moment",
        tail_bound=bound,
    )


def peak_hold(a_min: float = 0.0, a_max: float = 1.0) -> TargetCatalogEntry:
    """Running supremum of channel 0; bounded-support samplers only.

    On uniform[a_min, a_max] inputs the full-history value is a_max almost
    surely; the window of length T sees the max of T draws, so the L^p
    truncation error is (a_max - a_min) * (Gamma(p+1) T! / (T+p)!)^(1/p)
    for integer-compatible p via the Beta(1, T) excess.
    """
    _require_reals(a_min=a_min, a_max=a_max)
    if not a_min < a_max:
        raise ValueError("need a_min < a_max")
    spec = FunctionalSpec("peak_hold", n=1, memory=None, params={})

    def bound(T: int, p: float) -> float:
        logb = math.lgamma(p + 1.0) + math.lgamma(T + 1.0) - math.lgamma(T + 1.0 + p)
        return (a_max - a_min) * math.exp(logb / p)

    return TargetCatalogEntry(
        "peak_hold", spec,
        "bounded; requires almost-surely bounded inputs",
        tail_bound=bound,
    )


def trig_product(freqs, sine_lags=()) -> TargetCatalogEntry:
    """prod_k g_k(u_k . z_-k) with g_k = sin for lags in sine_lags, else cos.

    freqs is (K+1, n), or (K+1,) for one channel.
    """
    freqs = np.asarray(freqs)
    if freqs.ndim not in (1, 2) or freqs.size == 0 or not all(map(_finite_real, freqs.flat)):
        raise ValueError("freqs must be a non-empty (K+1,) or (K+1, n) array of finite reals")
    freqs = freqs.astype(np.float64)
    if freqs.ndim == 1:
        freqs = freqs[:, None]
    K = freqs.shape[0] - 1
    if not all(_integer(k, 0) and k <= K for k in sine_lags):
        raise ValueError(f"sine lags must be integers in 0..{K}, got {sine_lags!r}")
    sine_lags = tuple(sorted(set(int(k) for k in sine_lags)))
    spec = FunctionalSpec(
        "trig_product", n=freqs.shape[1], memory=K,
        params={"freqs": freqs, "sine_lags": sine_lags},
    )
    return TargetCatalogEntry("trig_product", spec, "bounded by 1 in absolute value")


def garch_vol(omega: float, alpha: float, beta: float) -> TargetCatalogEntry:
    """Conditional variance of a GARCH(1,1) observation process.

    Unrolled form omega/(1-beta) + alpha * sum_j beta^j z_{-j-1}^2; the
    L^1 truncation tail over a window of length T is bounded by
    alpha * beta^(T-1) * E[z^2] / (1 - beta) with E[z^2] =
    omega / (1 - alpha - beta).
    """
    _require_reals(omega=omega, alpha=alpha, beta=beta)
    if omega <= 0 or alpha < 0 or beta < 0 or alpha + beta >= 1:
        raise ValueError("need omega > 0, alpha, beta >= 0, alpha + beta < 1")
    spec = FunctionalSpec(
        "garch_vol", n=1, memory=None,
        params={"omega": float(omega), "alpha": float(alpha), "beta": float(beta)},
    )
    ez2 = omega / (1.0 - alpha - beta)

    def bound(T: int, p: float) -> float:
        if beta == 0.0:
            return 0.0 if T >= 2 else math.inf
        if p <= 1.0:
            return alpha * beta ** (T - 1) * ez2 / (1.0 - beta)
        return math.inf

    return TargetCatalogEntry(
        "garch_vol", spec,
        "integrable in L^1 for stationary GARCH(1,1) inputs; higher moments "
        "need the corresponding moment condition on the input process",
        tail_bound=bound,
    )


def log_sine(freq: float = 2.0 * math.pi) -> TargetCatalogEntry:
    """sin(freq * log z_0) on positive inputs.

    With standard lognormal inputs and freq = 2*pi this functional is
    L^2-orthogonal to every polynomial in z_0, so polynomial readouts
    cannot approximate it below the floor ||sin(2*pi log Z)||_2 =
    sqrt((1 - exp(-2 freq^2)) / 2).
    """
    _require_reals(freq=freq)
    spec = FunctionalSpec("log_sine", n=1, memory=0, params={"freq": float(freq)})
    return TargetCatalogEntry("log_sine", spec, "bounded; requires strictly positive inputs")


def catalog() -> tuple[TargetCatalogEntry, ...]:
    """Fixed, deterministic list of representative catalog entries."""
    return (
        constant(1.0),
        finite_poly(1, 1, 2, {(1, 1): 1.0}),
        geometric_ma(0.5),
        peak_hold(0.0, 1.0),
        trig_product(np.array([[1.0], [0.7]]), sine_lags=(0,)),
        garch_vol(0.1, 0.1, 0.8),
        log_sine(),
    )


_FACTORIES = {
    "constant": constant,
    "finite_poly": finite_poly,
    "random_finite_poly": random_finite_poly,
    "geometric_ma": geometric_ma,
    "peak_hold": peak_hold,
    "trig_product": trig_product,
    "garch_vol": garch_vol,
    "log_sine": log_sine,
}


def entry_by_name(name: str, params: dict | None = None) -> TargetCatalogEntry:
    """Build a catalog entry from its name and factory parameters."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown target {name!r}; choices {sorted(_FACTORIES)}") from None
    return factory(**(params or {}))


def truncation_bound(entry: TargetCatalogEntry, T: int, p: float = 2.0) -> float | None:
    """Closed-form L^p truncation error over a window of length T, if known."""
    if T < 1:
        raise ValueError("T must be >= 1")
    if entry.spec.memory is not None:
        return 0.0 if T >= entry.spec.memory + 1 else None
    if entry.tail_bound is None:
        return None
    return float(entry.tail_bound(T, p))
