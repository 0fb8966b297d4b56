"""Target functionals and their tail bounds.

Each factory returns a FunctionalSpec whose evaluator is registered with the
core dispatcher, and states in its docstring for which input laws the
functional is integrable; a sampler whitelist holds where the functional
only makes sense for particular input laws (peak_hold needs bounded support,
log_sine positive values).  truncation_bound reads the window truncation
error off the sampler's law, so no target describes the input law a second
time.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .core import (FunctionalSpec, _require_choice, _require_integers, _require_keys,
                   _require_numbers, _require_seed, _trig_factors, register_evaluator)
from .processes import ProcessSampler, _marginal
from .readouts import PolynomialReadout, eval_readout, feature_count, multi_indices

__all__ = [
    "constant",
    "finite_poly",
    "random_finite_poly",
    "geometric_ma",
    "peak_hold",
    "trig_product",
    "garch_vol",
    "log_sine",
    "entry_by_name",
    "truncation_bound",
    "check_sampler",
]


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
    sine_lags = spec.params["sine_lags"]
    K = spec.memory
    phases = np.einsum("mtc,tc->mt", data[:, : K + 1, :], spec.params["freqs"])  # freqs (K+1, n)
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
# factories; each checks its params by the argument rules of core before
# it builds anything


def constant(value: float, n: int = 1) -> FunctionalSpec:
    """The constant value; bounded, integrable for every input law."""
    _require_numbers(value=value)
    _require_integers(1, n=n)
    return FunctionalSpec("constant", n=n, memory=0, params={"value": float(value)})


def finite_poly(n: int, K: int, degree: int, coefficients: dict) -> FunctionalSpec:
    """Polynomial q(z_0, z_-1, ..., z_-K); variables are stacked lag-major.

    coefficients maps exponent tuples of length n*(K+1) to reals; variable
    index k*n + i is channel i at lag k.  Integrable whenever the input law
    has moments of the polynomial degree.
    """
    _require_integers(1, n=n)
    _require_integers(0, K=K)
    spec = FunctionalSpec(
        "finite_poly", n=n, memory=K,
        params={"degree": degree, "coefficients": dict(coefficients)},
    )
    # rejects a degree that is not an integer >= 0, exponent tuples that are
    # not integers >= 0 of the right length or that exceed the degree, and
    # coefficients that are not finite reals, before any evaluation
    _window_readout(spec)
    return spec


def random_finite_poly(
    n: int, K: int, degree: int, seed: int, density: float = 0.6, scale: float = 1.0
) -> FunctionalSpec:
    """Random sparse finite_poly target, deterministic in seed.

    degree must be at least 1: the constant term is never drawn, and with no
    term drawn (density 0, say) the target is z_0, channel 0 at lag 0.
    """
    _require_integers(1, n=n)
    _require_integers(0, K=K)
    _require_integers(1, degree=degree)
    _require_numbers(density=density, scale=scale)
    _require_seed(seed)
    if not 0 <= density <= 1:
        raise ValueError(f"density must lie in [0, 1], got {density!r}")
    n_vars = n * (K + 1)
    if feature_count(n_vars, degree) > 100_000:
        raise ValueError("polynomial basis too large")
    rng = np.random.default_rng(seed)
    coeffs = {}
    for mi in multi_indices(n_vars, degree):
        if sum(mi) == 0:
            continue
        if rng.uniform() < density:
            coeffs[mi] = float(scale * rng.standard_normal())
    if not coeffs:
        coeffs[(1,) + (0,) * (n_vars - 1)] = 1.0
    return finite_poly(n, K, degree, coeffs)


def geometric_ma(decay: float) -> FunctionalSpec:
    """Geometric moving average of channel 0: sum_t decay^t z_-t.

    Integrable for any input law with a finite p-th moment.
    """
    _require_numbers(decay=decay)
    if not 0 < decay < 1:
        raise ValueError("decay must lie in (0, 1)")
    return FunctionalSpec("geometric_ma", n=1, memory=None, params={"decay": float(decay)})


def peak_hold() -> FunctionalSpec:
    """Running supremum of channel 0; on uniform[a_min, a_max] inputs it is a_max a.s.

    Bounded; requires almost-surely bounded inputs.
    """
    return FunctionalSpec("peak_hold", n=1, memory=None, params={})


def trig_product(freqs, sine_lags=()) -> FunctionalSpec:
    """prod_k g_k(u_k . z_-k) with g_k = sin for lags in sine_lags, else cos.

    freqs is (K+1, n), or (K+1,) for one channel; the factors follow the
    rule of build_nilpotent_trig_sas.  Bounded by 1 in absolute value.
    """
    freqs = np.asarray(freqs)
    freqs, sine_lags = _trig_factors(freqs[:, None] if freqs.ndim == 1 else freqs, sine_lags)
    return FunctionalSpec("trig_product", n=freqs.shape[1], memory=freqs.shape[0] - 1,
                          params={"freqs": freqs, "sine_lags": sine_lags})


def garch_vol(omega: float, alpha: float, beta: float) -> FunctionalSpec:
    """GARCH(1,1) conditional variance, unrolled: omega/(1-beta) + alpha sum_j beta^j z_{-j-1}^2.

    Integrable in L^1 for stationary GARCH(1,1) inputs; higher moments need
    the corresponding moment condition on the input process.  The params
    follow the rules of the garch11 sampler.
    """
    law = ProcessSampler("garch11", 1, {"omega": omega, "alpha": alpha, "beta": beta})
    return FunctionalSpec("garch_vol", n=1, memory=None, params=law.params)


def log_sine(freq: float = 2.0 * math.pi) -> FunctionalSpec:
    """sin(freq * log z_0); bounded, requires strictly positive inputs.

    With standard lognormal inputs and freq = 2*pi this functional is
    L^2-orthogonal to every polynomial in z_0, so polynomial readouts
    cannot approximate it below the floor ||sin(2*pi log Z)||_2 =
    sqrt((1 - exp(-2 freq^2)) / 2).
    """
    _require_numbers(freq=freq)
    return FunctionalSpec("log_sine", n=1, memory=0, params={"freq": float(freq)})


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


def entry_by_name(name: str, params: dict) -> FunctionalSpec:
    """Build a target from its factory's name and keyword arguments.

    params must be a dict with every argument of the factory that has no
    default and no key that is not one of its arguments; ValueError naming
    every missing and unknown key otherwise.
    """
    _require_choice(_FACTORIES, name=name)
    factory = _FACTORIES[name]
    args = inspect.signature(factory).parameters.values()
    _require_keys(params, {a.name for a in args if a.default is a.empty}, {a.name for a in args},
                  f"params of target {name!r}")
    return factory(**params)


def truncation_bound(spec: FunctionalSpec, sampler, T: int, p: float = 2.0) -> float | None:
    """Closed-form bound on the L^p gap between a T-row window and the semi-infinite past.

    The tail is read off the sampler's law; returns a finite float, or None
    where no sound bound is known.
    """
    _require_integers(1, T=T)
    _require_numbers(1, p=p)
    if spec.memory is not None:
        return 0.0 if T >= spec.memory + 1 else None
    check_sampler(spec, sampler)
    if spec.kind == "peak_hold":
        # a_max minus the max of T uniform draws is (a_max - a_min) Beta(1, T)
        width = sampler.params["a_max"] - sampler.params["a_min"]
        try:
            logb = math.lgamma(p + 1.0) + math.lgamma(T + 1.0) - math.lgamma(T + 1.0 + p)
        except OverflowError:  # p past lgamma's range; Beta(1, T) lies in [0, 1]
            return width
        return width * math.exp(logb / p)
    # garch_vol's tail sums squares, and ||z^2||_p = ||z||_2p^2
    mean, var, norm = _marginal(sampler, 2.0 * p if spec.kind == "garch_vol" else p)
    if spec.kind == "geometric_ma":
        lam = spec.params["decay"]
        if sampler.iid and p <= 2.0:  # the exact L^2 norm of the tail, >= its L^p norm
            bound = lam**T * math.sqrt(var / (1.0 - lam**2) + mean * mean / (1.0 - lam) ** 2)
        else:  # Minkowski
            bound = lam**T * norm / (1.0 - lam)
    elif spec.kind == "garch_vol":  # Minkowski on alpha sum_{j >= T-1} beta^j z_{-j-1}^2
        alpha, beta = spec.params["alpha"], spec.params["beta"]
        ez2 = var + mean * mean if p == 1.0 else norm * norm  # ||z^2||_1 = E z^2
        bound = alpha * beta ** (T - 1) * ez2 / (1.0 - beta)
    else:
        return None
    return bound if math.isfinite(bound) else None
