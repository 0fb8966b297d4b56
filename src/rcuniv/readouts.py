"""Readout maps applied to reservoir states.

Three families: multivariate polynomials over a graded-lexicographic
monomial basis, single-hidden-layer networks with bounded activations, and
plain linear maps.  Polynomial readout evaluation is defined as the dot
product of the coefficient vector with poly_features, so the two agree
bit for bit.  _random_features draws every random hidden layer and
_ridge_solve is the one ridge least-squares path; both serve readout
training and the identity networks of the block construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import _finite_real, _integer

__all__ = [
    "Activation",
    "ACTIVATIONS",
    "get_activation",
    "multi_indices",
    "feature_count",
    "poly_features",
    "PolynomialReadout",
    "NetworkReadout",
    "LinearReadout",
    "eval_readout",
    "readout_to_dict",
    "readout_from_dict",
]

MAX_FEATURES = 10_000_000


@dataclass(frozen=True)
class Activation:
    """Bounded, continuous, non-constant scalar activation.

    fn(x, out=None) writes into out when it is given, which may be x.
    """

    name: str
    fn: Callable[..., np.ndarray]
    lipschitz: float


def _logistic(x, out=None):
    """1 / (1 + exp(-x)), written into out when given."""
    y = np.negative(x, out=out)
    with np.errstate(over="ignore"):  # exp(-x) = inf below x = -709 gives the limit 0
        y = np.exp(y, out=out)
    y = np.add(y, 1.0, out=out)
    return np.divide(1.0, y, out=out)


def _hard_sigmoid(x, out=None):
    """clip(0.2 x + 0.5, 0, 1), written into out when given."""
    y = np.multiply(x, 0.2, out=out)
    y = np.add(y, 0.5, out=out)
    return np.clip(y, 0.0, 1.0, out=out)


ACTIVATIONS = {
    "logistic": Activation("logistic", _logistic, 0.25),
    "tanh": Activation("tanh", np.tanh, 1.0),
    "hard_sigmoid": Activation("hard_sigmoid", _hard_sigmoid, 0.2),
}


def get_activation(name: str) -> Activation:
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(
            f"unknown activation {name!r}; bounded choices are {sorted(ACTIVATIONS)}"
        ) from None


# ---------------------------------------------------------------------------
# polynomial features


def multi_indices(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples in graded-lexicographic order, constant term first.

    Within each total degree the tuples are ordered lexicographically
    descending, e.g. n_vars=2, degree=2 gives
    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).
    """
    if n_vars < 1:
        raise ValueError("n_vars must be >= 1")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    # sorted variable multisets of one size come in lexicographic order, which
    # is descending lexicographic order of their exponent tuples
    out = []
    for total in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(n_vars), total):
            exps = [0] * n_vars
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return out


def feature_count(n_vars: int, degree: int) -> int:
    """Number of monomials of degree <= degree in n_vars variables."""
    return math.comb(n_vars + degree, degree)


def poly_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomial feature map in graded-lexicographic order.

    x may be a single vector (N,) or a batch (M, N); returns (C,) or (M, C)
    with C = comb(N + degree, degree).  Refuses feature counts above 1e7.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.ndim != 2:
        raise ValueError(f"x must be 1-d or 2-d, got shape {x.shape}")
    M, N = X.shape
    C = feature_count(N, degree)
    if C > MAX_FEATURES:
        raise ValueError(f"feature count {C} exceeds limit {MAX_FEATURES}")
    # cache powers x_i^e for e up to the degree actually used
    pow_cache: dict[tuple[int, int], np.ndarray] = {}

    def power(i, e):
        key = (i, e)
        if key not in pow_cache:
            pow_cache[key] = X[:, i] ** e
        return pow_cache[key]

    feats = np.empty((M, C))
    for col, mi in enumerate(multi_indices(N, degree)):
        acc = np.ones(M)
        for i, e in enumerate(mi):
            if e:
                acc = acc * power(i, e)
        feats[:, col] = acc
    return feats[0] if single else feats


# ---------------------------------------------------------------------------
# readout families


@dataclass(frozen=True)
class PolynomialReadout:
    """Polynomial map h(x) = sum_m coefficients[m] * x^m.

    coefficients maps exponent tuples (length n_vars, integer entries >= 0,
    total degree <= degree) to finite reals.  Evaluation is the dot product
    of the dense coefficient vector in graded-lexicographic order with
    poly_features.
    """

    n_vars: int
    degree: int
    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        if not _integer(self.n_vars, 1):
            raise ValueError(f"n_vars must be an integer >= 1, got {self.n_vars!r}")
        if not _integer(self.degree, 0):
            raise ValueError(f"degree must be >= 0 and an integer, got {self.degree!r}")
        for mi, c in self.coefficients.items():
            if (not isinstance(mi, tuple) or len(mi) != self.n_vars
                    or not all(_integer(e, 0) for e in mi)):
                raise ValueError(f"bad multi-index {mi!r} for n_vars={self.n_vars}")
            if sum(mi) > self.degree:
                raise ValueError(f"multi-index {mi} exceeds degree {self.degree}")
            if not _finite_real(c):
                raise ValueError(f"non-finite coefficient {c!r} for {mi}; need a finite real")

    def coefficient_vector(self) -> np.ndarray:
        return np.array([self.coefficients.get(mi, 0.0)
                         for mi in multi_indices(self.n_vars, self.degree)], dtype=np.float64)


@dataclass(frozen=True)
class NetworkReadout:
    """Single-hidden-layer map h(x) = sum_j beta_j sigma(alpha_j . x - theta_j)."""

    beta: np.ndarray  # (k,)
    alpha: np.ndarray  # (k, N)
    theta: np.ndarray  # (k,)
    activation: str = "logistic"

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=np.float64))
        alpha = np.asarray(self.alpha, dtype=np.float64)
        theta = np.atleast_1d(np.asarray(self.theta, dtype=np.float64))
        if alpha.ndim != 2:
            raise ValueError("alpha must be (k, N)")
        k = alpha.shape[0]
        if beta.shape != (k,) or theta.shape != (k,):
            raise ValueError("beta, alpha, theta must share leading dimension k")
        get_activation(self.activation)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "theta", theta)

    @property
    def k(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class LinearReadout:
    """Linear map h(x) = W . x."""

    W: np.ndarray

    def __post_init__(self):
        W = np.atleast_1d(np.asarray(self.W, dtype=np.float64))
        if W.ndim != 1:
            raise ValueError("W must be a vector")
        object.__setattr__(self, "W", W)


def eval_readout(readout, x: np.ndarray) -> float | np.ndarray:
    """Apply a readout to a state (N,) or a batch of states (M, N)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if isinstance(readout, PolynomialReadout):
        if X.shape[1] != readout.n_vars:
            raise ValueError(f"state dim {X.shape[1]} != n_vars {readout.n_vars}")
        vals = poly_features(X, readout.degree) @ readout.coefficient_vector()
    elif isinstance(readout, NetworkReadout):
        act = get_activation(readout.activation).fn
        vals = act(X @ readout.alpha.T - readout.theta) @ readout.beta
    elif isinstance(readout, LinearReadout):
        if X.shape[1] != readout.W.shape[0]:
            raise ValueError(f"state dim {X.shape[1]} != readout dim {readout.W.shape[0]}")
        vals = X @ readout.W
    else:
        raise TypeError(f"not a readout: {type(readout).__name__}")
    return float(vals[0]) if single else vals


def _random_features(X: np.ndarray, units: int, scale: float, activation: str,
                     rng_dir: np.random.Generator, rng_thr: np.random.Generator):
    """Random hidden layer on the rows of X -> (alpha, theta, features).

    Directions are standard Gaussian / scale, from rng_dir; then thresholds
    are uniform over each unit's projected range of X, from rng_thr.
    """
    alpha = rng_dir.standard_normal((units, X.shape[1])) / scale
    proj = X @ alpha.T
    lo, hi = proj.min(axis=0), proj.max(axis=0)
    theta = lo + (hi - lo) * rng_thr.uniform(size=units)
    return alpha, theta, get_activation(activation).fn(proj - theta)


def _ridge_solve(X: np.ndarray, y: np.ndarray, lam: float):
    """Least squares with penalty lam in unit-RMS feature scaling.

    The normal equations are never formed: the penalized system goes
    through an SVD-based least-squares factorization.  Returns (weights in
    original feature space, numerical rank).
    """
    scale = np.sqrt(np.mean(X**2, axis=0))
    scale[scale == 0.0] = 1.0
    Xs = X / scale
    k = X.shape[1]
    if lam > 0:
        lhs = np.vstack([Xs, np.sqrt(lam) * np.eye(k)])
        rhs = np.concatenate([y, np.zeros(k)])
    else:
        lhs, rhs = Xs, y
    beta, _, rank, _ = np.linalg.lstsq(lhs, rhs, rcond=None)
    return beta / scale, int(rank)


# ---------------------------------------------------------------------------
# serialization


def readout_to_dict(readout) -> dict:
    """JSON-compatible dict with a variant tag; binary64 exact via repr."""
    if isinstance(readout, PolynomialReadout):
        return {
            "variant": "polynomial",
            "n_vars": readout.n_vars,
            "degree": readout.degree,
            "terms": [
                {"exponents": list(mi), "coefficient": float(c)}
                for mi, c in sorted(readout.coefficients.items())
            ],
        }
    if isinstance(readout, NetworkReadout):
        return {
            "variant": "network",
            "beta": readout.beta.tolist(),
            "alpha": readout.alpha.tolist(),
            "theta": readout.theta.tolist(),
            "activation": readout.activation,
        }
    if isinstance(readout, LinearReadout):
        return {"variant": "linear", "W": readout.W.tolist()}
    raise TypeError(f"not a readout: {type(readout).__name__}")


def readout_from_dict(doc: dict):
    variant = doc.get("variant")
    if variant == "polynomial":
        coeffs = {tuple(t["exponents"]): t["coefficient"] for t in doc["terms"]}
        return PolynomialReadout(doc["n_vars"], doc["degree"], coeffs)
    if variant == "network":
        return NetworkReadout(
            np.array(doc["beta"]), np.array(doc["alpha"]), np.array(doc["theta"]),
            doc["activation"],
        )
    if variant == "linear":
        return LinearReadout(np.array(doc["W"]))
    raise ValueError(f"unknown readout variant {variant!r}")
