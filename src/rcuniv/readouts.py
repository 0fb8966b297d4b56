"""Readout maps applied to batches of reservoir states (M, N).

Three families: multivariate polynomials over a graded-lexicographic
monomial basis, single-hidden-layer networks with bounded activations, and
plain linear maps.  Polynomial readout evaluation is defined as the dot
product of the coefficient vector with poly_features, so the two agree
bit for bit.  Network and linear readouts hold read-only float64 copies
of their arrays (core._frozen), so caller writes cannot reach them and a
non-finite array is refused by name.  _random_features draws every random
hidden layer and _ridge_solve is the one ridge least-squares path; both
serve readout training and the identity networks of the block construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import _floats, _frozen, _integer, _number, _require_choice, _require_integers

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
    """The activation called name; ValueError naming the choices otherwise."""
    try:
        return ACTIVATIONS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        pass
    _require_choice(ACTIVATIONS, activation=name)


# ---------------------------------------------------------------------------
# polynomial features


def multi_indices(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples in graded-lexicographic order, constant term first.

    Within each total degree the tuples are ordered lexicographically
    descending, e.g. n_vars=2, degree=2 gives
    (0,0), (1,0), (0,1), (2,0), (1,1), (0,2).
    """
    _require_integers(1, n_vars=n_vars)
    _require_integers(0, degree=degree)
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


def _state_batch(x) -> np.ndarray:
    """x as a float64 batch of states (M, N); ValueError for any other shape and
    for entries that are not integers or floats."""
    X = _floats(x, "states")
    if X.ndim != 2:
        raise ValueError(f"states must be a batch of shape (M, N), got shape {X.shape}")
    return X


def poly_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Monomial feature map in graded-lexicographic order.

    x is a batch of states (M, N); returns (M, C) with
    C = comb(N + degree, degree).  Refuses feature counts above 1e7.
    """
    X = _state_batch(x)
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
    return feats


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
        _require_integers(1, n_vars=self.n_vars)
        _require_integers(0, degree=self.degree)
        for mi, c in self.coefficients.items():
            if (not isinstance(mi, tuple) or len(mi) != self.n_vars
                    or not all(_integer(e, 0) for e in mi)):
                raise ValueError(f"bad multi-index {mi!r} for n_vars={self.n_vars}")
            if sum(mi) > self.degree:
                raise ValueError(f"multi-index {mi} exceeds degree {self.degree}")
            if not _number(c):
                raise ValueError(f"non-finite coefficient {c!r} for {mi}; need a finite real")

    def coefficient_vector(self) -> np.ndarray:
        return np.array([self.coefficients.get(mi, 0.0)
                         for mi in multi_indices(self.n_vars, self.degree)], dtype=np.float64)


@dataclass(frozen=True)
class NetworkReadout:
    """Single-hidden-layer map h(x) = sum_j beta_j sigma(alpha_j . x - theta_j).

    beta (k,), alpha (k, N) and theta (k,) are stored as read-only copies.
    """

    beta: np.ndarray  # (k,)
    alpha: np.ndarray  # (k, N)
    theta: np.ndarray  # (k,)
    activation: str = "logistic"

    def __post_init__(self):
        for name, ndim in (("beta", 1), ("alpha", 2), ("theta", 1)):
            object.__setattr__(self, name, _frozen(getattr(self, name), name, ndim))
        k = self.alpha.shape[0]
        if self.beta.shape != (k,) or self.theta.shape != (k,):
            raise ValueError("beta, alpha, theta must share leading dimension k")
        get_activation(self.activation)

    @property
    def k(self) -> int:
        return self.alpha.shape[0]


@dataclass(frozen=True)
class LinearReadout:
    """Linear map h(x) = W . x; W (N,) is stored as a read-only copy."""

    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", _frozen(self.W, "W", 1))


def _require_state_dim(readout, dim: int) -> None:
    """ValueError unless readout takes dim-dimensional states; TypeError for a non-readout."""
    if isinstance(readout, PolynomialReadout):
        own = readout.n_vars
    elif isinstance(readout, NetworkReadout):
        own = readout.alpha.shape[1]
    elif isinstance(readout, LinearReadout):
        own = readout.W.shape[0]
    else:
        raise TypeError(f"not a readout: {type(readout).__name__}")
    if dim != own:
        raise ValueError(f"state dim {dim} != readout dim {own}")


def eval_readout(readout, x: np.ndarray) -> np.ndarray:
    """Apply a readout to a batch of states x (M, N) -> values (M,)."""
    X = _state_batch(x)
    _require_state_dim(readout, X.shape[1])
    if isinstance(readout, PolynomialReadout):
        return poly_features(X, readout.degree) @ readout.coefficient_vector()
    if isinstance(readout, NetworkReadout):
        act = get_activation(readout.activation).fn
        return act(X @ readout.alpha.T - readout.theta) @ readout.beta
    return X @ readout.W


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
# the coefficients of a config's finite_poly target


def _coefficients(pairs) -> dict:
    """{exponent tuple: coefficient} of (exponents, coefficient) pairs.

    ValueError for a pair that is not a list of exponents and a coefficient,
    and for exponents that appear twice.
    """
    coefficients = {}
    for i, pair in enumerate(pairs):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"polynomial term {i} must be [exponents, coefficient], got {pair!r}")
        exponents, c = pair
        if not isinstance(exponents, (list, tuple)):
            raise ValueError(f"exponents of polynomial term {i} must be a list, got {exponents!r}")
        mi = tuple(exponents)
        if mi in coefficients:
            raise ValueError(f"exponents {list(mi)} appear twice in the polynomial coefficients")
        coefficients[mi] = c
    return coefficients
