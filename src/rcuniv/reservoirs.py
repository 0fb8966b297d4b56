"""Reservoir systems: linear, trigonometric state-affine, and echo state networks.

All systems share the update x_t = F(x_{t-1}, z_t); windows are consumed
oldest row first so the final state sits at lag 0.  Certification of the
echo state property is by construction (exact nilpotency of the coupling
support) or by operator-norm contraction; empirical decay is never
accepted as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import _run_blocks
from .readouts import (
    LinearReadout,
    NetworkReadout,
    _random_features,
    _ridge_solve,
    eval_readout,
    get_activation,
    readout_from_dict,
    readout_to_dict,
)

__all__ = [
    "StateOverflowError",
    "EspNotCertifiedError",
    "LinearReservoir",
    "TrigPolynomial",
    "TrigSAS",
    "EchoStateNetwork",
    "EspReport",
    "final_states",
    "certify_esp",
    "washout_decay",
    "build_shift_register",
    "build_nilpotent_trig_sas",
    "direct_sum_sas",
    "fit_identity_network",
    "identity_fit_error",
    "build_block_esn",
    "block_esn_functional",
    "random_esn",
    "random_trig_sas",
    "system_to_dict",
    "system_from_dict",
]


class StateOverflowError(RuntimeError):
    """Raised when a state update produces a non-finite entry."""


class EspNotCertifiedError(RuntimeError):
    """Raised when an operation requires an ESP certificate and none holds."""


# ---------------------------------------------------------------------------
# echo state certificates


@dataclass(frozen=True)
class EspReport:
    """Certificate for the echo state property.

    For geometric methods (spectral, lipschitz-spectral) bound is a
    per-step contraction factor and certification requires bound < 1.  For
    the nilpotent method bound is still a sound per-step growth factor
    (it may exceed 1) and state discrepancies vanish exactly after
    nilpotency_index steps.  Empirical decay never certifies.
    """

    certified: bool
    method: str  # spectral | nilpotent | lipschitz-spectral
    bound: float
    nilpotency_index: int | None = None

    def summary(self) -> dict:
        """The structural fields, as written to artifacts and system documents."""
        return {"certified": self.certified, "method": self.method, "bound": self.bound,
                "nilpotency_index": self.nilpotency_index}


def _support_nilpotency_index(support: np.ndarray) -> int | None:
    """Smallest m with support^m = 0 under boolean reachability, else None.

    Level peeling on the digraph j -> i where support[i, j]: each round drops
    the nodes no remaining node points to; the index (longest walk plus one)
    is the number of rounds that empty the graph, and a round that drops
    nothing meets a cycle.  O(N^2) to read the support plus O(N) per round.
    """
    indeg, alive = support.sum(axis=1), np.ones(support.shape[0], dtype=bool)
    rounds = 0
    while alive.any():
        roots = np.flatnonzero(alive & (indeg == 0))
        if roots.size == 0:
            return None
        alive[roots] = False
        indeg -= support[:, roots].sum(axis=1)
        rounds += 1
    return rounds or None


def _structural_report(method: str, bound: float, support: np.ndarray) -> EspReport:
    """Nilpotent coupling support certifies outright; else bound < 1 must hold."""
    idx = _support_nilpotency_index(support)
    if idx is not None:
        return EspReport(True, "nilpotent", bound, nilpotency_index=idx)
    return EspReport(bound < 1.0, method, bound)


# ---------------------------------------------------------------------------
# system types


def _frozen(x, matrix: str | None = None) -> np.ndarray:
    """Read-only float64 copy, so later writes by the caller cannot reach it."""
    arr = np.array(x, dtype=np.float64)
    if matrix is not None and arr.ndim != 2:
        raise ValueError(f"{matrix} must be 2-d, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


class _ReservoirSystem:
    """Base of the system types; caches the structural ESP certificate."""

    def certificate(self) -> EspReport:
        """Structural ESP report, proved once: the system arrays are read-only."""
        report = self.__dict__.get("_certificate")
        if report is None:
            report = self._prove()
            object.__setattr__(self, "_certificate", report)
        return report


@dataclass(frozen=True)
class LinearReservoir(_ReservoirSystem):
    """x_t = A x_{t-1} + c z_t with A (N, N) and c (N, n).

    Interface: N, n, scratch_slots, step(x, z, scratch), certificate()
    (nilpotent support of A, else ||A||_2 < 1), to_dict(), from_dict().
    step overwrites a state batch x (M, N) with its successor under inputs
    z (M, n), using scratch of shape (scratch_slots, M, N) as workspace.
    """

    A: np.ndarray
    c: np.ndarray
    scratch_slots = 1

    def __post_init__(self):
        A = _frozen(self.A, "A")
        c = _frozen(self.c, "c")
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        if c.shape[0] != A.shape[0]:
            raise ValueError("c must have N rows")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.c.shape[1]

    def step(self, x: np.ndarray, z: np.ndarray, scratch: np.ndarray) -> None:
        # overflow surfaces as a StateOverflowError from the finite check
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(x, self.A.T, out=scratch[0])
            np.matmul(z, self.c.T, out=x)
            np.add(scratch[0], x, out=x)

    def _prove(self) -> EspReport:
        return _structural_report("spectral", float(np.linalg.norm(self.A, 2)), self.A != 0.0)

    def to_dict(self) -> dict:
        return {"variant": "linear", "A": self.A.tolist(), "c": self.c.tolist()}

    @classmethod
    def from_dict(cls, doc: dict) -> "LinearReservoir":
        return cls(doc["A"], doc["c"])


@dataclass(frozen=True)
class TrigPolynomial:
    """Matrix-valued trig polynomial R(z) = sum_k A_k cos(u_k.z) + B_k sin(v_k.z).

    Stored as stacked read-only arrays: cos_mats/sin_mats have shape
    (r, rows, cols) and cos_freqs/sin_freqs shape (r, n).  A term may use
    only one of its two matrices (the other all zeros).
    """

    cos_mats: np.ndarray
    sin_mats: np.ndarray
    cos_freqs: np.ndarray
    sin_freqs: np.ndarray

    def __post_init__(self):
        cm = _frozen(self.cos_mats)
        sm = _frozen(self.sin_mats)
        cf = np.atleast_2d(_frozen(self.cos_freqs))
        sf = np.atleast_2d(_frozen(self.sin_freqs))
        if cm.ndim != 3 or sm.shape != cm.shape:
            raise ValueError("cos_mats and sin_mats must share shape (r, rows, cols)")
        r = cm.shape[0]
        if cf.shape[0] != r or sf.shape[0] != r or cf.shape[1] != sf.shape[1]:
            if r == 0:
                cf = cf.reshape(0, max(cf.shape[1] if cf.size else 1, 1))
                sf = sf.reshape(0, cf.shape[1])
            else:
                raise ValueError("frequency arrays must have shape (r, n)")
        for name, arr in (("cos_mats", cm), ("sin_mats", sm),
                          ("cos_freqs", cf), ("sin_freqs", sf)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, arr)

    @property
    def r(self) -> int:
        return self.cos_mats.shape[0]

    @property
    def rows(self) -> int:
        return self.cos_mats.shape[1]

    @property
    def cols(self) -> int:
        return self.cos_mats.shape[2]

    @property
    def n(self) -> int:
        return self.cos_freqs.shape[1]

    def apply(self, z: np.ndarray, x: np.ndarray, out: np.ndarray, term: np.ndarray) -> None:
        """out = R(z_m) x_m per row for z (M, n) and x (M, cols); out, term (M, rows).

        One BLAS matmul per coefficient matrix into term, weighted by its
        cos or sin column and added term by term into out, which starts
        from zeros.  term is workspace; neither may share memory with x.
        """
        out.fill(0.0)
        if self.r == 0:
            return
        c = np.cos(z @ self.cos_freqs.T)
        s = np.sin(z @ self.sin_freqs.T)
        for k in range(self.r):
            for mats, weights in ((self.cos_mats, c), (self.sin_mats, s)):
                np.matmul(x, mats[k].T, out=term)
                term *= weights[:, k, None]
                out += term

    def value_vector(self, z: np.ndarray, out: np.ndarray, term: np.ndarray) -> None:
        """out = R(z_m) per row for single-column polynomials; z (M, n), out, term (M, rows).

        The cos part goes into out and the sin part through term, which is
        workspace.
        """
        if self.cols != 1:
            raise ValueError("value_vector needs a single-column polynomial")
        np.matmul(np.cos(z @ self.cos_freqs.T), self.cos_mats[:, :, 0], out=out)
        np.matmul(np.sin(z @ self.sin_freqs.T), self.sin_mats[:, :, 0], out=term)
        out += term

    def norm_bound(self) -> float:
        """sup_z ||R(z)||_2 <= sum_k ||A_k||_2 + ||B_k||_2."""
        total = 0.0
        for k in range(self.r):
            total += np.linalg.norm(self.cos_mats[k], 2)
            total += np.linalg.norm(self.sin_mats[k], 2)
        return float(total)

    def support(self) -> np.ndarray:
        """Boolean (rows, cols) union of coefficient supports."""
        return np.any(self.cos_mats != 0.0, axis=0) | np.any(self.sin_mats != 0.0, axis=0)

    def to_dict(self) -> dict:
        names = ("cos_mats", "sin_mats", "cos_freqs", "sin_freqs")
        return {"shape": [self.r, self.rows, self.cols, self.n],
                **{name: getattr(self, name).tolist() for name in names}}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrigPolynomial":
        r, rows, cols, n = doc["shape"]
        mats, freqs = (r, rows, cols), (r, n)
        return cls(np.reshape(doc["cos_mats"], mats), np.reshape(doc["sin_mats"], mats),
                   np.reshape(doc["cos_freqs"], freqs), np.reshape(doc["sin_freqs"], freqs))


def _components(support: np.ndarray) -> list[np.ndarray]:
    """Index arrays of the connected components of the graph support | support.T."""
    linked = support | support.T
    label = np.full(len(linked), -1)
    for i in range(len(linked)):
        frontier = [i] if label[i] < 0 else []
        while len(frontier):
            label[frontier] = i
            frontier = np.flatnonzero(linked[frontier].any(axis=0) & (label < 0))
    # each component is labelled by its smallest index
    return [np.flatnonzero(label == i) for i in range(len(label)) if label[i] == i]


def _block_norm_bound(P: TrigPolynomial, support: np.ndarray) -> float:
    """sup_z ||P(z)||_2 <= max over blocks c of sum_k ||A_k[c, c]||_2 + ||B_k[c, c]||_2.

    The blocks are the connected components of P's support, over which
    P(z) is block diagonal up to a permutation, so its norm is the largest
    block norm.  A connected support sums the terms in P.norm_bound()'s
    order, to the same float.
    """
    return max((
        float(sum(np.linalg.norm(mats[k][np.ix_(c, c)], 2)
                  for k in range(P.r) for mats in (P.cos_mats, P.sin_mats)))
        for c in _components(support)
    ), default=0.0)


@dataclass(frozen=True)
class TrigSAS(_ReservoirSystem):
    """State-affine system x_t = P(z_t) x_{t-1} + Q(z_t).

    Interface as LinearReservoir: N, n, scratch_slots, step(x, z, scratch),
    certificate() (nilpotent support of P, else _block_norm_bound(P) < 1),
    to_dict(), from_dict().
    """

    P: TrigPolynomial
    Q: TrigPolynomial
    # P(z) x accumulates in one slot while its terms go through the other,
    # which then takes Q(z); x, once read, is the workspace for Q's terms
    scratch_slots = 2

    def __post_init__(self):
        if self.P.rows != self.P.cols:
            raise ValueError("P must be square")
        if self.Q.cols != 1 or self.Q.rows != self.P.rows:
            raise ValueError("Q must be a single-column polynomial with N rows")
        if self.P.r and self.Q.r and self.P.n != self.Q.n:
            raise ValueError("P and Q must share the input channel count")

    @property
    def N(self) -> int:
        return self.P.rows

    @property
    def n(self) -> int:
        return self.Q.n if self.Q.r else self.P.n

    def step(self, x: np.ndarray, z: np.ndarray, scratch: np.ndarray) -> None:
        self.P.apply(z, x, scratch[0], scratch[1])
        self.Q.value_vector(z, scratch[1], x)
        np.add(scratch[0], scratch[1], out=x)

    def _prove(self) -> EspReport:
        support = self.P.support()
        return _structural_report("spectral", _block_norm_bound(self.P, support), support)

    def to_dict(self) -> dict:
        return {"variant": "trig_sas", "P": self.P.to_dict(), "Q": self.Q.to_dict()}

    @classmethod
    def from_dict(cls, doc: dict) -> "TrigSAS":
        return cls(TrigPolynomial.from_dict(doc["P"]), TrigPolynomial.from_dict(doc["Q"]))


@dataclass(frozen=True)
class EchoStateNetwork(_ReservoirSystem):
    """x_t = sigma(A x_{t-1} + C z_t + bias).

    Interface as LinearReservoir: N, n, scratch_slots, step(x, z, scratch),
    certificate() (nilpotent support of A, else Lip(sigma) ||A||_2 < 1),
    to_dict(), from_dict().
    """

    A: np.ndarray
    C: np.ndarray
    bias: np.ndarray
    activation: str = "logistic"
    scratch_slots = 1

    def __post_init__(self):
        A = _frozen(self.A, "A")
        C = _frozen(self.C, "C")
        bias = np.atleast_1d(_frozen(self.bias))
        if A.shape[0] != A.shape[1]:
            raise ValueError("A must be square")
        N = A.shape[0]
        if C.shape[0] != N or bias.shape != (N,):
            raise ValueError("C, bias must match the state dimension")
        get_activation(self.activation)
        for name, arr in (("A", A), ("C", C), ("bias", bias)):
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.C.shape[1]

    def step(self, x: np.ndarray, z: np.ndarray, scratch: np.ndarray) -> None:
        pre = np.matmul(x, self.A.T, out=scratch[0])
        # x has been read: it takes the input term now and the next state last
        if self.n == 1:  # a K = 1 matmul costs far more than this outer product
            np.multiply(z, self.C[:, 0], out=x)
        else:
            np.matmul(z, self.C.T, out=x)
        pre += x
        pre += self.bias
        get_activation(self.activation).fn(pre, out=x)

    def _prove(self) -> EspReport:
        L = get_activation(self.activation).lipschitz
        factor = float(L * np.linalg.norm(self.A, 2))
        return _structural_report("lipschitz-spectral", factor, self.A != 0.0)

    def to_dict(self) -> dict:
        return {"variant": "esn", "A": self.A.tolist(), "C": self.C.tolist(),
                "bias": self.bias.tolist(), "activation": self.activation}

    @classmethod
    def from_dict(cls, doc: dict) -> "EchoStateNetwork":
        return cls(doc["A"], doc["C"], doc["bias"], doc["activation"])


_VARIANTS = {"linear": LinearReservoir, "trig_sas": TrigSAS, "esn": EchoStateNetwork}


# ---------------------------------------------------------------------------
# running


# windows per block of a state run; fixed, because BLAS rounding can depend
# on the number of rows in a product
_BLOCK_ROWS = 512


def _step(system, x: np.ndarray, z: np.ndarray, k: int, scratch: np.ndarray) -> None:
    """Advance a batch of states at lag k in place; non-finite states raise."""
    system.step(x, z, scratch)
    if not np.all(np.isfinite(x)):
        raise StateOverflowError(f"non-finite state at lag {k}")


def final_states(system, data: np.ndarray, x_init: np.ndarray | None = None,
                 trajectory: np.ndarray | None = None) -> np.ndarray:
    """Final states over a batch of windows, (M, T, n) -> (M, N).

    Windows are consumed oldest row first, in fixed blocks of 512 windows
    (rows 0-511, 512-1023, ...) spread over the worker threads, so the
    worker count never moves a value.  When trajectory, an array of shape
    (T, M, N), is given, its row k receives the states at lag k.  Raises
    StateOverflowError on non-finite states, naming the lag of the first
    block, in window order, that overflowed.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 3:
        raise ValueError(f"batch data must be (M, T, n), got shape {data.shape}")
    M, T, n = data.shape
    if n != system.n:
        raise ValueError(f"system expects {system.n} channels, window has {n}")
    if x_init is not None:
        x_init = np.broadcast_to(np.asarray(x_init, dtype=np.float64), (M, system.N))
    out = np.empty((M, system.N))

    def run(start, stop):
        # the state lives in out and each step overwrites it, with one
        # scratch per block as workspace, which keeps a worker's malloc
        # arena small
        x = out[start:stop]
        x[...] = 0.0 if x_init is None else x_init[start:stop]
        scratch = np.empty((system.scratch_slots, stop - start, system.N))
        for k in range(T - 1, -1, -1):
            _step(system, x, data[start:stop, k, :], k, scratch)
            if trajectory is not None:
                trajectory[k, start:stop] = x

    _run_blocks(run, M, _BLOCK_ROWS)
    return out


def certify_esp(system) -> EspReport:
    """Sound structural ESP certificate; never certified from empirical decay."""
    if not isinstance(system, _ReservoirSystem):
        raise TypeError(f"not a reservoir system: {type(system).__name__}")
    return system.certificate()


def washout_decay(system, data: np.ndarray, seed: int = 0) -> np.ndarray:
    """Distances ||x_t - x'_t||_2 for two initial states driven identically.

    data is a batch (M, T, n); returns (M, T + 1) where column 0 is the
    initial distance and column t the distance after t steps.  The two
    initial states are drawn standard normal from the seed and shared by
    every window.
    """
    data = np.asarray(data, dtype=np.float64)
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal(system.N), rng.standard_normal(system.N)
    M, T = data.shape[:2]
    traj_a, traj_b = np.empty((2, T, M, system.N))  # row k: states at lag k
    final_states(system, data, a, trajectory=traj_a)
    final_states(system, data, b, trajectory=traj_b)
    gaps = np.linalg.norm(traj_a - traj_b, axis=2)[::-1].T
    return np.column_stack([np.full(M, np.linalg.norm(a - b)), gaps])


# ---------------------------------------------------------------------------
# constructive builders


def build_shift_register(n: int, K: int) -> LinearReservoir:
    """Linear reservoir whose state stacks the last K + 1 inputs.

    N = n (K + 1); the state after consuming at least K + 1 inputs is
    exactly (z_0, z_-1, ..., z_-K) stacked lag-major.  The update moves
    entries by copies and additions with zeros only, so the identity is
    exact in floating point.
    """
    if n < 1 or K < 0:
        raise ValueError("need n >= 1 and K >= 0")
    N = n * (K + 1)
    A = np.zeros((N, N))
    idx = np.arange(n, N)
    A[idx, idx - n] = 1.0
    c = np.zeros((N, n))
    c[:n, :] = np.eye(n)
    return LinearReservoir(A, c)


def build_nilpotent_trig_sas(freqs, sine_lags=()) -> tuple[TrigSAS, LinearReadout]:
    """Nilpotent state-affine system and the linear readout realizing a product of sines/cosines.

    freqs has shape (K + 1, n); the readout of the final state after at
    least K + 1 steps equals prod_k g_k(freqs[k] . z_-k) with g_k = sin
    for lags in sine_lags and cos otherwise.  N = K + 1; the state
    polynomial uses a chain of unit shift matrices so every product of
    more than K factors vanishes identically.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    if freqs.ndim == 1:
        freqs = freqs[:, None]
    K = freqs.shape[0] - 1
    n = freqs.shape[1]
    sine_lags = set(int(k) for k in sine_lags)
    if any(k < 0 or k > K for k in sine_lags):
        raise ValueError(f"sine lags must lie in 0..{K}")
    N = K + 1

    cos_mats = np.zeros((K, N, N))
    sin_mats = np.zeros((K, N, N))
    cos_freqs = np.zeros((K, n))
    sin_freqs = np.zeros((K, n))
    for j in range(K):
        # term j carries the lag-j factor on the shift matrix with unit
        # entry at (K - j + 1, K - j), 1-indexed
        mats, term_freqs = (sin_mats, sin_freqs) if j in sine_lags else (cos_mats, cos_freqs)
        mats[j, K - j, K - j - 1] = 1.0
        term_freqs[j] = freqs[j]
    P = TrigPolynomial(cos_mats, sin_mats, cos_freqs, sin_freqs)

    qc = np.zeros((1, N, 1))
    qs = np.zeros((1, N, 1))
    qcf = np.zeros((1, n))
    qsf = np.zeros((1, n))
    if K in sine_lags:
        qs[0, 0, 0] = 1.0
        qsf[0] = freqs[K]
    else:
        qc[0, 0, 0] = 1.0
        qcf[0] = freqs[K]
    Q = TrigPolynomial(qc, qs, qcf, qsf)

    W = np.zeros(N)
    W[N - 1] = 1.0
    return TrigSAS(P, Q), LinearReadout(W)


def _block_terms(p1: TrigPolynomial, p2: TrigPolynomial, rows: int, cols: int,
                 r0: int, c0: int, n: int) -> TrigPolynomial:
    """The terms of p1 placed at (0, 0) and of p2 at (r0, c0) of a (rows, cols) polynomial."""
    parts = []
    for poly, i, j in ((p1, 0, 0), (p2, r0, c0)):
        cm, sm = np.zeros((2, poly.r, rows, cols))
        cm[:, i : i + poly.rows, j : j + poly.cols] = poly.cos_mats
        sm[:, i : i + poly.rows, j : j + poly.cols] = poly.sin_mats
        cf, sf = (poly.cos_freqs, poly.sin_freqs) if poly.r else np.zeros((2, 0, n))
        parts.append((cm, sm, cf, sf))
    return TrigPolynomial(*(np.concatenate(arrays) for arrays in zip(*parts)))


def direct_sum_sas(s1: TrigSAS, s2: TrigSAS) -> TrigSAS:
    """Block system whose state concatenates the states of two certified systems.

    The state polynomials act block-diagonally on the concatenated state
    and the drive terms stack.  With linear readouts r1 of s1 and r2 of
    s2, LinearReadout(np.concatenate([r1.W, lam * r2.W])) reads
    H1 + lam * H2 off the block system.  Raises if either input lacks an
    ESP certificate.
    """
    r1, r2 = certify_esp(s1), certify_esp(s2)
    if not (r1.certified and r2.certified):
        raise ValueError("direct sum requires both systems ESP-certified")
    if s1.n != s2.n:
        raise ValueError("systems must share the input channel count")
    N1, n, N = s1.N, s1.n, s1.N + s2.N

    P = _block_terms(s1.P, s2.P, N, N, N1, N1, n)  # block diagonal
    Q = _block_terms(s1.Q, s2.Q, N, 1, N1, 0, n)  # stacked column
    return TrigSAS(P, Q)


# ---------------------------------------------------------------------------
# identity-approximating networks and the block echo state construction


_IDENTITY_GRID, _IDENTITY_RANDOM, _IDENTITY_RIDGE = 9, 400, 1e-10


def fit_identity_network(
    n: int,
    half_width: float,
    hidden_units: int,
    activation: str = "logistic",
    seed: int = 0,
) -> tuple[list[NetworkReadout], float]:
    """Per-channel networks approximating the identity on [-m, m]^n.

    Hidden layers are random features (Gaussian directions, thresholds
    spread over the projected range); output weights come from the shared
    ridge solve (penalty _IDENTITY_RIDGE in unit-RMS feature scaling)
    against the coordinate values on a grid of _IDENTITY_GRID points per
    axis plus _IDENTITY_RANDOM random points.
    Returns the networks and the measured sup error over a dense check set,
    which is the epsilon entering downstream approximation bounds.
    """
    if hidden_units < 1:
        raise ValueError("hidden_units must be >= 1")
    m = float(half_width)
    if m <= 0:
        raise ValueError("half_width must be > 0")
    rng = np.random.default_rng(seed)
    if n <= 2:
        axes = [np.linspace(-m, m, _IDENTITY_GRID)] * n
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    else:
        grid = rng.uniform(-m, m, size=(_IDENTITY_GRID**2, n))
    X = np.vstack([grid, rng.uniform(-m, m, size=(_IDENTITY_RANDOM, n))])

    nets = []
    for i in range(n):
        alpha, theta, feats = _random_features(X, hidden_units, m * np.sqrt(n), activation,
                                               rng, rng)
        beta, _ = _ridge_solve(feats, X[:, i], _IDENTITY_RIDGE)
        nets.append(NetworkReadout(beta, alpha, theta, activation))

    eps = identity_fit_error(nets, rng.uniform(-m, m, size=(2000, n)))
    return nets, eps


def _identity_apply(nets: Sequence[NetworkReadout], x: np.ndarray) -> np.ndarray:
    """J(x) per row: x (M, n) -> (M, n) via the per-channel networks."""
    return np.stack([eval_readout(net, x) for net in nets], axis=1)


def identity_fit_error(nets: Sequence[NetworkReadout], points: np.ndarray) -> float:
    """Measured max over points (M, n) of max_i |J(x)_i - x_i|."""
    return float(np.max(np.abs(_identity_apply(nets, points) - points)))


def build_block_esn(
    inner: NetworkReadout,
    identity_nets: Sequence[NetworkReadout],
    n: int,
) -> tuple[EchoStateNetwork, LinearReadout]:
    """Echo state network and linear readout realizing a shallow network of the last K + 1 inputs.

    inner maps the stacked window (z_0, z_-1, ..., z_-K) in R^{n(K+1)}
    through one hidden layer; identity_nets feed each input forward one
    step per block.  The coupling matrix is strictly block lower
    triangular, so the state forgets its initialization exactly after
    K + 1 steps, and the readout of the final state reproduces the closed
    form of block_esn_functional once the window is at least K + 1 long.
    """
    if inner.alpha.shape[1] % n != 0:
        raise ValueError("inner network input dimension must be a multiple of n")
    K = inner.alpha.shape[1] // n - 1
    if K < 0:
        raise ValueError("inner network must read at least the current input")
    lag_blocks = [inner.alpha[:, j * n : (j + 1) * n] for j in range(K + 1)]
    zeta_bar = -inner.theta
    Nbar = inner.k

    if K == 0:
        return EchoStateNetwork(
            A=np.zeros((Nbar, Nbar)), C=lag_blocks[0], bias=zeta_bar,
            activation=inner.activation,
        ), LinearReadout(inner.beta)

    if len(identity_nets) != n:
        raise ValueError(f"need one identity network per channel, got {len(identity_nets)}")
    for net in identity_nets:
        if net.activation != inner.activation:
            raise ValueError("identity networks must share the inner activation")
        if net.alpha.shape[1] != n:
            raise ValueError("identity networks must map R^n")

    A_J = np.vstack([net.alpha for net in identity_nets])  # (N_J, n)
    zeta_J = -np.concatenate([net.theta for net in identity_nets])
    N_J = A_J.shape[0]
    W_J = np.zeros((n, N_J))  # block-diagonal rows of output weights
    off = 0
    for i, net in enumerate(identity_nets):
        W_J[i, off : off + net.k] = net.beta
        off += net.k

    N = K * N_J + Nbar
    A = np.zeros((N, N))
    AJWJ = A_J @ W_J
    for b in range(1, K):
        A[b * N_J : (b + 1) * N_J, (b - 1) * N_J : b * N_J] = AJWJ
    for b in range(K):
        A[K * N_J :, b * N_J : (b + 1) * N_J] = lag_blocks[b + 1] @ W_J
    C = np.zeros((N, n))
    C[:N_J] = A_J
    C[K * N_J :] = lag_blocks[0]
    bias = np.concatenate([np.tile(zeta_J, K), zeta_bar])
    W = np.zeros(N)
    W[K * N_J :] = inner.beta
    return EchoStateNetwork(A=A, C=C, bias=bias, activation=inner.activation), LinearReadout(W)


def block_esn_functional(
    inner: NetworkReadout,
    identity_nets: Sequence[NetworkReadout],
    data: np.ndarray,
) -> np.ndarray:
    """Closed-form output of the block construction on windows (M, T, n).

    Equals W_bar . sigma(sum_j lag_block_j J^j(z_-j) + lag_block_0 z_0 +
    zeta_bar) where J^j is the j-fold identity-network composition.
    """
    data = np.asarray(data, dtype=np.float64)
    M, T, n = data.shape
    K = inner.alpha.shape[1] // n - 1
    if T < K + 1:
        raise ValueError(f"window length {T} shorter than memory {K}")
    lag_blocks = [inner.alpha[:, j * n : (j + 1) * n] for j in range(K + 1)]
    pre = data[:, 0, :] @ lag_blocks[0].T - inner.theta
    for j in range(1, K + 1):
        v = data[:, j, :]
        for _ in range(j):
            v = _identity_apply(identity_nets, v)
        pre = pre + v @ lag_blocks[j].T
    return get_activation(inner.activation).fn(pre) @ inner.beta


# ---------------------------------------------------------------------------
# random systems for trained experiments


def random_esn(
    N: int,
    n: int,
    seed: int,
    activation: str = "tanh",
    spectral: float = 0.95,
    input_scale: float = 0.1,
    bias_scale: float = 0.1,
) -> EchoStateNetwork:
    """Random network with orthogonal coupling scaled to sigma_max = spectral.

    An orthogonal coupling matrix puts every singular value at the
    certificate bound, so the reservoir keeps long memory while staying
    inside the sound contraction certificate (a dense Gaussian matrix
    rescaled to the same sigma_max has a much smaller spectral radius and
    forgets quickly).
    """
    if spectral <= 0.0:
        raise ValueError("spectral must be positive")
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((N, N)))
    A = spectral * Q
    sigma = np.linalg.norm(A, 2)
    if spectral < 1.0 <= sigma:  # rounding guard; keep a subcritical request strict
        A *= (1.0 - 1e-12) / sigma
    C = input_scale * rng.standard_normal((N, n))
    bias = rng.uniform(-bias_scale, bias_scale, size=N)
    return EchoStateNetwork(A=A, C=C, bias=bias, activation=activation)


def random_trig_sas(
    N: int,
    n: int,
    terms: int,
    seed: int,
    contraction: float = 0.9,
    freq_scale: float = 1.0,
) -> TrigSAS:
    """Random state-affine system rescaled inside the contraction certificate."""
    rng = np.random.default_rng(seed)
    cm = rng.standard_normal((terms, N, N))
    sm = rng.standard_normal((terms, N, N))
    cf = freq_scale * rng.standard_normal((terms, n))
    sf = freq_scale * rng.standard_normal((terms, n))
    P = TrigPolynomial(cm, sm, cf, sf)
    scale = contraction / P.norm_bound()
    P = TrigPolynomial(cm * scale, sm * scale, cf, sf)
    qc = rng.standard_normal((1, N, 1))
    qc /= np.linalg.norm(qc[0], 2)
    Q = TrigPolynomial(qc, np.zeros((1, N, 1)), freq_scale * rng.standard_normal((1, n)),
                       np.zeros((1, n)))
    return TrigSAS(P, Q)


# ---------------------------------------------------------------------------
# serialization


def system_to_dict(system, readout=None) -> dict:
    """Variant-tagged JSON document with its ESP summary; floats survive a round trip bit-exact."""
    if not isinstance(system, _ReservoirSystem):
        raise TypeError(f"not a reservoir system: {type(system).__name__}")
    doc = system.to_dict()
    doc["esp"] = certify_esp(system).summary()
    if readout is not None:
        doc["readout"] = readout_to_dict(readout)
    return doc


def system_from_dict(doc: dict):
    """Inverse of system_to_dict; returns (system, readout_or_None)."""
    variant = doc.get("variant")
    if variant not in _VARIANTS:
        raise ValueError(f"unknown system variant {variant!r}")
    readout = readout_from_dict(doc["readout"]) if "readout" in doc else None
    return _VARIANTS[variant].from_dict(doc), readout
