"""Reservoir systems: dynamics, ESP certificates, constructive builders,
direct sums, block networks."""

import dataclasses
import functools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import rcuniv as rc
from rcuniv.readouts import _ridge_solve, get_activation
from rcuniv.reservoirs import (
    _IDENTITY_GRID,
    _IDENTITY_RANDOM,
    _IDENTITY_RIDGE,
    TrigPolynomial,
    _support_nilpotency_index,
    final_states,
    identity_fit_error,
)


def _gauss_windows(T, n, M, seed):
    return np.random.default_rng(seed).normal(size=(M, T, n))


def _trajectory(system, window, x_init=None):
    """States over one (T, n) window as a one-window batch; row k is the state at lag k."""
    traj = np.empty((len(window), 1, system.N))
    final_states(system, window[None], x_init, trajectory=traj)
    return traj[:, 0]


def _outputs(built, data):
    """Readout of the final states of a (system, readout) pair over windows (M, T, n)."""
    system, readout = built
    return rc.eval_readout(readout, final_states(system, data))


# ---------------------------------------------------------------------------
# dynamics


def test_linear_identity_trace():
    # A = 0, c = 1: state copies the newest input
    sys1 = rc.LinearReservoir(np.zeros((1, 1)), np.ones((1, 1)))
    states = _trajectory(sys1, np.array([[1.0], [1.0], [1.0]]))
    np.testing.assert_array_equal(states, np.ones((3, 1)))


def test_states_are_lag_ordered():
    sr = rc.build_shift_register(1, 0)
    states = _trajectory(sr, np.array([[4.0], [3.0], [2.0]]))
    # row k holds the state after consuming everything up to lag k
    np.testing.assert_array_equal(states, np.array([[4.0], [3.0], [2.0]]))


def test_shift_register_stacks_exactly():
    sr = rc.build_shift_register(2, 1)
    rng = np.random.default_rng(0)
    w = rng.normal(size=(5, 2))
    states = _trajectory(sr, w)
    np.testing.assert_array_equal(states[0], np.r_[w[0], w[1]])
    np.testing.assert_array_equal(states[1], np.r_[w[1], w[2]])


def test_shift_register_matrices_frozen():
    sr = rc.build_shift_register(1, 1)
    np.testing.assert_array_equal(sr.A, np.array([[0.0, 0.0], [1.0, 0.0]]))
    np.testing.assert_array_equal(sr.c, np.array([[1.0], [0.0]]))
    sr0 = rc.build_shift_register(2, 0)
    np.testing.assert_array_equal(sr0.A, np.zeros((2, 2)))
    np.testing.assert_array_equal(sr0.c, np.eye(2))


def test_esn_zero_weights():
    esn = rc.EchoStateNetwork(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros(2), "logistic")
    states = _trajectory(esn, np.ones((4, 1)))
    np.testing.assert_array_equal(states, np.full((4, 2), 0.5))


def test_state_overflow_raises():
    sys1 = rc.LinearReservoir(np.array([[2.0]]), np.array([[1.0]]))
    with pytest.raises(rc.StateOverflowError):
        _trajectory(sys1, np.ones((1100, 1)))


def test_trig_sas_overflow_raises_only_the_state_error():
    # P(z) x overflows at lag 1, inside the stacked product; warnings are errors,
    # so a RuntimeWarning from the product would come out instead
    big = TrigPolynomial(np.full((1, 2, 2), 1e200), np.zeros((1, 2, 2)),
                         np.zeros((1, 1)), np.zeros((1, 1)))
    Q = TrigPolynomial(np.ones((1, 2, 1)), np.zeros((1, 2, 1)), np.zeros((1, 1)), np.zeros((1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(rc.StateOverflowError, match="at lag 1$"):
            final_states(rc.TrigSAS(big, Q), np.ones((3, 4, 1)))


def test_input_channel_check():
    sr = rc.build_shift_register(2, 1)
    with pytest.raises(ValueError):
        _trajectory(sr, np.ones((3, 1)))


# ---------------------------------------------------------------------------
# ESP certificates


def test_certify_contractive_linear():
    rep = rc.certify_esp(rc.LinearReservoir(0.5 * np.eye(2), np.eye(2)))
    assert rep.certified and rep.method == "spectral"
    assert rep.bound == pytest.approx(0.5, rel=1e-12)


def test_certify_shift_register_nilpotent():
    rep = rc.certify_esp(rc.build_shift_register(1, 2))
    assert rep.certified and rep.method == "nilpotent"
    assert rep.nilpotency_index == 3
    assert rep.bound == pytest.approx(1.0, rel=1e-12)


def test_certify_esn_failure_reports_bound():
    # tanh with sigma_max(A) = 1.5: certificate fails, bound reported
    A = np.diag([1.5, 0.5])
    esn = rc.EchoStateNetwork(A, np.ones((2, 1)), np.zeros(2), "tanh")
    rep = rc.certify_esp(esn)
    assert not rep.certified
    assert rep.method == "lipschitz-spectral"
    assert rep.bound == pytest.approx(1.5, rel=1e-12)
    assert rep.nilpotency_index is None


def test_certify_esn_logistic_gain():
    # logistic L = 1/4 certifies sigma_max(A) = 3 at bound 0.75
    A = np.diag([3.0, 1.0])
    esn = rc.EchoStateNetwork(A, np.ones((2, 1)), np.zeros(2), "logistic")
    rep = rc.certify_esp(esn)
    assert rep.certified and rep.method == "lipschitz-spectral"
    assert rep.bound == pytest.approx(0.75, rel=1e-12)


def test_uncertified_esn_never_reports_empirical():
    # the certificate is structural only: no window is read, no empirical method
    A = np.diag([1.5, 0.5])
    esn = rc.EchoStateNetwork(A, np.ones((2, 1)), np.zeros(2), "tanh")
    rep = rc.certify_esp(esn)
    assert not rep.certified
    assert rep.method == "lipschitz-spectral"
    assert rep.bound == pytest.approx(1.5, rel=1e-12)
    with pytest.raises(TypeError):
        rc.certify_esp(esn, window=np.ones((3, 1)))


def test_certify_trig_sas_paths():
    sas = rc.random_trig_sas(4, 1, terms=3, seed=2, contraction=0.8)
    rep = rc.certify_esp(sas)
    assert rep.certified and rep.method == "spectral"
    assert rep.bound == pytest.approx(0.8, rel=1e-9)
    nil, _ = rc.build_nilpotent_trig_sas(np.array([[1.0], [2.0]]), sine_lags=(0,))
    rep = rc.certify_esp(nil)
    assert rep.certified and rep.method == "nilpotent" and rep.nilpotency_index == 2


def test_certify_rejects_unknown_type():
    with pytest.raises(TypeError):
        rc.certify_esp(object())


def _power_nilpotency_index(support):
    """Boolean powers of the support until one vanishes: the O(N^4) reference."""
    N = support.shape[0]
    power = support.copy()
    for m in range(1, N + 1):
        if not power.any():
            return m
        power = (power.astype(np.int64) @ support.astype(np.int64)) > 0
    return None


def _random_supports(seed):
    rng = np.random.default_rng(seed)
    N = int(rng.integers(1, 40))
    lower = np.tril(rng.uniform(size=(N, N)) < rng.uniform(0.05, 0.9), -1)
    perm = rng.permutation(N)
    looped = lower.copy()
    looped[rng.integers(N), rng.integers(N)] = True  # may close a cycle or not
    self_loop = lower.copy()
    i = rng.integers(N)
    self_loop[i, i] = True
    return {
        "dense": np.ones((N, N), dtype=bool),
        "shift": np.eye(N, k=-1, dtype=bool),
        "lower": lower,
        "permuted_dag": lower[np.ix_(perm, perm)],
        "dag_plus_edge": looped,
        "self_loop": self_loop,
        "sparse": rng.uniform(size=(N, N)) < 2.0 / N,
        "zero": np.zeros((N, N), dtype=bool),
    }


@pytest.mark.parametrize("seed", range(25))
def test_nilpotency_index_matches_matrix_powers(seed):
    supports = _random_supports(seed)
    for kind, support in supports.items():
        assert _support_nilpotency_index(support) == _power_nilpotency_index(support), kind
    N = supports["zero"].shape[0]
    assert _support_nilpotency_index(supports["shift"]) == N
    assert _support_nilpotency_index(supports["self_loop"]) is None
    assert _support_nilpotency_index(supports["zero"]) == 1


def test_nilpotency_index_of_an_empty_support_is_none():
    empty = np.zeros((0, 0), dtype=bool)
    assert _support_nilpotency_index(empty) is None
    assert _power_nilpotency_index(empty) is None


def test_nilpotency_index_at_scale():
    # the longest path of a full strictly lower-triangular support visits all nodes
    assert _support_nilpotency_index(np.tri(1000, k=-1, dtype=bool)) == 1000


@pytest.mark.parametrize(
    "build",
    [
        lambda: rc.LinearReservoir(0.7 * np.eye(3), np.ones((3, 1))),
        lambda: rc.build_shift_register(1, 3),
        lambda: rc.random_trig_sas(4, 1, terms=3, seed=3, contraction=0.85),
        lambda: rc.random_esn(6, 1, seed=4, activation="logistic"),
        lambda: rc.build_nilpotent_trig_sas(np.array([[0.8], [1.3], [0.4]]), (1,))[0],
    ],
)
def test_washout_soundness(build):
    system = build()
    rep = rc.certify_esp(system)
    assert rep.certified
    rng = np.random.default_rng(5)
    for k in range(10):
        w = rng.normal(size=(25, system.n))
        d = rc.washout_decay(system, w[None], seed=k)[0]
        steps = np.arange(d.shape[0])
        assert np.all(d <= d[0] * rep.bound**steps * (1.0 + 1e-9) + 1e-300)
        if rep.method == "nilpotent":
            assert np.all(d[rep.nilpotency_index :] == 0.0)


def test_washout_rate_within_lipschitz_budget():
    # logistic, sigma_max = 0.9: every step contracts by at most L * sigma
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5))
    A *= 0.9 / np.linalg.norm(A, 2)
    esn = rc.EchoStateNetwork(A, rng.normal(size=(5, 1)), rng.normal(size=5), "logistic")
    rep = rc.certify_esp(esn)
    assert rep.certified and rep.bound == pytest.approx(0.225, rel=1e-12)
    d = rc.washout_decay(esn, rng.normal(size=(1, 30, 1)), seed=7)[0]
    assert np.all(d <= d[0] * 0.225 ** np.arange(d.shape[0]) * (1.0 + 1e-9))


@pytest.mark.parametrize(
    "build",
    [
        lambda: rc.random_esn(6, 2, seed=8, activation="tanh", spectral=0.9),
        lambda: rc.build_shift_register(2, 2),
        lambda: rc.build_nilpotent_trig_sas(np.array([[0.8, -0.3], [1.3, 0.5], [0.4, 1.1]]),
                                            (1,))[0],
    ],
    ids=["contractive_esn", "shift_register", "nilpotent_sas"],
)
def test_washout_decay_batch_rows_match_single_windows(build):
    # both initial states are shared by every window of the batch
    system = build()
    data = _gauss_windows(9, 2, 7, 44)
    d = rc.washout_decay(system, data, seed=3)
    assert d.shape == (7, 10)
    for i in range(7):
        single = rc.washout_decay(system, data[i : i + 1], seed=3)
        assert single.shape == (1, 10)
        np.testing.assert_allclose(d[i], single[0], rtol=1e-12, atol=0.0)
    assert np.all(d[:, 0] == d[0, 0]) and d[0, 0] > 0
    rep = rc.certify_esp(system)
    if rep.method == "nilpotent":
        assert np.all(d[:, rep.nilpotency_index :] == 0.0)


# ---------------------------------------------------------------------------
# nilpotent trig systems


def test_nilpotent_sas_zero_freqs_is_one():
    sas = rc.build_nilpotent_trig_sas(np.zeros((2, 1)), sine_lags=())
    for w in _gauss_windows(4, 1, 20, 8):
        assert _outputs(sas, w[None])[0] == 1.0


def test_nilpotent_sas_single_sine():
    u = np.array([[1.3]])
    sas = rc.build_nilpotent_trig_sas(u, sine_lags=(0,))
    w = np.array([[0.4]])
    assert _outputs(sas, w[None])[0] == pytest.approx(math.sin(1.3 * 0.4), rel=1e-14)


def test_nilpotent_sas_matches_product():
    rng = np.random.default_rng(9)
    freqs = rng.normal(size=(3, 2))
    sas = rc.build_nilpotent_trig_sas(freqs, sine_lags=(0, 2))
    spec = rc.trig_product(freqs, sine_lags=(0, 2))
    data = _gauss_windows(3, 2, 50, 10)
    got = _outputs(sas, data)
    want = rc.evaluate_functional_batch(spec, data)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_nilpotent_sas_time_invariant_beyond_depth():
    freqs = np.random.default_rng(11).normal(size=(2, 1))
    sas = rc.build_nilpotent_trig_sas(freqs, sine_lags=(1,))
    data = _gauss_windows(9, 1, 8, 12)
    long_vals = _outputs(sas, data)
    short_vals = _outputs(sas, np.ascontiguousarray(data[:, :2]))
    np.testing.assert_array_equal(long_vals, short_vals)


def _einsum_apply(poly, z, x):
    """The three-operand einsum form of TrigPolynomial.apply: the reference."""
    if poly.r == 0:
        return np.zeros((z.shape[0], poly.rows))
    c = np.cos(z @ poly.cos_freqs.T)
    s = np.sin(z @ poly.sin_freqs.T)
    out = np.einsum("mk,kij,mj->mi", c, poly.cos_mats, x)
    out += np.einsum("mk,kij,mj->mi", s, poly.sin_mats, x)
    return out


def _polynomials():
    rng = np.random.default_rng(23)
    sas = rc.random_trig_sas(25, 2, terms=4, seed=24)
    return {
        "random_P": sas.P,
        "random_Q": sas.Q,
        "random_P_n1": rc.random_trig_sas(50, 1, terms=3, seed=25).P,
        "empty": TrigPolynomial(np.zeros((0, 3, 3)), np.zeros((0, 3, 3)),
                                np.zeros((0, 2)), np.zeros((0, 2))),
        "non_square": TrigPolynomial(rng.normal(size=(3, 4, 6)), rng.normal(size=(3, 4, 6)),
                                     rng.normal(size=(3, 2)), rng.normal(size=(3, 2))),
        "one_matrix_per_term": rc.build_nilpotent_trig_sas(
            rng.normal(size=(4, 2)), sine_lags=(0, 2))[0].P,
    }


@pytest.mark.parametrize("name", sorted(_polynomials()))
def test_apply_matches_einsum(name):
    poly = _polynomials()[name]
    rng = np.random.default_rng(26)
    z = rng.normal(size=(300, poly.n))
    x = rng.normal(size=(300, poly.cols))
    # apply overwrites whatever its buffers hold
    got, term = np.full((2, 300, poly.rows), np.nan)
    poly.apply(z, x, got, term)
    want = _einsum_apply(poly, z, x)
    assert want.shape == (300, poly.rows)
    scale = np.abs(want).max(initial=0.0)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14 * scale)


def _per_term_final_states(system, data):
    """final_states of a TrigSAS summed term by term, one product per coefficient matrix."""
    x, ones = np.zeros((len(data), system.N)), np.ones((len(data), 1))
    for k in range(data.shape[1] - 1, -1, -1):
        z, nxt = data[:, k], np.zeros_like(x)
        for poly, v in ((system.P, x), (system.Q, ones)):
            c, s = np.cos(z @ poly.cos_freqs.T), np.sin(z @ poly.sin_freqs.T)
            for j in range(poly.r):
                nxt += c[:, j, None] * (v @ poly.cos_mats[j].T)
                nxt += s[:, j, None] * (v @ poly.sin_mats[j].T)
        x = nxt
    return x


def _ten_chains():
    """Ten nilpotent chains of length 10 in one direct sum: N = 100, r = 90."""
    rng = np.random.default_rng(78)
    return functools.reduce(rc.direct_sum_sas, [
        rc.build_nilpotent_trig_sas(rng.normal(size=(10, 1)), sine_lags=(j,))[0]
        for j in range(10)])


def test_stacked_product_workspace_stays_bounded():
    system = _ten_chains()
    assert (system.N, system.P.r) == (100, 90)
    data = _gauss_windows(10, 1, 512, 79)
    tracemalloc.start()
    try:
        got = final_states(system, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_allclose(got, _per_term_final_states(system, data), rtol=0, atol=1e-14)
    # 64-row slices: the scratch, 24 slots of (512, 100), takes 9.8 MB, and
    # the states and the (512, 2r) weights 1.1 MB; the unsliced (512, 2r N)
    # product of the block would take 74 MB
    assert peak < 16e6


def test_trig_system_holds_its_terms_once():
    # the terms take 14.4 MB; a second, stacked copy of them kept for the
    # step would double what a run leaves held
    data = _gauss_windows(10, 1, 1, 79)
    tracemalloc.start()
    try:
        system = _ten_chains()
        final_states(system, data)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    terms = sum(getattr(poly, name).nbytes for poly in (system.P, system.Q)
                for name in ("cos_mats", "sin_mats", "cos_freqs", "sin_freqs"))
    assert terms > 14e6
    assert held < 1.25 * terms


@pytest.mark.parametrize("name", sorted(set(_polynomials()) - {"empty"}))
def test_trig_fields_are_read_only_views_of_the_stacked_terms(name):
    poly = _polynomials()[name]
    for field, store in (("cos_mats", poly._mats), ("sin_mats", poly._mats),
                         ("cos_freqs", poly._freqs), ("sin_freqs", poly._freqs)):
        view = getattr(poly, field)
        assert not view.flags.writeable and np.shares_memory(view, store)


def test_replacing_a_trig_field_replaces_the_terms_apply_runs():
    poly = _polynomials()["random_P"]
    rng = np.random.default_rng(27)
    sin_mats = rng.normal(size=poly.sin_mats.shape)
    new = dataclasses.replace(poly, sin_mats=sin_mats)
    assert not np.shares_memory(new._mats, poly._mats)
    z, x = rng.normal(size=(300, poly.n)), rng.normal(size=(300, poly.cols))
    old_out, new_out, work = np.empty((3, 300, poly.rows))
    poly.apply(z, x, old_out, work)
    new.apply(z, x, new_out, work)
    # R_new(z) x = R(z) x + sum_k sin(v_k . z) (B'_k - B_k) x
    s = np.sin(z @ poly.sin_freqs.T)
    want = old_out + np.einsum("mk,kij,mj->mi", s, sin_mats - poly.sin_mats, x)
    np.testing.assert_allclose(new_out, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _stateless_system(kind):
    """A system of kind with N = 0 and one input channel."""
    if kind == "linear":
        return rc.LinearReservoir(np.zeros((0, 0)), np.zeros((0, 1)))
    if kind == "esn":
        return rc.EchoStateNetwork(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros(0))
    P, Q = (TrigPolynomial(np.zeros((1, 0, cols)), np.zeros((1, 0, cols)), np.ones((1, 1)),
                           np.ones((1, 1))) for cols in (0, 1))
    return rc.TrigSAS(P, Q)


@pytest.mark.parametrize("kind", ["linear", "trig_sas", "esn"])
def test_a_system_with_no_state_runs_to_empty_states(kind):
    system = _stateless_system(kind)
    assert system.N == 0 and rc.certify_esp(system).certified
    # 600 windows: a full block of 512 and a partial one
    assert final_states(system, _gauss_windows(5, 1, 600, 80)).shape == (600, 0)


def test_trig_polynomial_takes_r_by_n_frequencies_only():
    mats = np.zeros((1, 2, 2))
    with pytest.raises(ValueError, match=re.escape("cos_freqs must be 2-d, got shape (1,)")):
        TrigPolynomial(mats, mats, np.ones(1), np.ones((1, 1)))
    with pytest.raises(ValueError, match=re.escape("frequency arrays must have shape (r, n)")):
        TrigPolynomial(mats, mats, np.ones((2, 1)), np.ones((2, 1)))
    # a polynomial with no terms keeps its own channel count, which a system checks
    no_terms = TrigPolynomial(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)),
                              np.zeros((0, 3)), np.zeros((0, 3)))
    assert no_terms.n == 3
    Q = TrigPolynomial(np.ones((1, 2, 1)), np.zeros((1, 2, 1)), np.ones((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="P and Q must share the input channel count"):
        rc.TrigSAS(no_terms, Q)


# ---------------------------------------------------------------------------
# direct sums


def _random_nilpotent(seed, K=2, n=1):
    rng = np.random.default_rng(seed)
    freqs = rng.normal(size=(K + 1, n))
    lags = tuple(int(j) for j in range(K + 1) if rng.uniform() < 0.5)
    return rc.build_nilpotent_trig_sas(freqs, sine_lags=lags)


def _sum_outputs(built1, built2, lam, data):
    """H1 + lam H2 read off the direct sum of two (system, linear readout) pairs."""
    (s1, r1), (s2, r2) = built1, built2
    readout = rc.LinearReadout(np.concatenate([r1.W, lam * r2.W]))
    return _outputs((rc.direct_sum_sas(s1, s2), readout), data)


def test_direct_sum_zero_weight_returns_first():
    b1, b2 = _random_nilpotent(13), _random_nilpotent(14)
    data = _gauss_windows(3, 1, 40, 15)
    np.testing.assert_allclose(_sum_outputs(b1, b2, 0.0, data), _outputs(b1, data), atol=1e-14)


def test_direct_sum_self_cancellation():
    b = _random_nilpotent(16)
    data = _gauss_windows(3, 1, 40, 17)
    np.testing.assert_allclose(_sum_outputs(b, b, -1.0, data), 0.0, atol=1e-13)


def test_direct_sum_linearity():
    b1, b2 = _random_nilpotent(18, K=1), _random_nilpotent(19, K=3)
    lam = 2.5
    data = _gauss_windows(4, 1, 50, 20)
    want = _outputs(b1, data) + lam * _outputs(b2, data)
    np.testing.assert_allclose(_sum_outputs(b1, b2, lam, data), want, atol=1e-10)


def test_direct_sum_requires_certificates():
    big = np.random.default_rng(21).normal(size=(1, 3, 3)) * 5.0
    loud = rc.TrigSAS(
        TrigPolynomial(big, np.zeros((1, 3, 3)), np.ones((1, 1)), np.ones((1, 1))),
        TrigPolynomial(
            np.ones((1, 3, 1)), np.zeros((1, 3, 1)), np.zeros((1, 1)), np.zeros((1, 1))
        ),
    )
    assert not rc.certify_esp(loud).certified
    with pytest.raises(ValueError):
        rc.direct_sum_sas(loud, _random_nilpotent(22)[0])


def test_direct_sum_carries_contraction_certificate():
    s1 = rc.random_trig_sas(3, 1, terms=2, seed=23, contraction=0.6)
    s2 = rc.random_trig_sas(4, 1, terms=2, seed=24, contraction=0.8)
    rep = rc.certify_esp(rc.direct_sum_sas(s1, s2))
    assert rep.certified and rep.method == "spectral"
    assert rep.bound == pytest.approx(0.8, rel=1e-9)
    rng = np.random.default_rng(25)
    b1 = s1, rc.LinearReadout(rng.normal(size=3))
    b2 = s2, rc.LinearReadout(rng.normal(size=4))
    data = _gauss_windows(25, 1, 30, 25)
    want = _outputs(b1, data) + 1.5 * _outputs(b2, data)
    np.testing.assert_allclose(_sum_outputs(b1, b2, 1.5, data), want, atol=1e-10)


def test_direct_sum_certificate_survives_a_system_document_round_trip():
    # the system's document is its field dict; a TrigSAS rebuilt from copies
    # of those arrays proves the same spectral certificate afresh
    s1 = rc.random_trig_sas(3, 1, terms=2, seed=23, contraction=0.6)
    s2 = rc.random_trig_sas(4, 1, terms=2, seed=24, contraction=0.8)
    system = rc.direct_sum_sas(s1, s2)
    doc = dataclasses.asdict(system)
    back = rc.TrigSAS(*(rc.TrigPolynomial(**{k: np.array(v) for k, v in doc[part].items()})
                        for part in ("P", "Q")))
    rep = rc.certify_esp(back)
    assert rep.certified and rep.method == "spectral"
    assert rep.bound == pytest.approx(0.8, rel=1e-9)
    assert rep == rc.certify_esp(system) and rep is not rc.certify_esp(system)


def _term_norm_sum(P):
    """sum_k ||A_k||_2 + ||B_k||_2, the bound on sup_z ||P(z)||_2 that ignores blocks."""
    return float(sum(np.linalg.norm(mats[k], 2)
                     for k in range(P.r) for mats in (P.cos_mats, P.sin_mats)))


def test_block_bound_is_the_largest_component_bound():
    # the sum of all term norms is 0.6 + 0.8 > 1, but each block of the
    # block-diagonal P contracts on its own
    s1 = rc.random_trig_sas(3, 1, terms=2, seed=23, contraction=0.6)
    s2 = rc.random_trig_sas(4, 1, terms=2, seed=24, contraction=0.8)
    combined = rc.direct_sum_sas(s1, s2)
    P, bound = combined.P, rc.certify_esp(combined).bound
    assert _term_norm_sum(P) == pytest.approx(1.4, rel=1e-9)
    assert bound == pytest.approx(0.8, rel=1e-9)
    for z in np.random.default_rng(26).normal(size=(200, 1)):
        Pz = sum(np.cos(P.cos_freqs[k] @ z) * P.cos_mats[k]
                 + np.sin(P.sin_freqs[k] @ z) * P.sin_mats[k] for k in range(P.r))
        assert np.linalg.norm(Pz, 2) <= bound


def test_connected_support_keeps_the_sum_of_term_norms():
    s = rc.random_trig_sas(5, 2, terms=3, seed=27, contraction=0.9)
    assert rc.certify_esp(s).bound == _term_norm_sum(s.P)


# ---------------------------------------------------------------------------
# block echo state networks


def _random_inner(seed, n, K, units, activation):
    rng = np.random.default_rng(seed)
    return rc.NetworkReadout(
        rng.normal(size=units),
        rng.normal(size=(units, n * (K + 1))),
        rng.normal(size=units),
        activation,
    )


@pytest.mark.parametrize("activation", ["logistic", "tanh"])
@pytest.mark.parametrize("K", [0, 1, 2, 3])
def test_block_esn_matches_functional(K, activation):
    n = 1
    inner = _random_inner(26 + K, n, K, 6, activation)
    nets, _ = rc.fit_identity_network(n, half_width=3.0, hidden_units=24,
                                      activation=activation, seed=27)
    esn = rc.build_block_esn(inner, nets, n)
    data = _gauss_windows(K + 1, n, 40, 28) * 0.8
    got = _outputs(esn, data)
    want = rc.block_esn_functional(inner, nets, data)
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)


def test_block_esn_exact_washout():
    inner = _random_inner(29, 1, 2, 5, "logistic")
    nets, _ = rc.fit_identity_network(1, half_width=3.0, hidden_units=16, seed=30)
    esn, _ = rc.build_block_esn(inner, nets, 1)
    rep = rc.certify_esp(esn)
    assert rep.certified and rep.method == "nilpotent"
    assert rep.nilpotency_index == 3
    d = rc.washout_decay(esn, np.random.default_rng(31).normal(size=(1, 10, 1)))[0]
    assert np.all(d[3:] == 0.0)
    assert d[0] > 0


def test_block_esn_degenerate_depth_zero():
    inner = _random_inner(32, 2, 0, 4, "tanh")
    nets, _ = rc.fit_identity_network(2, half_width=3.0, hidden_units=16, seed=33)
    esn = rc.build_block_esn(inner, nets, 2)
    data = _gauss_windows(1, 2, 20, 34)
    got = _outputs(esn, data)
    want = rc.eval_readout(inner, data[:, 0, :])
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_block_esn_error_bound_propagation():
    # one identity layer: |H_block - h(z_0, z_-1)| <= ||W||_1 L ||A1||_inf eps
    n, K = 1, 1
    inner = _random_inner(35, n, K, 6, "logistic")
    half_width = 2.5
    nets, eps = rc.fit_identity_network(n, half_width=half_width, hidden_units=24,
                                        activation="logistic", seed=36)
    esn = rc.build_block_esn(inner, nets, n)
    lag1 = inner.alpha[:, n : 2 * n]
    L = get_activation("logistic").lipschitz
    budget = np.sum(np.abs(inner.beta)) * L * np.max(np.sum(np.abs(lag1), axis=1)) * eps
    rng = np.random.default_rng(37)
    data = rng.uniform(-0.9 * half_width, 0.9 * half_width, size=(200, 2, n))
    got = _outputs(esn, data)
    exact = rc.eval_readout(inner, data.reshape(200, 2 * n))
    assert np.max(np.abs(got - exact)) <= budget * (1.0 + 1e-9) + 1e-12


def _identity_reference(n, half_width, hidden_units, activation, seed):
    """fit_identity_network with each channel's hidden layer drawn inline, as
    before the shared random-feature builder: [(alpha, theta, beta)], eps."""
    m = float(half_width)
    rng = np.random.default_rng(seed)
    if n <= 2:
        axes = [np.linspace(-m, m, _IDENTITY_GRID)] * n
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
    else:
        grid = rng.uniform(-m, m, size=(_IDENTITY_GRID**2, n))
    X = np.vstack([grid, rng.uniform(-m, m, size=(_IDENTITY_RANDOM, n))])
    act = get_activation(activation).fn
    nets = []
    for i in range(n):
        alpha = rng.standard_normal((hidden_units, n)) / (m * np.sqrt(n))
        proj = X @ alpha.T
        theta = rng.uniform(proj.min(axis=0), proj.max(axis=0))
        beta, _ = _ridge_solve(act(proj - theta), X[:, i], _IDENTITY_RIDGE)
        nets.append((alpha, theta, beta))
    points = rng.uniform(-m, m, size=(2000, n))
    J = np.stack([act(points @ alpha.T - theta) @ beta for alpha, theta, beta in nets], axis=1)
    return nets, float(np.max(np.abs(J - points)))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("activation", ["logistic", "tanh"])
@pytest.mark.parametrize("n", [1, 2, 3])  # grid inputs for n <= 2, random inputs above
def test_identity_network_matches_per_channel_reference(n, activation):
    nets, eps = rc.fit_identity_network(n, half_width=2.5, hidden_units=12,
                                        activation=activation, seed=40 + n)
    ref, ref_eps = _identity_reference(n, 2.5, 12, activation, seed=40 + n)
    assert len(nets) == len(ref) == n
    for net, (alpha, theta, beta) in zip(nets, ref):
        assert _same_bits(net.alpha, alpha)
        assert _same_bits(net.theta, theta)
        assert _same_bits(net.beta, beta)
    assert eps == ref_eps


def test_identity_network_quality():
    nets, eps = rc.fit_identity_network(1, half_width=2.5, hidden_units=24, seed=38)
    assert eps < 0.01
    fresh = np.random.default_rng(39).uniform(-2.5, 2.5, size=(500, 1))
    assert identity_fit_error(nets, fresh) <= 3.0 * eps


# ---------------------------------------------------------------------------
# random families


def test_random_esn_certified_orthogonal():
    esn = rc.random_esn(16, 2, seed=40)
    rep = rc.certify_esp(esn)
    assert rep.certified
    assert rep.bound == pytest.approx(0.95, rel=1e-9)
    gram = esn.A.T @ esn.A
    np.testing.assert_allclose(gram, 0.95**2 * np.eye(16), atol=1e-10)


def test_random_esn_rejects_bad_scale():
    with pytest.raises(ValueError):
        rc.random_esn(8, 1, seed=0, spectral=-0.5)
    # a supercritical request builds but does not certify
    rep = rc.certify_esp(rc.random_esn(8, 1, seed=0, spectral=1.3))
    assert not rep.certified
    assert rep.bound == pytest.approx(1.3, rel=1e-9)


@pytest.mark.parametrize("seed", [True, 2.5, -1, 2**64, 2**70],
                         ids=["bool", "float", "negative", "2_to_64", "2_to_70"])
@pytest.mark.parametrize("build", [
    lambda seed: rc.random_esn(4, 1, seed=seed),
    lambda seed: rc.random_trig_sas(4, 1, terms=2, seed=seed),
    lambda seed: rc.fit_identity_network(1, 1.0, 4, seed=seed),
    lambda seed: rc.random_finite_poly(1, 1, 2, seed=seed),
    # washout_decay draws its two initial states from the seed in the same way
    lambda seed: rc.washout_decay(rc.build_shift_register(1, 1), np.zeros((2, 3, 1)), seed=seed),
], ids=["random_esn", "random_trig_sas", "fit_identity_network", "random_finite_poly",
        "washout_decay"])
def test_random_builders_reject_seeds_outside_64_bits(build, seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        build(seed)


def test_random_trig_sas_contraction():
    sas = rc.random_trig_sas(5, 2, terms=4, seed=41, contraction=0.9)
    rep = rc.certify_esp(sas)
    assert rep.certified
    assert rep.bound == pytest.approx(0.9, rel=1e-9)


@pytest.mark.parametrize("build, message", [
    (lambda: rc.random_trig_sas(5, 1, terms=0, seed=0), "terms must be an integer >= 1, got 0"),
    (lambda: rc.random_trig_sas(0, 1, terms=2, seed=0), "N must be an integer >= 1, got 0"),
    (lambda: rc.random_trig_sas(5, 0, terms=2, seed=0), "n must be an integer >= 1, got 0"),
    (lambda: rc.random_trig_sas(5, 1, terms=2.0, seed=0), "terms must be an integer >= 1, got 2.0"),
    (lambda: rc.random_esn(0, 1, seed=0), "N must be an integer >= 1, got 0"),
    (lambda: rc.random_esn(3, True, seed=0), "n must be an integer >= 1, got True"),
    (lambda: rc.build_shift_register(1, 1.5), "K must be an integer >= 0, got 1.5"),
    (lambda: rc.build_shift_register(1, -1), "K must be an integer >= 0, got -1"),
    (lambda: rc.build_shift_register(0, 2), "n must be an integer >= 1, got 0"),
], ids=["trig_sas_terms_0", "trig_sas_N_0", "trig_sas_n_0", "trig_sas_terms_float", "esn_N_0",
        "esn_n_bool", "shift_register_K_float", "shift_register_K_negative",
        "shift_register_n_0"])
def test_builders_check_their_sizes_before_any_draw(monkeypatch, build, message):
    def no_draws(*args, **kwargs):
        raise RuntimeError("a generator was made before the sizes were checked")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


# ---------------------------------------------------------------------------
# one system interface and readouts


def _interface(cls):
    """Public names of a system type other than its data fields."""
    fields = {f.name for f in dataclasses.fields(cls)}
    return {name for name in dir(cls) if not name.startswith("_")} - fields


def test_system_types_share_one_interface():
    types = (rc.LinearReservoir, rc.TrigSAS, rc.EchoStateNetwork)
    for cls in types:
        assert _interface(cls) == {"N", "n", "scratch_slots", "step", "certificate"}, cls.__name__
        assert "W" not in {f.name for f in dataclasses.fields(cls)}, cls.__name__


def _built_systems():
    """Builder name -> a system it built."""
    rng = np.random.default_rng(80)
    s1, _ = rc.build_nilpotent_trig_sas(rng.normal(size=(3, 1)), sine_lags=(1,))
    s2, _ = rc.build_nilpotent_trig_sas(rng.normal(size=(2, 1)))
    inner = rc.NetworkReadout(rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=4),
                              "tanh")
    nets, _ = rc.fit_identity_network(1, half_width=3.0, hidden_units=8, activation="tanh",
                                      seed=81)
    return {
        "build_shift_register": rc.build_shift_register(1, 2),
        "build_nilpotent_trig_sas": s1,
        "direct_sum_sas": rc.direct_sum_sas(s1, s2),
        "build_block_esn": rc.build_block_esn(inner, nets, 1)[0],
        "random_esn": rc.random_esn(6, 1, seed=82),
        "random_trig_sas": rc.random_trig_sas(5, 1, terms=2, seed=83),
    }


@pytest.mark.parametrize("name", sorted(_built_systems()))
def test_built_systems_have_no_output_weights(name):
    # outputs go through a readout; a system is a state map only
    assert not hasattr(_built_systems()[name], "W")


def test_model_batch_matches_single():
    readout = rc.LinearReadout(np.random.default_rng(42).normal(size=6))
    built = rc.random_esn(6, 1, seed=42), readout
    data = _gauss_windows(8, 1, 10, 43)
    batch = _outputs(built, data)
    # M one-window batches against one batch of M windows
    single = np.concatenate([_outputs(built, d[None]) for d in data])
    np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)


def test_trajectory_ends_where_final_states_does():
    rng = np.random.default_rng(44)
    systems = [
        rc.LinearReservoir(rng.normal(size=(3, 3)) * 0.2, rng.normal(size=(3, 2))),
        rc.random_trig_sas(4, 1, terms=3, seed=45),
        rc.build_nilpotent_trig_sas(rng.normal(size=(2, 1)), sine_lags=())[0],
        rc.random_esn(5, 2, seed=46, activation="hard_sigmoid"),
    ]
    for system in systems:
        w = rng.normal(size=(6, system.n))
        x0 = rng.normal(size=system.N)
        for x_init in (None, x0):
            np.testing.assert_array_equal(_trajectory(system, w, x_init)[0],
                                          final_states(system, w[None], x_init)[0])


def _block_run_system(kind):
    rng = np.random.default_rng(61)
    if kind == "esn":
        return rc.random_esn(20, 2, seed=62)
    if kind == "trig_sas":
        return rc.random_trig_sas(12, 2, terms=3, seed=63)
    A = rng.normal(size=(10, 10))
    return rc.LinearReservoir(0.9 * A / np.linalg.norm(A, 2), rng.normal(size=(10, 2)))


@pytest.mark.parametrize("kind", ["esn", "trig_sas", "linear"])
def test_final_states_do_not_depend_on_workers_or_batch(monkeypatch, kind):
    system = _block_run_system(kind)
    M, T = 3 * 512 + 7, 6
    data = _gauss_windows(T, system.n, M, 64)
    x0 = np.random.default_rng(65).normal(size=(M, system.N))
    runs = {}
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        trajectory = np.empty((T, M, system.N))
        runs[workers] = (final_states(system, data),
                         final_states(system, data, x0, trajectory=trajectory), trajectory)
    for workers in ("2", "3"):
        for a, b in zip(runs["1"], runs[workers]):
            np.testing.assert_array_equal(a, b)
    plain, started, trajectory = runs["1"]
    np.testing.assert_array_equal(trajectory[0], started)
    # blocks are fixed at 512 rows: the caller's batch does not move a bit
    for s in range(0, M, 512):
        block = slice(s, s + 512)
        np.testing.assert_array_equal(final_states(system, data[block]), plain[block])
        np.testing.assert_array_equal(final_states(system, data[block], x0[block]),
                                      started[block])


def test_overflow_names_the_first_block_for_any_worker_count(monkeypatch):
    system = rc.LinearReservoir(1e3 * np.eye(2), np.ones((2, 1)))
    M, T = 3 * 512 + 7, 200
    data = _gauss_windows(T, 1, M, 66)
    data[:512] *= 1e-100  # block 0 overflows about 33 steps after the others
    messages = set()
    for workers in ("1", "3"):
        monkeypatch.setenv("RCUNIV_WORKERS", workers)
        with pytest.raises(rc.StateOverflowError) as err:
            final_states(system, data)
        messages.add(str(err.value))
    with pytest.raises(rc.StateOverflowError) as first:
        final_states(system, data[:512])
    with pytest.raises(rc.StateOverflowError) as later:
        final_states(system, data[512:])
    assert messages == {str(first.value)}
    assert str(later.value) != str(first.value)


# the state updates as the allocating expressions they were before steps
# ran in place: the oracle the in-place steps must match bit for bit
_ALLOCATING_ACTIVATIONS = {
    "logistic": lambda v: 1.0 / (1.0 + np.exp(-v)),
    "tanh": np.tanh,
    "hard_sigmoid": lambda v: np.clip(0.2 * v + 0.5, 0.0, 1.0),
}


def _allocating_terms(poly, z):
    """The weights (M, 2r) at z and the matrices (2r rows, cols) of poly's terms,
    stacked A_1, B_1, ..., A_r, B_r."""
    freqs = np.stack([poly.cos_freqs, poly.sin_freqs], axis=1).reshape(2 * poly.r, poly.n)
    w = z @ freqs.T
    w[:, 0::2], w[:, 1::2] = np.cos(w[:, 0::2]), np.sin(w[:, 1::2])
    mats = np.stack([poly.cos_mats, poly.sin_mats], axis=1)
    return w, mats.reshape(2 * poly.r * poly.rows, poly.cols)


def _allocating_apply(poly, z, x, work_size):
    # the stacked product in TrigPolynomial.apply's row slices, each as long
    # as a workspace of work_size entries holds
    w, mats = _allocating_terms(poly, z)
    step = work_size // len(mats)
    return np.concatenate([
        w[i : i + step, None] @ (x[i : i + step] @ mats.T).reshape(-1, 2 * poly.r, poly.rows)
        for i in range(0, len(x), step)])[:, 0]


def _allocating_step(system, x, z):
    if isinstance(system, rc.EchoStateNetwork):
        with np.errstate(over="ignore"):
            return _ALLOCATING_ACTIVATIONS[system.activation](
                x @ system.A.T + z @ system.C.T + system.bias)
    if isinstance(system, rc.TrigSAS):
        w, mats = _allocating_terms(system.Q, z)
        work_size = (system.scratch_slots(len(x)) - 1) * x.size
        return w @ mats.reshape(-1, system.N) + _allocating_apply(system.P, z, x, work_size)
    return x @ system.A.T + z @ system.c.T


def _allocating_final_states(system, data, x_init):
    """(final states, trajectory) from the allocating steps over 512-row blocks."""
    M, T, _ = data.shape
    out, trajectory = np.empty((M, system.N)), np.empty((T, M, system.N))
    for start in range(0, M, 512):
        block = slice(start, start + 512)
        x = np.zeros((len(data[block]), system.N)) if x_init is None else x_init[block]
        for k in range(T - 1, -1, -1):
            x = _allocating_step(system, x, data[block, k, :])
            trajectory[k, block] = x
        out[block] = x
    return out, trajectory


def _assert_same_bits(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _random_linear(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(10, 10))
    return rc.LinearReservoir(0.9 * A / np.linalg.norm(A, 2), rng.normal(size=(10, 2)))


def _random_block_esn(seed):
    # C has zero rows, so the input term has zero products of both signs
    rng = np.random.default_rng(seed)
    inner = rc.NetworkReadout(rng.normal(size=6), rng.normal(size=(6, 3)), rng.normal(size=6),
                              "logistic")
    nets, _ = rc.fit_identity_network(1, half_width=3.0, hidden_units=8, seed=seed + 1)
    return rc.build_block_esn(inner, nets, 1)[0]


# name -> builder; input_scale 2 drives every activation into saturation on some rows
_IN_PLACE_SYSTEMS = {
    **{f"esn-{act}-n{n}-N{N}": (lambda act=act, n=n, N=N: rc.random_esn(
        N, n, seed=N + n, activation=act, input_scale=2.0))
       for act in _ALLOCATING_ACTIVATIONS for n in (1, 2) for N in (5, 50, 300)},
    "random_trig_sas": lambda: rc.random_trig_sas(12, 2, terms=3, seed=68),
    # the benchmark's largest trig shape: a 512-window block takes 128-row slices
    "random_trig_sas_sliced": lambda: rc.random_trig_sas(50, 1, terms=4, seed=80),
    "trig_sas_zero_Q": lambda: rc.TrigSAS(
        rc.random_trig_sas(5, 1, terms=2, seed=75).P,
        TrigPolynomial(*np.zeros((2, 0, 5, 1)), *np.zeros((2, 0, 1)))),
    "nilpotent_trig_sas": lambda: rc.build_nilpotent_trig_sas(
        np.random.default_rng(67).normal(size=(4, 1)), sine_lags=(1, 3))[0],
    "linear": lambda: _random_linear(76),
    "shift_register": lambda: rc.build_shift_register(1, 3),
    "block_esn": lambda: _random_block_esn(77),
}


@pytest.mark.parametrize("name", sorted(_IN_PLACE_SYSTEMS))
def test_in_place_steps_match_the_allocating_updates(monkeypatch, name):
    system = _IN_PLACE_SYSTEMS[name]()
    M, T = 512 + 9, 4
    data = 3.0 * _gauss_windows(T, system.n, M, 69)
    x0 = np.random.default_rng(70).normal(size=(M, system.N))
    for x_init in (None, x0):
        want, want_trajectory = _allocating_final_states(system, data, x_init)
        for workers in ("1", "2", "3"):
            monkeypatch.setenv("RCUNIV_WORKERS", workers)
            _assert_same_bits(final_states(system, data, x_init), want)
            trajectory = np.full((T, M, system.N), np.nan)
            _assert_same_bits(final_states(system, data, x_init, trajectory=trajectory), want)
            _assert_same_bits(trajectory, want_trajectory)
    np.testing.assert_array_equal(x0, np.random.default_rng(70).normal(size=(M, system.N)))


@pytest.mark.parametrize("system", [rc.random_esn(8, 1, seed=71),
                                    rc.random_trig_sas(6, 1, terms=2, seed=72)],
                         ids=["esn", "trig_sas"])
@pytest.mark.parametrize("k", [0, 3, 6])
def test_nan_input_names_its_lag(system, k):
    data = _gauss_windows(7, 1, 600, 73)
    data[550, k, 0] = np.nan
    with pytest.raises(rc.StateOverflowError, match=f"at lag {k}$"):
        final_states(system, data)


def _system_and_its_inputs(kind):
    rng = np.random.default_rng(47)
    if kind == "linear":
        A, c = np.diag(np.ones(2), -1), rng.normal(size=(3, 1))  # nilpotent shift
        return rc.LinearReservoir(A, c), (A, c)
    if kind == "trig_sas":
        arrays = (np.zeros((1, 3, 3)), 0.2 * rng.normal(size=(1, 3, 3)),
                  rng.normal(size=(1, 1)), rng.normal(size=(1, 1)))
        Q = rc.random_trig_sas(3, 1, terms=1, seed=48).Q
        return rc.TrigSAS(TrigPolynomial(*arrays), Q), arrays
    arrays = (0.1 * rng.normal(size=(3, 3)), rng.normal(size=(3, 1)), rng.normal(size=3))
    return rc.EchoStateNetwork(*arrays, "tanh"), arrays


_SYSTEM_ARRAYS = {
    "linear": [("A",), ("c",)],
    "esn": [("A",), ("C",), ("bias",)],
    "trig_sas": [(poly, name) for poly in ("P", "Q")
                 for name in ("cos_mats", "sin_mats", "cos_freqs", "sin_freqs")],
}


def _array(system, path):
    """The array at path, e.g. ("A",) or ("P", "cos_mats")."""
    return functools.reduce(getattr, path, system)


@pytest.mark.parametrize("kind", ["linear", "trig_sas", "esn"])
def test_systems_copy_their_inputs_and_keep_their_certificate(kind):
    system, inputs = _system_and_its_inputs(kind)
    before = {path: _array(system, path).copy() for path in _SYSTEM_ARRAYS[kind]}
    report = rc.certify_esp(system)
    for arr in inputs:
        arr[...] = 7.0  # would break every certificate if it reached the system
    for path, arr in before.items():
        np.testing.assert_array_equal(_array(system, path), arr)
    assert rc.certify_esp(system) is report and report.certified
    for path in _SYSTEM_ARRAYS[kind]:
        with pytest.raises(ValueError, match="read-only"):
            _array(system, path)[...] = 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, path", [(kind, path) for kind, paths in _SYSTEM_ARRAYS.items()
                                        for path in paths],
                         ids=lambda v: v if isinstance(v, str) else ".".join(v))
def test_systems_reject_non_finite_arrays_by_name(kind, path, bad):
    system, _ = _system_and_its_inputs(kind)
    *outer, name = path
    owner = _array(system, outer)  # the system, or its P or Q
    arr = np.array(getattr(owner, name))
    arr.flat[-1] = bad
    with pytest.raises(ValueError, match=f"^{name} has non-finite entries$"):
        dataclasses.replace(owner, **{name: arr})


def test_random_esn_with_an_infinite_input_scale_is_rejected():
    # once built, it would fail only at its first state step
    with pytest.raises(ValueError, match="^input_scale must be a finite number, got inf$"):
        rc.random_esn(3, 1, seed=0, input_scale=math.inf)


@pytest.mark.parametrize("contraction", [-0.5, 0, math.nan, True])
def test_random_trig_sas_takes_a_positive_contraction_only(contraction):
    # a negative contraction used to build a system certified at its absolute value
    message = f"contraction must be a finite number > 0, got {contraction!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rc.random_trig_sas(4, 1, terms=2, seed=0, contraction=contraction)
    assert rc.certify_esp(rc.random_trig_sas(4, 1, terms=2, seed=0, contraction=0.5)).bound \
        == pytest.approx(0.5, rel=1e-12)
