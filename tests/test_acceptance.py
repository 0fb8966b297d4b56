"""Acceptance suite: ten end-to-end checks, one test (and one pass/fail
line under pytest -v) per criterion.  Budgets are wall-clock ceilings; the
statistical checks pin tolerances to three standard errors."""

import math
import time
from itertools import product as iproduct

import numpy as np
import pytest

import rcuniv as rc


def _budget(t0, seconds):
    assert time.time() - t0 < seconds, f"over the {seconds:.0f}s budget"


def test_c01_shift_register_poly_readout_exact():
    # random finite polynomial targets are reproduced through the stacked
    # state + copied coefficients to numerical exactness
    t0 = time.time()
    rng = np.random.default_rng(101)
    samp_cache = {}
    for case in range(20):
        n = int(rng.integers(1, 3))
        K = int(rng.integers(0, 4))
        degree = int(rng.integers(1, 4))
        spec = rc.random_finite_poly(n, K, degree, seed=1000 + case)
        sr = rc.build_shift_register(n, K)
        readout = rc.PolynomialReadout(
            n * (K + 1), degree, spec.params["coefficients"]
        )
        samp = samp_cache.setdefault(n, rc.iid_gaussian(n))
        (est,) = rc.approx_error(
            spec, sr, [readout], samp, p=2.0, T=K + 2, M=1000, seed=5000 + case,
            train_seed=0,
        )
        assert est.value < 1e-8, f"case {case}: error {est.value:.3g}"
    _budget(t0, 10.0)


def test_c02_nilpotent_sas_reproduces_trig_products():
    t0 = time.time()
    rng = np.random.default_rng(202)
    for case in range(20):
        K = int(rng.integers(0, 5))
        n = int(rng.integers(1, 3))
        freqs = rng.normal(scale=1.5, size=(K + 1, n))
        lags = tuple(int(j) for j in range(K + 1) if rng.uniform() < 0.5)
        sas, readout = rc.build_nilpotent_trig_sas(freqs, sine_lags=lags)
        spec = rc.trig_product(freqs, sine_lags=lags)
        data = rng.normal(size=(100, K + 1, n))
        got = rc.eval_readout(readout, rc.final_states(sas, data))
        want = rc.evaluate_functional_batch(spec, data)
        assert np.max(np.abs(got - want)) < 1e-10, f"case {case}"
    _budget(t0, 5.0)


@pytest.mark.parametrize("activation", ["logistic", "tanh"])
def test_c03_block_esn_matches_closed_form(activation):
    t0 = time.time()
    rng = np.random.default_rng(303)
    for K in range(4):
        inner = rc.NetworkReadout(
            rng.normal(size=8),
            rng.normal(size=(8, K + 1)),
            rng.normal(size=8),
            activation,
        )
        nets, _ = rc.fit_identity_network(
            1, half_width=3.0, hidden_units=24, activation=activation, seed=30 + K
        )
        esn, readout = rc.build_block_esn(inner, nets, 1)
        data = rng.normal(size=(100, K + 1, 1)) * 0.8
        got = rc.eval_readout(readout, rc.final_states(esn, data))
        want = rc.block_esn_functional(inner, nets, data)
        scale = np.maximum(np.abs(want), 1.0)
        assert np.max(np.abs(got - want) / scale) < 1e-8, f"K={K}"
    _budget(t0, 10.0)


def test_c04_nilpotent_chain_product_rule_exhaustive():
    # link s of the chain build_nilpotent_trig_sas writes moves basis vector
    # s - 1 to s; its term j is link N - 1 - j
    t0 = time.time()
    for N in range(2, 6):
        P = rc.build_nilpotent_trig_sas(np.ones((N, 1)))[0].P
        links = P.cos_mats + P.sin_mats
        for L in range(1, 7):
            for terms in iproduct(range(N - 1), repeat=L):
                dense = np.eye(N)
                for j in terms:
                    dense = links[j] @ dense
                s = [N - 1 - j for j in terms]
                want = np.zeros((N, N))
                if all(s[i] == s[0] + i for i in range(L)):
                    want[s[-1], s[0] - 1] = 1.0
                np.testing.assert_array_equal(dense, want)
    _budget(t0, 5.0)


def test_c05_conditional_truncation_error_closed_form():
    # past-resampling estimate vs decay^(K+1)/sqrt(1 - decay^2), and the
    # estimate is nonincreasing in the cutoff
    t0 = time.time()
    decay = 0.5
    spec = rc.geometric_ma(decay)
    samp = rc.iid_gaussian(1)
    results = {}
    for K in (1, 3, 5, 7):
        (est,) = rc.truncated_conditional_error(
            spec, K=(K,), sampler=samp, p=2.0, M=20000, seed=500 + K,
            window_length=48,
        )
        exact = decay ** (K + 1) / math.sqrt(1.0 - decay**2)
        assert abs(est.value - exact) <= 3.0 * est.stderr, (
            f"K={K}: {est.value:.5f} vs {exact:.5f} +- {est.stderr:.2g}"
        )
        results[K] = est
    pairs = list(results)
    for a, b in zip(pairs, pairs[1:]):
        ea, eb = results[a], results[b]
        assert eb.value <= ea.value + 3.0 * (ea.stderr + eb.stderr)
    _budget(t0, 30.0)


def test_c06_esp_certificates_are_sound():
    t0 = time.time()
    rng = np.random.default_rng(606)
    systems = [
        rc.LinearReservoir(0.7 * np.eye(3), np.ones((3, 1))),
        rc.build_shift_register(1, 3),
        rc.build_shift_register(2, 2),
        rc.build_nilpotent_trig_sas(rng.normal(size=(3, 1)), sine_lags=(0, 2))[0],
        rc.random_trig_sas(4, 1, terms=3, seed=61, contraction=0.85),
        rc.random_esn(8, 1, seed=62, activation="tanh"),
        rc.random_esn(8, 1, seed=63, activation="logistic", spectral=3.0),
    ]
    inner = rc.NetworkReadout(
        rng.normal(size=6), rng.normal(size=(6, 3)), rng.normal(size=6), "logistic"
    )
    nets, _ = rc.fit_identity_network(1, half_width=3.0, hidden_units=16, seed=64)
    systems.append(rc.build_block_esn(inner, nets, 1)[0])

    for system in systems:
        rep = rc.certify_esp(system)
        assert rep.certified, type(system).__name__
        for k in range(50):
            w = rng.normal(size=(20, system.n))
            d = rc.washout_decay(system, w[None], seed=k)[0]
            steps = np.arange(d.shape[0])
            envelope = d[0] * rep.bound**steps * (1.0 + 1e-9)
            assert np.all(d <= envelope + 1e-300), type(system).__name__
            if rep.method == "nilpotent":
                assert np.all(d[rep.nilpotency_index :] == 0.0)
    _budget(t0, 30.0)


def test_c07_esn_capacity_sweep_reduces_error():
    # trained echo state networks: N = 200 should at least halve the N = 10
    # error on the geometric target and land under 0.2 x the target norm
    t0 = time.time()
    samp = rc.iid_gaussian(1)
    spec = rc.geometric_ma(0.9)
    norm = rc.lp_norm(spec, samp, p=2.0, T=60, M=5000, seed=77).value
    errs = {10: [], 50: [], 200: []}
    for seed in (1, 2, 3):
        for N in errs:
            esn = rc.random_esn(N, 1, seed=seed)
            readout, _ = rc.fit_linear_readout(
                *rc.sample_states(esn, spec, samp, T=60, M=5000, seed=seed * 1000),
                ridge=1e-6, seed=seed * 1000)
            (est,) = rc.approx_error(
                spec, esn, [readout], samp, p=2.0, T=60, M=5000,
                seed=seed * 1000 + 500, train_seed=seed * 1000,
            )
            errs[N].append(est.value)
    med = {N: float(np.median(v)) for N, v in errs.items()}
    assert med[200] < 0.5 * med[10], med
    assert med[200] < 0.2 * norm, (med, norm)
    _budget(t0, 180.0)


def test_c08_stationarity_of_estimates_under_shifts():
    t0 = time.time()
    cases = [
        (rc.geometric_ma(0.5), rc.iid_gaussian(1)),
        (rc.garch_vol(0.1, 0.1, 0.8), rc.garch11(0.1, 0.1, 0.8)),
    ]
    for spec, samp in cases:
        out = rc.shift_invariance_probe(
            samp, spec, p=2.0, shifts=(0, -5, -10), T=40, M=20000, seed=88
        )
        base = out[0]
        for shift, est in out.items():
            gap = abs(est.value - base.value)
            assert gap <= 3.0 * (est.stderr + base.stderr), (
                f"{spec.kind} shift {shift}: gap {gap:.4g}"
            )
    _budget(t0, 60.0)


def test_c09_moment_screen_separates_input_laws():
    t0 = time.time()
    heavy = rc.exp_moment_check(rc.iid_lognormal(1))
    assert heavy.verdict is rc.MomentVerdict.SUSPECT_INFINITE, heavy
    light = rc.exp_moment_check(rc.iid_gaussian(1))
    assert light.verdict is rc.MomentVerdict.PLAUSIBLE, light
    flat = rc.exp_moment_check(rc.iid_uniform_bounded(-1.0, 1.0))
    assert flat.verdict is rc.MomentVerdict.PLAUSIBLE, flat
    _budget(t0, 30.0)


def test_c10_direct_sums_are_linear():
    t0 = time.time()
    rng = np.random.default_rng(1010)
    for case in range(20):
        K1, K2 = int(rng.integers(0, 4)), int(rng.integers(0, 4))
        s1, r1 = rc.build_nilpotent_trig_sas(
            rng.normal(size=(K1 + 1, 1)),
            tuple(int(j) for j in range(K1 + 1) if rng.uniform() < 0.5),
        )
        s2, r2 = rc.build_nilpotent_trig_sas(
            rng.normal(size=(K2 + 1, 1)),
            tuple(int(j) for j in range(K2 + 1) if rng.uniform() < 0.5),
        )
        T = max(K1, K2) + 1
        data = rng.normal(size=(50, T, 1))
        h1 = rc.eval_readout(r1, rc.final_states(s1, data))
        h2 = rc.eval_readout(r2, rc.final_states(s2, data))
        states = rc.final_states(rc.direct_sum_sas(s1, s2), data)
        for lam in (-1.0, 0.0, 2.5):
            readout = rc.LinearReadout(np.concatenate([r1.W, lam * r2.W]))
            got = rc.eval_readout(readout, states)
            assert np.max(np.abs(got - (h1 + lam * h2))) < 1e-10, (case, lam)
    _budget(t0, 5.0)
