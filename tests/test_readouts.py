"""Polynomial feature maps, readout evaluation, activations, serialization."""

import itertools
import warnings

import numpy as np
import pytest

import rcuniv as rc
from rcuniv.readouts import (
    ACTIVATIONS,
    feature_count,
    get_activation,
    multi_indices,
    readout_from_dict,
    readout_to_dict,
)


def test_multi_indices_graded_lex_frozen():
    assert multi_indices(2, 2) == [
        (0, 0),
        (1, 0),
        (0, 1),
        (2, 0),
        (1, 1),
        (0, 2),
    ]


def test_multi_indices_counts_and_grading():
    for n, d in [(1, 4), (3, 2), (4, 3)]:
        idx = multi_indices(n, d)
        assert len(idx) == feature_count(n, d)
        assert len(set(idx)) == len(idx)
        grades = [sum(a) for a in idx]
        assert grades == sorted(grades)


@pytest.mark.parametrize("n, d", [(n, d) for n in range(1, 6) for d in range(5)])
def test_multi_indices_match_brute_force_order(n, d):
    # every exponent tuple of total degree <= d, by total degree, then in
    # descending lexicographic order
    oracle = sorted((t for t in itertools.product(range(d + 1), repeat=n) if sum(t) <= d),
                    key=lambda t: (sum(t), [-e for e in t]))
    assert multi_indices(n, d) == oracle


def test_poly_features_frozen_example():
    np.testing.assert_array_equal(
        rc.poly_features(np.array([2.0, 3.0]), 2),
        np.array([1.0, 2.0, 3.0, 4.0, 6.0, 9.0]),
    )


def test_poly_features_batch_matches_single():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(7, 3))
    batch = rc.poly_features(X, 3)
    rows = np.stack([rc.poly_features(x, 3) for x in X])
    np.testing.assert_array_equal(batch, rows)


def test_poly_features_size_guard():
    with pytest.raises(ValueError):
        rc.poly_features(np.zeros(100), 5)  # C(105, 5) blows the cap


def test_polynomial_readout_example():
    r = rc.PolynomialReadout(2, 2, {(1, 1): 1.0, (0, 2): 0.5})
    assert rc.eval_readout(r, np.array([2.0, 3.0])) == 10.5


def test_polynomial_readout_matches_feature_dot():
    rng = np.random.default_rng(6)
    r = rc.PolynomialReadout(3, 2, {(1, 0, 1): 2.0, (0, 2, 0): -1.5, (0, 0, 0): 0.25})
    for _ in range(5):
        x = rng.normal(size=3)
        direct = rc.eval_readout(r, x)
        assert direct == np.dot(r.coefficient_vector(), rc.poly_features(x, 2))


def test_polynomial_readout_validates_exponents():
    with pytest.raises(ValueError):
        rc.PolynomialReadout(2, 2, {(1, 1, 1): 1.0})  # wrong arity
    with pytest.raises(ValueError):
        rc.PolynomialReadout(2, 2, {(3, 0): 1.0})  # grade above degree
    with pytest.raises(ValueError):
        rc.PolynomialReadout(2, 2, {(-1, 1): 1.0})


@pytest.mark.parametrize("n_vars, degree, coefficients, message", [
    (2, 2, {(1.5, 0): 1.0}, "bad multi-index"),  # would match no basis element
    (2, 2, {(True, 0): 1.0}, "bad multi-index"),  # would act as exponent 1
    (2, 2, {"10": 1.0}, "bad multi-index"),
    (2, 2, {(1, 0): "1.0"}, "non-finite coefficient"),
    (2, 2, {(1, 0): 10**400}, "non-finite coefficient"),
    (2, 2.7, {}, "degree must be >= 0 and an integer"),
    (True, 2, {}, "n_vars must be an integer"),
])
def test_polynomial_readout_rejects_what_it_would_coerce(n_vars, degree, coefficients, message):
    with pytest.raises(ValueError, match=message):
        rc.PolynomialReadout(n_vars, degree, coefficients)


def test_network_readout_formula():
    beta = np.array([0.5, -1.0])
    alpha = np.array([[1.0, 0.0], [0.0, 2.0]])
    theta = np.array([0.0, 1.0])
    net = rc.NetworkReadout(beta, alpha, theta, "tanh")
    x = np.array([0.3, -0.7])
    expected = 0.5 * np.tanh(0.3) - np.tanh(2.0 * (-0.7) - 1.0)
    assert rc.eval_readout(net, x) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("name", ["logistic", "tanh", "hard_sigmoid"])
def test_network_readout_bounded(name):
    rng = np.random.default_rng(7)
    beta = rng.normal(size=8)
    net = rc.NetworkReadout(beta, rng.normal(size=(8, 2)), rng.normal(size=8), name)
    X = rng.normal(scale=1e6, size=(64, 2))
    vals = rc.eval_readout(net, X)
    assert np.all(np.abs(vals) <= np.sum(np.abs(beta)) + 1e-12)


def test_linear_readout():
    lin = rc.LinearReadout(np.array([1.0, -2.0]))
    assert rc.eval_readout(lin, np.array([3.0, 1.0])) == 1.0
    with pytest.raises(ValueError):
        rc.eval_readout(lin, np.array([1.0, 2.0, 3.0]))


def test_batch_eval_consistency():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(11, 2))
    readouts = [
        rc.PolynomialReadout(2, 3, {(2, 1): 1.0, (1, 0): -0.5}),
        rc.NetworkReadout(
            rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=4), "logistic"
        ),
        rc.LinearReadout(rng.normal(size=2)),
    ]
    for r in readouts:
        batch = rc.eval_readout(r, X)
        single = np.array([rc.eval_readout(r, x) for x in X])
        np.testing.assert_allclose(batch, single, rtol=1e-13, atol=1e-15)


def test_activation_table():
    assert set(ACTIVATIONS) == {"logistic", "tanh", "hard_sigmoid"}
    logistic = get_activation("logistic")
    assert logistic.fn(0.0) == 0.5
    assert logistic.lipschitz == 0.25
    assert get_activation("tanh").lipschitz == 1.0
    hs = get_activation("hard_sigmoid")
    assert hs.lipschitz == 0.2
    assert hs.fn(np.array([-10.0, 0.0, 1.0, 10.0])) == pytest.approx(
        [0.0, 0.5, 0.7, 1.0]
    )
    with pytest.raises(ValueError):
        get_activation("relu")  # unbounded activations stay out of the table


def test_logistic_within_two_ulps_of_expit():
    # numpy's exp and the C library's exp that expit calls differ by up to
    # an ulp, and 1 / (1 + e) can carry that into a second ulp
    from scipy.special import expit

    x = np.concatenate([np.linspace(-800.0, 800.0, 40001),
                        np.random.default_rng(0).normal(scale=8.0, size=40000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # exp overflow must stay silent
        got = rc.readouts.get_activation("logistic").fn(x)
    ref = expit(x)
    ulps = np.abs(got.view(np.int64) - ref.view(np.int64))
    assert ulps.max() <= 2
    assert np.mean(ulps > 0) < 0.05
    assert got[0] == 0.0 and got[40000] == 1.0


def test_serialization_round_trip_exact():
    rng = np.random.default_rng(9)
    readouts = [
        rc.PolynomialReadout(2, 2, {(1, 1): np.pi, (0, 2): 1.0 / 3.0}),
        rc.NetworkReadout(
            rng.normal(size=3), rng.normal(size=(3, 2)), rng.normal(size=3), "tanh"
        ),
        rc.LinearReadout(rng.normal(size=4)),
    ]
    for r in readouts:
        doc = readout_to_dict(r)
        back = readout_from_dict(doc)
        X = rng.normal(size=(5, doc.get("n_vars") or len(np.atleast_1d(doc.get("W", [0, 0, 0, 0])))))
        # round trip must preserve every binary64 payload bit for bit
        if isinstance(r, rc.PolynomialReadout):
            np.testing.assert_array_equal(
                back.coefficient_vector(), r.coefficient_vector()
            )
        elif isinstance(r, rc.NetworkReadout):
            np.testing.assert_array_equal(back.beta, r.beta)
            np.testing.assert_array_equal(back.alpha, r.alpha)
            np.testing.assert_array_equal(back.theta, r.theta)
            assert back.activation == r.activation
        else:
            np.testing.assert_array_equal(back.W, r.W)


def test_serialization_survives_json_text():
    import json

    r = rc.NetworkReadout(
        np.array([1e-300, np.pi]),
        np.array([[0.1], [-2.0 / 3.0]]),
        np.array([0.0, -0.0]),
        "hard_sigmoid",
    )
    doc = json.loads(json.dumps(readout_to_dict(r)))
    back = readout_from_dict(doc)
    np.testing.assert_array_equal(back.beta, r.beta)
    np.testing.assert_array_equal(back.theta, r.theta)
