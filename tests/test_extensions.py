import math
import re

import numpy as np
import pytest

from bellsim import cli, extensions
from bellsim.bell import (ChainedConfig, chained_I, quantum_I_closed_form,
                          quantum_I_closed_form_array, quantum_model)
from bellsim.entangle import marginal
from bellsim.extensions import (
    BiasedMarginalModel,
    FalsificationCapError,
    colbeck_renner_bound,
    find_falsifying_N,
    leggett_inconsistency_demo,
    statistical_distance,
)

PI = math.pi


def test_statistical_distance_examples():
    assert statistical_distance((0.6, 0.4), (0.5, 0.5)) == pytest.approx(0.1, abs=1e-15)
    assert statistical_distance((0.3, 0.7), (0.3, 0.7)) == 0.0
    assert statistical_distance((1.0, 0.0), (0.5, 0.5)) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        statistical_distance((0.6, 0.6), (0.5, 0.5))
    with pytest.raises(ValueError):
        statistical_distance((0.6, 0.4, 0.0), (0.5, 0.5))
    for nan_case in (((math.nan, 1.0), (0.5, 0.5)), ((0.5, 0.5), (0.5, math.nan))):
        with pytest.raises(ValueError):
            statistical_distance(*nan_case)


def test_statistical_distance_is_a_metric():
    rng = np.random.default_rng(17)
    for _ in range(200):
        p, q, r = ((float(x), 1.0 - float(x)) for x in rng.uniform(0.0, 1.0, size=3))
        assert statistical_distance(p, q) == statistical_distance(q, p)
        assert statistical_distance(p, p) == 0.0
        assert statistical_distance(p, r) <= (
            statistical_distance(p, q) + statistical_distance(q, r) + 1e-15
        )


def test_colbeck_renner_bound_values():
    report = colbeck_renner_bound(2, PI, quantum_model(), distance=0.1)
    assert report.bound == pytest.approx(1.5 * (2.0 - math.sqrt(2.0)), abs=1e-12)
    assert not report.violated

    report19 = colbeck_renner_bound(19, PI, quantum_model(), distance=0.1)
    assert report19.bound < 0.1
    assert report19.violated

    zero = colbeck_renner_bound(7, PI, quantum_model(), distance=0.0)
    assert not zero.violated
    with pytest.raises(ValueError):
        colbeck_renner_bound(2, PI, quantum_model(), distance=1.5)


def test_unbiased_never_violates_bound():
    # D = 0 against 1.5 * I(N, pi) for every N up to 10^4
    ns = np.arange(2, 10 ** 4 + 1, dtype=float)
    bounds = 1.5 * ns * (1.0 - np.cos(PI / (2.0 * ns)))
    assert np.all(bounds > 0.0)


def test_find_falsifying_n_witnesses():
    w = find_falsifying_N(0.1, PI)
    assert w.n == 19
    assert w.bound == pytest.approx(1.5 * quantum_I_closed_form(19, PI), abs=1e-15)
    assert w.bound < 0.1
    assert w.previous_bound is not None and w.previous_bound >= 0.1

    # 1.5 I(185055, pi) = 1.0000004e-5 is not below 1e-5; the next N is
    w = find_falsifying_N(1e-5, PI)
    assert w.n == 185056
    assert w.bound < 1e-5
    assert w.previous_bound is not None and w.previous_bound >= 1e-5
    assert w.previous_bound == 1.5 * quantum_I_closed_form(185055, PI)

    assert find_falsifying_N(0.9, PI).n == 2
    assert find_falsifying_N(1.0, PI).n == 2
    assert find_falsifying_N(0.9, PI).previous_bound is None

    with pytest.raises(ValueError):
        find_falsifying_N(0.0, PI)
    with pytest.raises(ValueError):
        find_falsifying_N(1.2, PI)


def test_find_falsifying_n_monotone_in_distance():
    distances = np.linspace(0.01, 1.0, 40)
    ns = [find_falsifying_N(float(d), PI).n for d in distances]
    assert all(a >= b for a, b in zip(ns, ns[1:]))


def test_witness_validity_property():
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = float(rng.uniform(0.005, 1.0))
        w = find_falsifying_N(d, PI)
        assert 1.5 * quantum_I_closed_form(w.n, PI) < d
        if w.n > 2:
            assert 1.5 * quantum_I_closed_form(w.n - 1, PI) >= d


def test_find_falsifying_n_cap_guard():
    with pytest.raises(FalsificationCapError) as err:
        find_falsifying_N(1e-9, PI, n_cap=1000)
    assert err.value.n_cap == 1000
    assert err.value.bound_at_cap > 1e-9
    # flat chains never fall below any positive distance
    with pytest.raises(FalsificationCapError):
        find_falsifying_N(0.5, 0.0, n_cap=100)


@pytest.mark.parametrize("theta", [-3.0, -1e-300, -PI])
def test_find_falsifying_n_takes_the_theta_of_a_chain(theta):
    # ChainedConfig(n=20, theta=-3.0) refuses theta, so no witness exists
    with pytest.raises(ValueError, match="theta must be finite and >= 0"):
        ChainedConfig(n=20, theta=theta)
    message = f"^theta must be finite and >= 0, got {re.escape(repr(theta))}$"
    with pytest.raises(ValueError, match=message):
        find_falsifying_N(0.1, theta=theta)


@pytest.mark.parametrize("n_cap", [2.5, 1e6, np.float64(100.0)])
def test_find_falsifying_n_takes_an_integer_cap(n_cap):
    message = f"^n_cap must be an integer, got {re.escape(repr(n_cap))}$"
    with pytest.raises(ValueError, match=message):
        find_falsifying_N(0.9, n_cap=n_cap)


def test_find_falsifying_n_takes_numpy_integer_caps():
    for theta in (PI, 2.5):
        want = find_falsifying_N(0.3, theta=theta, n_cap=100)
        assert find_falsifying_N(0.3, theta=theta, n_cap=np.int64(100)) == want
        assert type(want.n) is int


def test_colbeck_renner_bound_takes_an_integer_chain_length():
    with pytest.raises(ValueError, match="^n must be an integer, got 3.0$"):
        colbeck_renner_bound(3.0, PI, quantum_model(), 0.1)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_find_falsifying_n_rejects_non_finite_theta(theta):
    with pytest.raises(ValueError, match="theta must be finite"):
        find_falsifying_N(0.1, theta=theta)


def test_biased_marginal_model_structure():
    model = BiasedMarginalModel(base=quantum_model(), bias=0.1)
    assert model.subensemble_marginal(0) == pytest.approx((0.6, 0.4), abs=1e-12)
    assert model.subensemble_marginal(1) == pytest.approx((0.4, 0.6), abs=1e-12)
    # whole-ensemble mixture restores the base model exactly
    mixture = model.ensemble_rule()
    for pa in np.linspace(0.0, 2 * PI, 9):
        for pb in np.linspace(0.0, 2 * PI, 9):
            mixed = mixture.rule(float(pa), float(pb))
            base = model.base.rule(float(pa), float(pb))
            assert mixed.p_pp == pytest.approx(base.p_pp, abs=1e-15)
            assert mixed.p_pm == pytest.approx(base.p_pm, abs=1e-15)
            assert abs(marginal(mixed, "A") - 0.5) <= 1e-12
    # subensembles preserve the chained value of the base model
    sub = model.subensemble_rule(0)
    cfg = ChainedConfig(n=2, theta=PI)
    assert chained_I(sub, cfg) == pytest.approx(
        chained_I(model.base, cfg), abs=1e-12
    )
    with pytest.raises(ValueError):
        BiasedMarginalModel(base=quantum_model(), bias=0.6)
    with pytest.raises(ValueError):
        model.subensemble_rule(2)


def test_leggett_demo():
    report = leggett_inconsistency_demo(0.1)
    assert report.measured_distance == pytest.approx(0.1, abs=1e-12)
    assert report.witness.n == 19
    assert report.inconsistent
    assert report.subensemble_marginals[0][0] == pytest.approx(0.6, abs=1e-12)

    # maximal bias: scan crosses at N = 4 (1.5*I(3,pi) = 0.603 >= 0.5 > 0.457)
    extreme = leggett_inconsistency_demo(0.5)
    assert extreme.witness.n == 4
    assert extreme.witness.previous_bound >= 0.5 > extreme.witness.bound
    with pytest.raises(ValueError):
        leggett_inconsistency_demo(0.0)
    with pytest.raises(ValueError):
        leggett_inconsistency_demo(0.7)


def test_pi_chain_bound_never_rises_up_to_the_bisection_limit():
    """find_falsifying_N bisects at theta = pi because the float bound
    1.5 * I(N, pi) never rises from one N to the next up to this limit, which
    covers every cap the CLI accepts."""
    limit = extensions._MONOTONE_UP_TO
    assert cli._MAX_CHAIN <= limit
    chunk = 2 ** 20
    previous = math.inf
    for start in range(2, limit + 1, chunk):
        bound = 1.5 * quantum_I_closed_form_array(np.arange(start, min(start + chunk, limit + 1)),
                                                  PI)
        assert bound[0] <= previous and not np.any(bound[1:] > bound[:-1]), start
        previous = bound[-1]
