"""Hypothesis properties of the fringe law, the array correlation models and
the witness scan."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellsim.bell import (
    ChainedConfig,
    deterministic_strategy_model,
    pr_box_model,
    quantum_I_closed_form,
    quantum_I_closed_form_array,
    quantum_model,
    suppressed_nonlocality_model,
)
from bellsim.entangle import (bob_measurement_rule, ideal_joint_distribution,
                              ideal_joint_probabilities)
from bellsim.extensions import BiasedMarginalModel, FalsificationCapError, find_falsifying_N
from bellsim.interferometer import _fringe, fringe_probabilities
from bellsim.measurement import (MeasurementMatrix, PathAmplitudes, is_valid_quantum_measurement,
                                 outcome_distribution)

PI = math.pi
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

phases = st.floats(min_value=-4 * PI, max_value=4 * PI)
phase_pairs = st.lists(st.tuples(phases, phases), min_size=1, max_size=40)


def bits(values) -> list[int]:
    """The float64 bit patterns of ``values``, one canonical NaN for all."""
    a = np.asarray(values, dtype=float)
    return np.where(np.isnan(a), math.nan, a).view(np.int64).tolist()


fringe_phases = st.one_of(st.sampled_from([0.0, -0.0, PI, -PI, 3 * PI, 1e6, math.nan]),
                          st.floats(-4 * PI, 4 * PI))


@PROPERTY
@given(st.lists(fringe_phases, min_size=1, max_size=40),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
def test_fringe_law_has_one_value_and_the_pair_law_is_its_half(phis, visibility):
    batch = fringe_probabilities(np.array(phis), visibility)
    pair = ideal_joint_probabilities(np.array(phis), visibility)
    assert bits(pair) == bits(0.5 * batch[[0, 1, 1, 0]])
    for m, phi in enumerate(phis):
        ports = _fringe(phi, visibility)
        assert bits(ports) == bits(batch[:, m]), phi
        if not math.isnan(phi):
            equal, differ = ports
            assert bits(ideal_joint_distribution(phi, visibility).as_tuple()) == bits(
                [0.5 * equal, 0.5 * differ, 0.5 * differ, 0.5 * equal])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 10 ** 7), min_size=1, max_size=50),
       st.one_of(st.sampled_from([PI, 2.5]), st.floats(-4 * PI, 4 * PI)))
def test_closed_form_scalar_equals_array_bit_for_bit(ns, theta):
    # find_falsifying_N scans the array form and reports the scalar one
    batch = quantum_I_closed_form_array(np.array(ns), theta)
    assert bits(batch) == bits([quantum_I_closed_form(n, theta) for n in ns])


def assert_matches_scalar_view(model, phi_a: np.ndarray, phi_b: np.ndarray) -> None:
    batch = model.probabilities(phi_a, phi_b)
    assert batch.shape == (4, phi_a.size)
    for m, (pa, pb) in enumerate(zip(phi_a.tolist(), phi_b.tolist())):
        scalar = model.rule(pa, pb).as_tuple()
        assert np.max(np.abs(batch[:, m] - scalar)) <= 1e-15, (model.name, pa, pb)


@PROPERTY
@given(phase_pairs, st.floats(0.0, 1.0), st.floats(0.0, 0.5))
def test_array_rules_match_their_scalar_view(pairs, visibility, bias):
    phi_a, phi_b = np.array(pairs).T
    quantum = quantum_model(visibility)
    biased = BiasedMarginalModel(base=quantum, bias=bias)
    for model in (quantum, pr_box_model(), suppressed_nonlocality_model(),
                  biased.subensemble_rule(0), biased.subensemble_rule(1),
                  biased.ensemble_rule()):
        assert_matches_scalar_view(model, phi_a, phi_b)
    # the fringe law's plain-math scalar form, which shares no numpy code
    phi = phi_a - phi_b
    batch = ideal_joint_probabilities(phi, visibility)
    for m, p in enumerate(phi.tolist()):
        scalar = ideal_joint_distribution(p, visibility).as_tuple()
        assert np.max(np.abs(batch[:, m] - scalar)) <= 1e-15, p


@PROPERTY
@given(st.lists(st.complex_numbers(max_magnitude=1.0), min_size=4, max_size=4), phase_pairs)
def test_bob_marginal_is_half_the_photon_count(entries, pairs):
    """Side A's marginal of the pair with splitter m on side B is half the
    total count of one photon through m, so a non-unitary m signals by
    exactly its failure to conserve the photon."""
    m = MeasurementMatrix(*entries)
    assume(not is_valid_quantum_measurement(m).valid)
    phi_a, phi_b = np.array(pairs).T
    p = bob_measurement_rule(m).probabilities(phi_a, phi_b)
    for k, phi in enumerate((phi_a + phi_b).tolist()):
        total = outcome_distribution(m, PathAmplitudes.balanced(), phi).total
        assert p[0, k] + p[1, k] == pytest.approx(0.5 * total, rel=1e-15, abs=1e-300)


@PROPERTY
@given(st.integers(2, 6), st.floats(0.1, 2 * PI), st.data())
def test_deterministic_rule_matches_its_scalar_view(n, theta, data):
    cfg = ChainedConfig(n=n, theta=theta)
    outcomes = data.draw(st.lists(st.sampled_from([1, -1]), min_size=2 * n, max_size=2 * n))
    index = st.integers(0, 2 * n - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=20))
    settings_ = np.array(cfg.settings)
    ia, ib = np.array(pairs).T
    assert_matches_scalar_view(deterministic_strategy_model(outcomes, cfg),
                               settings_[ia], settings_[ib])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(-6.0, 0.0))
def test_witness_brackets_the_distance(log_distance):
    distance = 10.0 ** log_distance
    w = find_falsifying_N(distance, PI, n_cap=2_000_000)
    assert w.bound == 1.5 * quantum_I_closed_form(w.n, PI) < distance
    if w.n > 2:
        assert distance <= 1.5 * quantum_I_closed_form(w.n - 1, PI) == w.previous_bound


def scalar_scan(distance: float, theta: float, n_cap: int) -> tuple:
    """Oracle: the plain upward scan of the scalar closed form."""
    previous = None
    for n in range(2, n_cap + 1):
        i_value = quantum_I_closed_form(n, theta)
        if 1.5 * i_value < distance:
            return (n, 1.5 * i_value, i_value,
                    None if previous is None else 1.5 * previous, previous)
        previous = i_value
    return ("cap", 1.5 * previous)


@PROPERTY
@given(st.floats(-3.0, 0.0), st.sampled_from([PI, 2.5]))
def test_witness_equals_scalar_scan(log_distance, theta):
    distance = 10.0 ** log_distance
    n_cap = 4000
    try:
        w = find_falsifying_N(distance, theta, n_cap)
    except FalsificationCapError as err:
        assert err.n_cap == n_cap
        got = ("cap", err.bound_at_cap)
    else:
        got = (w.n, w.bound, w.i_value, w.previous_bound, w.previous_i)
    assert got == scalar_scan(distance, theta, n_cap)


def test_cap_error_reports_the_bound_at_the_cap():
    with pytest.raises(FalsificationCapError) as err:
        find_falsifying_N(1.5e-6, PI)
    assert err.value.bound_at_cap == 1.5 * quantum_I_closed_form(10 ** 6, PI)
    assert str(err.value) == (f"no N <= 1000000 with bound < 1.5e-06: bound at the cap is "
                              f"{1.5 * quantum_I_closed_form(10 ** 6, PI)!r}")
