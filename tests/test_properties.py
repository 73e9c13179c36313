"""Hypothesis properties of the fringe law, the array correlation models and
the witness scan."""

import cmath
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bellsim.bell import (
    ChainedConfig,
    CorrelationModel,
    _weighted_sum,
    chained_I,
    deterministic_strategy_model,
    pr_box_model,
    quantum_I_closed_form,
    quantum_I_closed_form_array,
    quantum_model,
    suppressed_nonlocality_model,
)
from bellsim.entangle import (_CLASS_COEFFS, _CLASSES, FransonConfig, bob_measurement_rule,
                              downconverted_frequencies, ideal_joint_distribution,
                              ideal_joint_probabilities, joint_probabilities,
                              physical_joint_distribution, physical_joint_probabilities)
from bellsim.extensions import BiasedMarginalModel, FalsificationCapError, find_falsifying_N
from bellsim.interferometer import fringe_probabilities, probability_monochromatic
from bellsim.measurement import (MeasurementMatrix, PathAmplitudes, is_valid_quantum_measurement,
                                 outcome_distribution)
from bellsim.probability import SUM_TOL, check_batch, check_distribution, valid_columns
from bellsim.spectra import Spectrum, SpectrumShape
from mp_oracles import math_fringe

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
        ports = math_fringe(phi, visibility)
        assert bits(ports) == bits(batch[:, m]), phi
        if visibility == 1.0:
            assert bits([probability_monochromatic(a, phi) for a in (1, -1)]) == bits(ports)
        if not math.isnan(phi):
            equal, differ = ports
            assert bits(ideal_joint_distribution(phi, visibility).as_tuple()) == bits(
                [0.5 * equal, 0.5 * differ, 0.5 * differ, 0.5 * equal])


def _sum_in_order(column) -> float:
    total = 0.0
    for p in column:
        total += p
    return total


def _column_sum_edge(side: float) -> float:
    """The column sum farthest from 1 on ``side`` (+1 or -1) that the sum
    test accepts."""
    total = 1.0 + side * SUM_TOL
    while abs(total - 1.0) > SUM_TOL:
        total = math.nextafter(total, 1.0)
    while abs(math.nextafter(total, side * math.inf) - 1.0) <= SUM_TOL:
        total = math.nextafter(total, side * math.inf)
    return total


# One perturbation of one column: an entry set to NaN, +-inf, or at or just
# past a bound with the column's other entries moved to keep its sum near 1,
# the column sum set at or just past 1 +- SUM_TOL, or nothing.
ENTRY_VALUES = (math.nan, math.inf, -math.inf, -1e-15, -2e-15, 1.0 + 1e-15, 1.0 + 2e-15)
SUM_EDGES = [edge for side in (1.0, -1.0) for edge in
             (_column_sum_edge(side), math.nextafter(_column_sum_edge(side), side * math.inf))]
perturbations = st.one_of(
    st.none(),
    st.tuples(st.just("entry"), st.integers(0, 3), st.sampled_from(ENTRY_VALUES)),
    st.tuples(st.just("sum"), st.sampled_from(SUM_EDGES)))


def _set_column_sum(column: list[float], total: float, keep: int = -1) -> bool:
    """Move the column's largest entry but its ``keep``-th until its sum in
    order is ``total``; False if no float of that entry gives it."""
    r = max((i for i in range(len(column)) if i != keep), key=column.__getitem__)
    column[r] += total - _sum_in_order(column)
    for _ in range(8):
        now = _sum_in_order(column)
        if now == total:
            return True
        column[r] = math.nextafter(column[r], math.inf if now < total else -math.inf)
    return False


def _rejection(column) -> str | None:
    try:
        check_distribution(column, "joint probabilities")
    except ValueError as error:
        return str(error)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, PI, -PI, 3 * PI, 1e6]),
                          st.floats(-4 * PI, 4 * PI)), min_size=1, max_size=40),
       st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       perturbations, st.integers(0, 39))
def test_one_check_accept_agrees_with_the_per_column_path(phis, visibility, change, m):
    p = ideal_joint_probabilities(np.array(phis), visibility)
    if change is not None:
        m %= len(phis)
        column = p[:, m].tolist()
        if change[0] == "entry":
            r, value = change[1:]
            if value > 0.5:
                column = [0.0] * 4
            column[r] = value
            if -0.5 < value < 0.5:
                assume(_set_column_sum(column, 1.0, keep=r))
        else:
            assume(_set_column_sum(column, change[1]))
        p[:, m] = column
    rejections = [_rejection(column) for column in p.T.tolist()]
    assert valid_columns(p).tolist() == [r is None for r in rejections]
    first = next((r for r in rejections if r is not None), None)
    if first is None:
        check_batch(p, "joint probabilities")
    else:
        with pytest.raises(ValueError) as error:
            check_batch(p, "joint probabilities")
        assert str(error.value) == first


def test_the_sum_edges_hold_both_verdicts():
    for edge, past in zip(SUM_EDGES[::2], SUM_EDGES[1::2]):
        column = [0.25, 0.25, 0.25, 0.25]
        assert _set_column_sum(column, edge) and _rejection(column) is None
        assert _set_column_sum(column, past) and _rejection(column) is not None


def test_batch_sums_are_added_in_the_order_of_the_scalar_check():
    # columns whose sum in order sits at an edge, in reverse order past it
    rng = np.random.default_rng(26)
    columns = []
    while len(columns) < 8:
        column = rng.dirichlet(np.ones(4)).tolist()
        edge = SUM_EDGES[2 * (len(columns) % 2)]
        if (_set_column_sum(column, edge)
                and abs(_sum_in_order(column[::-1]) - 1.0) > SUM_TOL):
            columns.append(column)
    p = np.array(columns).T
    check_batch(p)
    assert valid_columns(p).all()
    with pytest.raises(ValueError, match=r"^probabilities sum to"):
        check_batch(p[::-1].copy())


@pytest.mark.parametrize("model", [quantum_model(), quantum_model(0.9), pr_box_model(),
                                   suppressed_nonlocality_model()], ids=lambda m: m.name)
def test_an_empty_batch_is_accepted(model):
    p = joint_probabilities(model, [], [])
    assert p.shape == (4, 0)
    check_batch(np.empty((4, 0)))


@pytest.mark.parametrize("phi", [np.array([math.nan, PI, 0.0]), np.empty(0),
                                 np.linspace(-7.0, 7.0, 12).reshape(3, 4)],
                         ids=["1-d", "empty", "2-d"])
def test_pair_law_is_a_fresh_array_of_the_halved_ports(phi):
    for visibility in (1.0, 0.9):
        pair = ideal_joint_probabilities(phi, visibility)
        # the halves of the plain-libm ports, phase by phase
        halves = [(0.5 * equal, 0.5 * differ, 0.5 * differ, 0.5 * equal)
                  for equal, differ in (math_fringe(p, visibility) for p in phi.ravel().tolist())]
        want = np.array(halves, dtype=float).reshape(-1, 4).T.reshape(4, *phi.shape)
        assert pair.shape == (4, *np.shape(phi))
        assert bits(pair) == bits(want)
        assert pair.flags.writeable and pair.flags.owndata


# Doubles with exponents from -1074 to 1 and both signs, zeros and the
# smallest subnormal and normal, in runs of equal values.
summands = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -2.0]),
    st.builds(lambda sign, m, e: sign * math.ldexp(m, e), st.sampled_from([1.0, -1.0]),
              st.floats(1.0, 2.0, exclude_max=True), st.integers(-1074, 1)))
finite_floats = st.one_of(summands, st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(finite_floats, st.integers(1, 2 * 10 ** 7)), min_size=1, max_size=60))
def test_weighted_sum_is_the_correctly_rounded_exact_sum(runs):
    values, counts = zip(*runs)
    exact = sum((Fraction(x) * count for x, count in runs), Fraction(0))
    try:
        want = float(exact)
    except OverflowError:
        with pytest.raises(OverflowError):
            _weighted_sum(np.array(values), counts)
        return
    assert float.hex(_weighted_sum(np.array(values), counts)) == float.hex(want)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(summands, st.integers(1, 50)), min_size=1, max_size=40))
def test_weighted_sum_is_the_fsum_of_the_repeated_values(runs):
    values, counts = zip(*runs)
    got = _weighted_sum(np.array(values), counts)
    assert float.hex(got) == float.hex(math.fsum(x for x, count in runs for _ in range(count)))


def test_weighted_sum_of_zeros_is_positive_zero():
    for values in ([0.0], [-0.0], [-0.0, 0.0, -0.0], [5e-324, -5e-324]):
        for counts in ([1] * len(values), [2 * 10 ** 7] * len(values)):
            got = _weighted_sum(np.array(values), counts)
            assert float.hex(got) == float.hex(math.fsum(values)) == "0x0.0p+0", (values, counts)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(2, 10 ** 7), min_size=1, max_size=50),
       st.one_of(st.sampled_from([PI, 2.5]), st.floats(-4 * PI, 4 * PI)))
def test_closed_form_scalar_equals_array_bit_for_bit(ns, theta):
    # find_falsifying_N scans the array form and reports the scalar one
    batch = quantum_I_closed_form_array(np.array(ns), theta)
    assert bits(batch) == bits([quantum_I_closed_form(n, theta) for n in ns])


@PROPERTY
@given(st.floats(0.0, 1.0),
       st.one_of(st.sampled_from([PI, 2.5, 0.0, 1e-300]), st.floats(0.0, 100.0)),
       st.integers(2, 2 * 10 ** 4))
def test_difference_models_sum_chains_as_their_rules_do(visibility, theta, n):
    # the difference path against the batch path of the same rule
    cfg = ChainedConfig(n, theta)
    for model in (quantum_model(visibility), pr_box_model(), suppressed_nonlocality_model()):
        batched = chained_I(CorrelationModel(model.name, model.probabilities), cfg)
        assert float.hex(chained_I(model, cfg)) == float.hex(batched), model.name


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
    # the fringe law's plain-math form, which shares no numpy code
    phi = phi_a - phi_b
    batch = ideal_joint_probabilities(phi, visibility)
    for m, p in enumerate(phi.tolist()):
        equal, differ = math_fringe(p, visibility)
        scalar = (0.5 * equal, 0.5 * differ, 0.5 * differ, 0.5 * equal)
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


def witness_or_cap(distance: float, theta: float, n_cap: int) -> tuple:
    try:
        w = find_falsifying_N(distance, theta, n_cap)
    except FalsificationCapError as err:
        assert err.n_cap == n_cap
        return ("cap", err.bound_at_cap)
    return (w.n, w.bound, w.i_value, w.previous_bound, w.previous_i)


# The smallest caps, caps on either side of the end of the scan's first
# chunk (chain lengths 2 to 65), and a longer one.
CAPS = [2, 3, 64, 65, 4000]


@PROPERTY
@given(st.floats(-3.0, 0.0), st.sampled_from([PI, 2.5]), st.sampled_from(CAPS))
def test_witness_equals_scalar_scan(log_distance, theta, n_cap):
    distance = 10.0 ** log_distance
    assert witness_or_cap(distance, theta, n_cap) == scalar_scan(distance, theta, n_cap)


@pytest.mark.parametrize("theta", [PI, 2.5])
@pytest.mark.parametrize("n_cap", CAPS)
def test_witness_at_and_just_past_the_cap_equals_scalar_scan(theta, n_cap):
    """Distances whose first chain length below them is n_cap itself, or
    n_cap + 1 (a cap error): the bound at n_cap, one ulp above it, and the
    bound at n_cap - 1."""
    at_cap = 1.5 * quantum_I_closed_form(n_cap, theta)
    distances = [at_cap, math.nextafter(at_cap, 0.0), math.nextafter(at_cap, 2.0)]
    if n_cap > 2:
        distances.append(1.5 * quantum_I_closed_form(n_cap - 1, theta))
    for distance in distances:
        want = scalar_scan(distance, theta, n_cap)
        assert witness_or_cap(distance, theta, n_cap) == want
        if theta == PI:  # the bound falls at every step, so each edge is hit
            assert want[0] == ("cap" if distance <= at_cap else n_cap)


def test_cap_error_reports_the_bound_at_the_cap():
    with pytest.raises(FalsificationCapError) as err:
        find_falsifying_N(1.5e-6, PI)
    assert err.value.bound_at_cap == 1.5 * quantum_I_closed_form(10 ** 6, PI)
    assert str(err.value) == (f"no N <= 1000000 with bound < 1.5e-06: bound at the cap is "
                              f"{1.5 * quantum_I_closed_form(10 ** 6, PI)!r}")


def scalar_envelope(spectrum: Spectrum, gamma: float) -> float:
    """Oracle: the closed-form envelope at one point, with libm's sin and exp
    (math.sin raises where the rectangle's argument overflows)."""
    if spectrum.shape is SpectrumShape.RECTANGULAR:
        x = 0.5 * gamma * spectrum.bandwidth
        return math.sin(x) / x if x else 1.0
    g = gamma * spectrum.bandwidth
    return math.exp(-g * g / (16.0 * math.log(2.0)))


envelope_arguments = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-9, 1.0, 1e300, -1e300, math.inf, -math.inf, math.nan]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False),
)


@PROPERTY
@given(st.lists(envelope_arguments, min_size=1, max_size=40),
       st.sampled_from(["rectangular", "gaussian"]),
       st.sampled_from([1e-3, 6.28e3, 6.28e12]))
def test_envelope_over_an_array_has_the_scalar_bits(gammas, shape, bandwidth):
    """Spectrum.envelope gives each element of an array the bits of
    math.sin(x)/x or math.exp at it, keeps the array's shape, and is NaN
    where the rectangle's argument overflows (math.sin raises there), with
    no RuntimeWarning."""
    spectrum = Spectrum(shape, 0.0, bandwidth, signed=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = spectrum.envelope(np.array(gammas).reshape(1, -1))
    assert got.shape == (1, len(gammas))
    for gamma, value in zip(gammas, got[0].tolist()):
        try:
            want = scalar_envelope(spectrum, gamma)
        except ValueError:
            assert math.isnan(value), gamma
            continue
        assert bits([value]) == bits([want]), gamma


@pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
def test_overflowing_rows_of_the_law_are_nan_columns_without_warnings(shape):
    """Without a window the law overflows at tau_b = 1e294 (carrier phase)
    and 1e300 (envelope arguments too): those columns are NaN, the other
    rows are distributions, and no RuntimeWarning escapes."""
    pump = Spectrum(shape, 2.4e15, 6.28e3)
    offset = Spectrum(shape, 0.0, 6.28e12, signed=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = physical_joint_probabilities(pump, offset, TAU_A, np.array([TAU_A, 1e294, 1e300]))
    assert np.isnan(rows.probabilities[:, 1:]).all()
    assert valid_columns(rows.probabilities).tolist() == [True, False, False]


def pointwise_physical(cfg: FransonConfig) -> tuple:
    """Oracle: the scalar four-path law the array law replaced, in plain
    Python complex arithmetic; (probabilities, visibility, kept classes)."""
    w_a, w_b = downconverted_frequencies(cfg)
    delays = {name: (cfg.tau_a if a_long else 0.0, cfg.tau_b if b_long else 0.0)
              for name, (a_long, b_long) in _CLASSES.items()}
    window = cfg.coincidence_window
    kept = [name for name, (ta, tb) in delays.items()
            if window is None or abs(ta - tb) <= window]
    carrier = {name: cmath.exp(1j * (w_a * delays[name][0] + w_b * delays[name][1]))
               for name in kept}
    const = [sum(abs(_CLASS_COEFFS[name][k]) ** 2 for name in kept) for k in range(4)]
    harmonic = [0j] * 4
    for i, u in enumerate(kept):
        for v in kept[i + 1:]:
            d_a = delays[u][0] - delays[v][0]
            d_b = delays[u][1] - delays[v][1]
            coherence = (scalar_envelope(cfg.pump, 0.5 * (d_a + d_b))
                         * scalar_envelope(cfg.photon_offset, d_a - d_b))
            step = _CLASSES[u][0] - _CLASSES[v][0]
            for k, (cu, cv) in enumerate(zip(_CLASS_COEFFS[u], _CLASS_COEFFS[v])):
                term = 2.0 * coherence * (cu * cv.conjugate() * carrier[u]
                                          * carrier[v].conjugate())
                if step == 0:
                    const[k] += term.real
                else:
                    harmonic[k] += term if step > 0 else term.conjugate()
    raw = [c + h.real for c, h in zip(const, harmonic)]
    weight = raw[0] + raw[1] + raw[2] + raw[3]  # left to right, which sum() is not from 3.12
    equal = const[0] + const[3]
    visibility = abs(harmonic[0] + harmonic[3]) / equal if equal > 0.0 else 0.0
    return [max(p / weight, 0.0) for p in raw], visibility, tuple(kept)


TAU_A = 1e-9
# Side-B delays: 0 and -0.0, tau_a and the edges of the auto window, a
# delay far past every coherence time, delays whose carrier phase overflows
# (1e294) and whose envelope arguments overflow too (1e300), where a kept
# class makes the column NaN and the one-point view raise, the ps-scale
# mismatches where the fringe washes out, and anything up to 3 ns.
side_b_delays = st.one_of(
    st.sampled_from([0.0, -0.0, TAU_A, 0.5 * TAU_A, 1.5 * TAU_A, 2 * TAU_A, 1e200,
                     1e294, 1e300]),
    st.floats(TAU_A * (1 - 2e-3), TAU_A * (1 + 2e-3)),
    st.floats(0.0, 3 * TAU_A),
)


@PROPERTY
@given(st.lists(side_b_delays, min_size=1, max_size=30),
       st.sampled_from(["none", "auto", "fixed"]),
       st.one_of(st.sampled_from([0.0, 0.5 * TAU_A, 0.6 * TAU_A, TAU_A]),
                 st.floats(0.0, 3 * TAU_A)),
       st.sampled_from(["rectangular", "gaussian"]),
       st.sampled_from([(2.4e15, 6.28e3, 0.0), (2.4e15, 6.28e9, 1e13)]))
def test_physical_block_law_equals_its_one_point_view(tau_b, window_kind, fixed, shape, setup):
    """The four-path law over M delays gives each row the bits of M one-point
    calls, and of the pointwise law it replaced, for every window kind and
    both spectral shapes."""
    pump_center, pump_bandwidth, offset_center = setup
    pump = Spectrum(shape, pump_center, pump_bandwidth)
    offset = Spectrum(shape, offset_center, 6.28e12, signed=True)
    windows = [None if window_kind == "none" else fixed if window_kind == "fixed"
               else 0.5 * min(TAU_A, t) for t in tau_b]
    block = physical_joint_probabilities(pump, offset, TAU_A, np.array(tau_b),
                                         None if window_kind == "none" else np.array(windows))
    valid = valid_columns(block.probabilities)
    for m, (t, window) in enumerate(zip(tau_b, windows)):
        try:
            point = physical_joint_distribution(FransonConfig(pump, offset, TAU_A, t, window))
        except ValueError:
            assert not valid[m], t
            continue
        assert valid[m], t
        assert bits(block.probabilities[:, m]) == bits(point.distribution.as_tuple()), t
        assert bits([block.visibility[m], block.mean_phase[m]]) == bits(
            [point.visibility, point.mean_phase]), t
        assert point.kept_classes == tuple(
            name for name, kept in zip(_CLASSES, block.kept[:, m]) if kept)
        probabilities, visibility, kept = pointwise_physical(
            FransonConfig(pump, offset, TAU_A, t, window))
        assert bits(block.probabilities[:, m]) == bits(probabilities), t
        assert bits([block.visibility[m]]) == bits([visibility]) and kept == point.kept_classes
