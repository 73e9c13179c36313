import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from bellsim.bell import ChainedConfig, chained_I
from bellsim.entangle import CorrelationModel, ideal_joint_distribution, ideal_joint_probabilities
from bellsim.interferometer import (
    DetectionDistribution,
    InterferenceRegime,
    InterferometerConfig,
    classify_interference,
    fringe_probabilities,
    local_detection_distribution,
    probability_monochromatic,
    probability_wavepacket,
    quantum_detection_distribution,
    sample_events,
    wavepacket_contrast,
    wavepacket_ports,
)
from bellsim.spectra import IntegrationError, Spectrum
from mp_oracles import math_fringe, mp_envelope, mp_fringe

TWO_PI = 2.0 * math.pi


def rect_config(center_phase_turns: float, dw_tau: float, tau: float = 1.0) -> InterferometerConfig:
    """Rectangular source whose center phase is a whole number of turns."""
    center = center_phase_turns * TWO_PI / tau
    return InterferometerConfig(
        path_delay_tau=tau,
        source=Spectrum(shape="rectangular", center=center, bandwidth=dw_tau / tau),
    )


def test_monochromatic_extremes():
    assert probability_monochromatic(+1, 0.0) == 1.0
    assert probability_monochromatic(-1, 0.0) == 0.0
    assert probability_monochromatic(-1, math.pi) == 1.0
    # cos^2(math.pi / 2), not 0: math.pi falls short of pi by 1.2e-16
    assert probability_monochromatic(+1, math.pi) == pytest.approx(3.749399456654644e-33,
                                                                  rel=1e-15, abs=0.0)
    assert probability_monochromatic(+1, math.pi / 2) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValueError):
        probability_monochromatic(0, 1.0)


@pytest.mark.parametrize("visibility", [1.0, 0.9])
@pytest.mark.parametrize("phi", [math.pi, math.pi - 1e-5, 3 * math.pi - 1e-5,
                                 -math.pi + 1e-7, -3 * math.pi, 1e-5])
def test_fringe_ports_match_mpmath_at_the_dark_fringes(phi, visibility):
    # a port near 0 keeps its digits: no 1 - cos(phi) cancels
    ports = fringe_probabilities(np.array([phi]), visibility)[:, 0].tolist()
    if visibility == 1.0:
        ports += [probability_monochromatic(+1, phi), probability_monochromatic(-1, phi)]
    for got, exact in zip(ports, 2 * mp_fringe(phi, visibility)):
        assert abs(got - exact) <= 1e-15 * exact, (phi, got, exact)


def chain_phases(n: int) -> np.ndarray:
    """The phases at which bell.chained_I evaluates the quantum fringe law
    over the 2n terms of a pi-chain, in its order."""
    seen = []

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        seen.append(phi_a - phi_b)
        return ideal_joint_probabilities(seen[-1])

    chained_I(CorrelationModel("recording", probabilities), ChainedConfig(n, math.pi))
    phases = np.concatenate(seen)
    assert phases.size == 2 * n
    return phases


# +-pi/3 and +-2pi/3, each between its two neighbouring floats, where
# cos(phi) crosses +-1/2 and a port changes form.
_BRANCH_EDGES = [[math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
                 for x in (math.pi / 3, -math.pi / 3, 2 * math.pi / 3, -2 * math.pi / 3)]
FRINGE_EDGE_PHASES = np.array(sum(_BRANCH_EDGES, [])
                              + [0.0, -0.0, math.pi, 1e6, 1e300, math.nan])


@pytest.mark.parametrize("visibility", [0.0, 0.3, 0.9, 1.0])
@pytest.mark.parametrize("phases", ["edges", "chain"])
def test_branch_only_fringe_law_equals_the_three_trig_form(phases, visibility):
    """The fringe law has, at every phase, the bits of its plain-libm form
    math_fringe (one canonical NaN), which shares no numpy code with it."""
    phi = FRINGE_EDGE_PHASES if phases == "edges" else chain_phases(100_000)
    got = fringe_probabilities(phi, visibility)
    assert got.shape == (2, phi.size)
    want = np.array([math_fringe(p, visibility) for p in phi.tolist()]).T
    got_bits, want_bits = (np.where(np.isnan(a), math.nan, a).view(np.int64) for a in (got, want))
    differ = np.flatnonzero((got_bits != want_bits).any(axis=0))
    assert differ.size == 0, (phi[differ[:5]], got[:, differ[:5]], want[:, differ[:5]])


def test_fringe_edge_phases_straddle_both_branch_edges():
    """Each edge's three floats fall on both sides of its branch's bound, so
    the equality above covers phases on both sides of every edge."""
    for triple in _BRANCH_EDGES:
        cos_phi = np.cos(triple)
        inside = cos_phi > 0.5 if cos_phi[1] > 0 else cos_phi < -0.5
        assert inside.any() and not inside.all(), triple


SCALAR_FRINGE_VIEWS = {
    "p_plus": lambda phi: probability_monochromatic(+1, phi),
    "p_minus": lambda phi: probability_monochromatic(-1, phi),
    "quantum": quantum_detection_distribution,
    "local": local_detection_distribution,
    "pair": ideal_joint_distribution,
    "pair_0.9": lambda phi: ideal_joint_distribution(phi, 0.9),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("view", SCALAR_FRINGE_VIEWS)
def test_scalar_fringe_views_at_non_finite_phases(view):
    """An infinite phase raises ValueError; a NaN phase gives NaN ports,
    which a distribution's probability check rejects; neither warns."""
    evaluate = SCALAR_FRINGE_VIEWS[view]
    for phi in (math.inf, -math.inf):
        with pytest.raises(ValueError):
            evaluate(phi)
    if view.startswith("p_"):
        assert math.isnan(evaluate(math.nan))
    else:
        with pytest.raises(ValueError, match=r"^probability nan outside \[0, 1\]$"):
            evaluate(math.nan)


def test_monochromatic_normalization_grid():
    for phi in np.linspace(0.0, TWO_PI, 1000):
        total = probability_monochromatic(+1, float(phi)) + probability_monochromatic(-1, float(phi))
        assert abs(total - 1.0) <= 1e-12


def test_monochromatic_monotone_on_0_pi():
    phis = np.linspace(1e-3, math.pi - 1e-3, 200)
    values = [probability_monochromatic(+1, float(p)) for p in phis]
    assert all(a > b for a, b in zip(values, values[1:]))
    minus = [probability_monochromatic(-1, float(p)) for p in phis]
    assert all(a < b for a, b in zip(minus, minus[1:]))


def test_monochromatic_surjective_on_unit_interval():
    for r in np.linspace(0.0, 1.0, 101):
        phi = math.acos(2.0 * float(r) - 1.0)
        assert abs(probability_monochromatic(+1, phi) - float(r)) <= 1e-12


def test_fringe_antisymmetry():
    # f(phi) = 2 P(+1|phi) - 1 satisfies f(phi) = -f(pi - phi)
    for phi in np.linspace(0.0, math.pi, 97):
        f = 2.0 * probability_monochromatic(+1, float(phi)) - 1.0
        g = 2.0 * probability_monochromatic(+1, math.pi - float(phi)) - 1.0
        assert abs(f + g) <= 1e-15


def test_wavepacket_washout():
    # fractional turns: the fringe must vanish at every center phase
    for turns in (7.0, 40.21, 113.5, 58.77):
        cfg = rect_config(center_phase_turns=turns, dw_tau=TWO_PI)
        assert abs(probability_wavepacket(+1, cfg, 1e-10) - 0.5) <= 1e-8
        assert abs(probability_wavepacket(-1, cfg, 1e-10) - 0.5) <= 1e-8


def test_wavepacket_equals_half_at_full_turn_multiples():
    for k in (1, 2, 3):
        cfg = rect_config(center_phase_turns=11, dw_tau=k * TWO_PI)
        assert abs(probability_wavepacket(+1, cfg, 1e-10) - 0.5) <= 1e-8


def test_wavepacket_constructive_limit():
    cfg = rect_config(center_phase_turns=100, dw_tau=1e-6)
    assert abs(probability_wavepacket(+1, cfg, 1e-10) - 1.0) <= 1e-6


def test_wavepacket_intermediate_value():
    cfg = rect_config(center_phase_turns=25, dw_tau=math.pi)
    expected = 0.5 * (1.0 + 2.0 / math.pi)  # = 0.8183098861837907
    assert abs(probability_wavepacket(+1, cfg, 1e-10) - expected) <= 1e-8


def test_wavepacket_matches_monochromatic_in_narrow_limit():
    rng = np.random.default_rng(11)
    for _ in range(20):
        turns = float(rng.uniform(3, 50))
        cfg = rect_config(center_phase_turns=turns, dw_tau=1e-7)
        phi = turns * TWO_PI
        mono = probability_monochromatic(+1, phi)
        assert abs(probability_wavepacket(+1, cfg, 1e-10) - mono) <= 1e-6


def test_wavepacket_stays_in_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        cfg = rect_config(
            center_phase_turns=float(rng.uniform(5, 30)),
            dw_tau=float(rng.uniform(0.01, 8 * math.pi)),
        )
        p = probability_wavepacket(+1, cfg, 1e-10)
        assert 0.0 <= p <= 1.0


@pytest.mark.parametrize("bandwidth", [1e-9, 0.5, 3.14, 20.0, 700.0, 1e5])
def test_wavepacket_rows_equal_the_one_point_law(bandwidth):
    """The ports wavepacket_ports(center, c) at c = wavepacket_contrast(bandwidth),
    which the CLI's rows are, equal probability_wavepacket(+1) and (-1) bit
    for bit at unit delay and that center: both take the same contrast
    quadrature and the same carrier phase.  At 1e5 both quadratures run out
    of nodes."""
    centers = bandwidth / 2.0 + np.array([1e-6, 0.3, 1.0, 2.5, 6.0, 40.0])
    if bandwidth == 1e5:
        with pytest.raises(IntegrationError, match="after 65536 nodes"):
            wavepacket_contrast(bandwidth)
        with pytest.raises(IntegrationError, match="after 65536 nodes"):
            probability_wavepacket(+1, InterferometerConfig(
                1.0, Spectrum("rectangular", centers[0].item(), bandwidth)))
        return
    rows = wavepacket_ports(centers, wavepacket_contrast(bandwidth))
    for (p_plus, p_minus), center in zip(rows.T.tolist(), centers.tolist()):
        cfg = InterferometerConfig(1.0, Spectrum("rectangular", center, bandwidth))
        assert (p_plus, p_minus) == (probability_wavepacket(+1, cfg),
                                     probability_wavepacket(-1, cfg))


@pytest.mark.parametrize("center", [1e3, 1e6, 1e9])
def test_wavepacket_keeps_its_digits_at_large_centers(center):
    """The carrier phase center*tau is rounded once, and the contrast is an
    integral over offsets from the center, so no digits are lost as the
    center grows: at unit delay and bandwidth 0.5 both ports are within
    3e-16 of (1 +- sinc(0.25) cos(center))/2 to 50 digits.  (Integrating
    cos(w*tau) at the absolute frequencies was 9.8e-14 off at 1e6 and
    7.9e-12 at 1e9.)"""
    cfg = InterferometerConfig(1.0, Spectrum("rectangular", center, 0.5))
    with mpmath.workdps(50):
        p_plus = (1 + mpmath.sinc(mpmath.mpf(0.25)) * mpmath.cos(mpmath.mpf(center))) / 2
        assert abs(probability_wavepacket(+1, cfg) - p_plus) <= 3e-16
        assert abs(probability_wavepacket(-1, cfg) - (1 - p_plus)) <= 3e-16


@pytest.mark.parametrize("bandwidth", [1e-300, 2.7907623893510446e-09, 7.00523504030721e-10,
                                       1e-6, 0.5, 3.14, TWO_PI, 3 * math.pi, 4 * math.pi,
                                       20.0, 700.0])
def test_wavepacket_contrast_matches_mpmath_sinc(bandwidth):
    """sin(x)/x at x = bandwidth/2, negative between 2 pi and 4 pi, and never
    outside [-1, 1].  Each quadrature pass is an exact sum: at 2.79e-9 and
    7.0e-10 the contrast is 1.0 and at 1e-300 it is 1 - 1.1e-16, the worst
    error here."""
    contrast = wavepacket_contrast(bandwidth)
    assert -1.0 <= contrast <= 1.0
    with mpmath.workdps(50):
        assert abs(contrast - mp_envelope("rectangular", bandwidth, 1)) <= 1.2e-16
    assert wavepacket_contrast(bandwidth, 1e-13) == pytest.approx(contrast, abs=1e-15)


@pytest.mark.parametrize("bandwidth", [0.0, -0.0])
def test_zero_bandwidth_has_full_contrast(bandwidth):
    assert wavepacket_contrast(bandwidth) == 1.0


@pytest.mark.parametrize("bandwidth", [-1.0, math.nan, math.inf])
def test_wavepacket_contrast_rejects_bandwidths_a_spectrum_rejects(bandwidth):
    with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
        wavepacket_contrast(bandwidth)


def test_classify_interference():
    # tau_c / tau = 1000
    assert classify_interference(rect_config(10, TWO_PI / 1000)) is InterferenceRegime.INTERFERING
    assert classify_interference(rect_config(10, TWO_PI)) is InterferenceRegime.PARTICLE_LIKE
    assert classify_interference(rect_config(10, TWO_PI / 10)) is InterferenceRegime.INTERMEDIATE
    zero = InterferometerConfig(path_delay_tau=0.0, source=Spectrum("rectangular", 100.0, 1.0))
    assert classify_interference(zero) is InterferenceRegime.INTERFERING
    for tau in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="path delay must be finite and >= 0"):
            InterferometerConfig(path_delay_tau=tau, source=zero.source)


def test_detection_distribution_validation():
    with pytest.raises(ValueError):
        DetectionDistribution(0.5, 0.5, 0.1, -0.1)
    with pytest.raises(ValueError):
        DetectionDistribution(0.5, 0.4, 0.0, 0.0)


def test_quantum_distribution_has_no_double_or_null():
    for phi in np.linspace(0.0, TWO_PI, 50):
        d = quantum_detection_distribution(float(phi))
        assert d.p_double == 0.0 and d.p_null == 0.0
        assert abs(d.p_plus + d.p_minus - 1.0) <= 1e-12


def test_local_detection_headline_values():
    d = local_detection_distribution(math.pi / 2)
    assert d.p_double == pytest.approx(0.25, abs=1e-12)
    assert d.p_null == pytest.approx(0.25, abs=1e-12)
    assert d.p_plus == pytest.approx(0.25, abs=1e-12)
    assert d.p_minus == pytest.approx(0.25, abs=1e-12)
    zero = local_detection_distribution(0.0)
    assert zero.p_plus == 1.0 and zero.p_minus == 0.0
    assert zero.p_double == 0.0 and zero.p_null == 0.0
    assert local_detection_distribution(math.pi / 3).p_double == pytest.approx(0.1875, abs=1e-12)


def test_local_detection_double_equals_null():
    # complementary independent detectors miss exactly as often as they double-fire
    for phi in np.linspace(0.0, TWO_PI, 37):
        d = local_detection_distribution(float(phi))
        assert d.p_double == pytest.approx(d.p_null, abs=1e-15)


def test_sampling_deterministic_and_stream_separated():
    d = local_detection_distribution(1.0)
    a = sample_events(d, 10000, seed=3, stream=0)
    b = sample_events(d, 10000, seed=3, stream=0)
    c = sample_events(d, 10000, seed=3, stream=1)
    assert a == b
    assert a != c
    assert a.total == 10000
    with pytest.raises(ValueError):
        sample_events(d, 0, seed=3)
    with pytest.raises(ValueError):
        sample_events(d, 10, seed=-1)


def test_sampling_never_draws_zero_probability_categories():
    counts = sample_events(quantum_detection_distribution(0.7), 10 ** 6, seed=1)
    assert counts.n_double == 0 and counts.n_null == 0
    assert counts.n_plus + counts.n_minus == 10 ** 6


def test_sampling_uniform_quarters_within_three_sigma():
    counts = sample_events(DetectionDistribution(0.25, 0.25, 0.25, 0.25), 10 ** 6, seed=20260808)
    sigma = math.sqrt(10 ** 6 * 0.25 * 0.75)
    for n in (counts.n_plus, counts.n_minus, counts.n_double, counts.n_null):
        assert abs(n - 250000) <= 3 * sigma


@pytest.mark.parametrize("model,seed", [
    (quantum_detection_distribution, 99),
    (local_detection_distribution, 77),
])
def test_sampling_frequencies_match_probabilities(model, seed):
    n = 10 ** 6
    for stream, phi in enumerate(np.linspace(0.0, math.pi, 20)):
        d = model(float(phi))
        counts = sample_events(d, n, seed=seed, stream=stream)
        observed = (counts.n_plus, counts.n_minus, counts.n_double, counts.n_null)
        for count, p in zip(observed, d.as_tuple()):
            sigma = math.sqrt(n * p * (1.0 - p))
            if sigma == 0.0:
                assert count == round(n * p)
            else:
                assert abs(count - n * p) <= 4.0 * sigma


def _fresh_counts(dist, n, seed, stream):
    probs = np.array(dist.as_tuple(), dtype=float)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))
    return tuple(rng.multinomial(n, probs / probs.sum()).tolist())


_SAMPLED = [
    (quantum_detection_distribution(0.7), 10 ** 6),
    (local_detection_distribution(1.0), 1),
    (DetectionDistribution(0.0, 0.0, 1.0, 0.0), 17),
    (DetectionDistribution(0.25, 0.25, 0.25, 0.25), 12345),
    (quantum_detection_distribution(math.pi), 10 ** 9),
]


def test_rekeyed_sampling_equals_a_fresh_philox_per_key():
    # Keys interleave, so each call follows one drawn under another key.
    keys = [(3, 0), (2 ** 64 - 1, 5), (3, 1), (0, 2 ** 64 - 1), (3, 0), (7, 7)]
    for dist, n in _SAMPLED:
        for seed, stream in keys:
            got = sample_events(dist, n, seed=seed, stream=stream)
            assert (got.n_plus, got.n_minus, got.n_double, got.n_null) == (
                _fresh_counts(dist, n, seed, stream))


def test_two_threads_sampling_at_once_keep_their_streams():
    tasks = [(dist, n, seed, stream) for dist, n in _SAMPLED
             for seed in (11, 2 ** 64 - 1) for stream in range(200)]
    want = [_fresh_counts(*task) for task in tasks]
    start = threading.Barrier(2)
    results = {}

    def draw(name, order):
        start.wait()
        results[name] = {i: sample_events(tasks[i][0], tasks[i][1], seed=tasks[i][2],
                                          stream=tasks[i][3]) for i in order}

    threads = [threading.Thread(target=draw, args=(name, order))
               for name, order in (("forward", range(len(tasks))),
                                   ("backward", range(len(tasks) - 1, -1, -1)))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between a re-key and its draw
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 2
    for counts in results.values():
        assert [(c.n_plus, c.n_minus, c.n_double, c.n_null)
                for _, c in sorted(counts.items())] == want
