import math

import mpmath
import numpy as np
import pytest

from bellsim.bell import (ChainedConfig, deterministic_strategy_model, pr_box_model, quantum_model,
                          suppressed_nonlocality_model)
from bellsim.extensions import BiasedMarginalModel
from bellsim.entangle import (
    CorrelationModel,
    FransonConfig,
    JointDistribution,
    bob_measurement_rule,
    check_entanglement_conditions,
    downconverted_frequencies,
    ideal_joint_distribution,
    ideal_joint_probabilities,
    marginal,
    no_signaling_residual,
    physical_joint_distribution,
)
from bellsim.measurement import (
    MeasurementMatrix,
    mach_zehnder_effective,
    pi_quarter_model,
    unitarity_residual,
)
from bellsim.spectra import Spectrum
from mp_oracles import mp_envelope, mp_splitter_pair

TWO_PI = 2.0 * math.pi


def franson_config(ratio_pump=1e3, ratio_off=1e3, ratio_mismatch=1e3,
                   tau=1e-9, window="auto", carrier_turns=1000, extra_phase=0.0):
    """Config hitting the requested coherence ratios with a set carrier phase."""
    dw_pump = TWO_PI / (ratio_pump * tau)
    dw_off = TWO_PI * ratio_off / tau
    mismatch = (TWO_PI / dw_off) / ratio_mismatch
    tau_a, tau_b = tau, tau - mismatch
    pump_center = 2.0 * (carrier_turns * TWO_PI + extra_phase) / (tau_a + tau_b)
    win = 0.5 * min(tau_a, tau_b) if window == "auto" else window
    return FransonConfig(
        pump=Spectrum("rectangular", pump_center, dw_pump),
        photon_offset=Spectrum("rectangular", 0.0, dw_off, signed=True),
        tau_a=tau_a, tau_b=tau_b, coincidence_window=win,
    )


def dist_map(d: JointDistribution) -> dict:
    return {(1, 1): d.p_pp, (1, -1): d.p_pm, (-1, 1): d.p_mp, (-1, -1): d.p_mm}


def test_downconverted_frequencies():
    cfg = FransonConfig(
        pump=Spectrum("rectangular", 2.0, 0.1),
        photon_offset=Spectrum("rectangular", 0.3, 0.01, signed=True),
        tau_a=1.0, tau_b=1.0,
    )
    assert downconverted_frequencies(cfg) == (1.3, 0.7)


def test_downconverted_degenerate_and_sum_exact():
    rng = np.random.default_rng(8)
    for _ in range(100):
        w = float(rng.uniform(1.0, 1e16))
        off = float(rng.uniform(-0.49, 0.49)) * w
        cfg = FransonConfig(
            pump=Spectrum("rectangular", w, w * 1e-6),
            photon_offset=Spectrum("rectangular", off, max(abs(off), 1.0) * 1e-6, signed=True),
            tau_a=1.0, tau_b=1.0,
        )
        w_a, w_b = downconverted_frequencies(cfg)
        assert w_a + w_b == w  # exact energy conservation
    degenerate = FransonConfig(
        pump=Spectrum("rectangular", 2.0, 0.1),
        photon_offset=Spectrum("rectangular", 0.0, 0.01, signed=True),
        tau_a=1.0, tau_b=1.0,
    )
    assert downconverted_frequencies(degenerate) == (1.0, 1.0)


@pytest.mark.parametrize("field, value, message", [
    ("tau_a", math.nan, "tau_a must be finite and >= 0, got nan"),
    ("tau_b", math.inf, "tau_b must be finite and >= 0, got inf"),
    ("tau_b", -1e-9, "tau_b must be finite and >= 0, got -1e-09"),
    ("coincidence_window", math.nan, "coincidence window must be finite and >= 0, got nan"),
    ("coincidence_window", math.inf, "coincidence window must be finite and >= 0, got inf"),
])
def test_franson_config_rejects_non_finite_delays_and_window(field, value, message):
    delays = {"tau_a": 1e-9, "tau_b": 1e-9, "coincidence_window": None, field: value}
    with pytest.raises(ValueError, match=message):
        FransonConfig(pump=Spectrum("rectangular", 2.4e15, 6.28e3),
                      photon_offset=Spectrum("rectangular", 0.0, 6.28e12, signed=True),
                      **delays)


def test_downconverted_rejects_negative_frequency():
    cfg = FransonConfig(
        pump=Spectrum("rectangular", 2.0, 0.1),
        photon_offset=Spectrum("rectangular", 1.0, 0.01, signed=True),
        tau_a=1.0, tau_b=1.0,
    )
    with pytest.raises(ValueError):
        downconverted_frequencies(cfg)


def test_entanglement_conditions():
    good = check_entanglement_conditions(
        franson_config(ratio_pump=1e4, ratio_off=1e3, ratio_mismatch=1e3)
    )
    assert good.satisfied and not good.failing

    bad = check_entanglement_conditions(franson_config(ratio_pump=10.0))
    assert not bad.satisfied
    assert bad.failing == ("pump_coherence",)
    assert bad.ratios["pump_coherence"] == pytest.approx(10.0, rel=1e-9)

    matched = franson_config(ratio_mismatch=1e3)
    matched = FransonConfig(
        pump=matched.pump, photon_offset=matched.photon_offset,
        tau_a=matched.tau_a, tau_b=matched.tau_a,
        coincidence_window=matched.coincidence_window,
    )
    report = check_entanglement_conditions(matched)
    assert report.ratios["delay_balance"] == math.inf


def test_ideal_distribution_values():
    assert ideal_joint_distribution(0.0).p_equal == 1.0
    # cos^2(pi/2) with the rounded math.pi: the mpmath value
    assert ideal_joint_distribution(math.pi).p_equal == pytest.approx(
        3.749399456654644e-33, rel=1e-15, abs=0.0)
    mid = ideal_joint_distribution(math.pi / 2, visibility=0.3)
    assert dist_map(mid) == {k: 0.25 for k in dist_map(mid)}
    with pytest.raises(ValueError):
        ideal_joint_distribution(0.0, visibility=1.5)


def test_ideal_small_probabilities_keep_full_precision():
    # near phi = 0 the discordance, near phi = pi the concordance is tiny;
    # both come from half-angle forms, not from 1 -+ V cos(phi)
    phis = [1e-7, 1e-5, -3e-4, math.pi - 1e-3, -math.pi + 3e-3]
    for v in (1.0, 0.999999):
        batch = ideal_joint_probabilities(np.array(phis), v)
        for m, phi in enumerate(phis):
            with mpmath.workdps(40):
                c = mpmath.mpf(v) * mpmath.cos(mpmath.mpf(phi))
                want_equal, want_differ = float((1 + c) / 2), float((1 - c) / 2)
            d = ideal_joint_distribution(phi, v)
            for got_equal, got_differ in ((d.p_equal, d.p_differ),
                                          (batch[0, m] + batch[3, m], batch[1, m] + batch[2, m])):
                assert got_equal == pytest.approx(want_equal, rel=1e-12, abs=0.0), phi
                assert got_differ == pytest.approx(want_differ, rel=1e-12, abs=0.0), phi


def test_ideal_concordance_near_pi_matches_mpmath():
    # cos(phi/2) needs no rounded distance to pi: full precision up to and
    # beyond phi = math.pi, where the exact p_equal is cos^2(math.pi/2)
    phis = [math.pi - 1e-5, -math.pi + 1e-7, 3 * math.pi - 1e-5, -3 * math.pi, math.pi]
    for v in (1.0, 0.9):
        batch = ideal_joint_probabilities(np.array(phis), v)
        for m, phi in enumerate(phis):
            with mpmath.workdps(50):
                c = mpmath.mpf(v) * mpmath.cos(mpmath.mpf(phi))
                equal, differ = float((1 + c) / 4), float((1 - c) / 4)
            d = ideal_joint_distribution(phi, v)
            for got in ((d.p_pp, d.p_pm, d.p_mp, d.p_mm), batch[:, m]):
                assert list(got) == pytest.approx([equal, differ, differ, equal],
                                                  rel=1e-15, abs=0.0), (v, phi)


def test_ideal_marginals_uniform():
    for phi in np.linspace(0.0, TWO_PI, 101):
        for v in (0.0, 0.4, 1.0):
            d = ideal_joint_distribution(float(phi), v)
            assert abs(marginal(d, "A") - 0.5) <= 1e-15
            assert abs(marginal(d, "B") - 0.5) <= 1e-15


def test_ideal_concordance_monotone_and_surjective():
    values = [ideal_joint_distribution(float(p)).p_equal
              for p in np.linspace(1e-3, math.pi - 1e-3, 100)]
    assert all(a > b for a, b in zip(values, values[1:]))
    for r in np.linspace(0.0, 1.0, 21):
        phi = math.acos(2.0 * float(r) - 1.0)
        assert ideal_joint_distribution(phi).p_equal == pytest.approx(float(r), abs=1e-12)


def test_marginal_of_deterministic_distribution():
    d = JointDistribution(p_pp=1.0, p_pm=0.0, p_mp=0.0, p_mm=0.0)
    assert marginal(d, "A") == 1.0
    assert marginal(d, "B") == 1.0
    with pytest.raises(ValueError):
        marginal(d, "C")


def test_physical_matches_ideal_under_coherence_conditions():
    for extra in (0.0, 1.2, math.pi / 2):
        cfg = franson_config(extra_phase=extra)
        assert check_entanglement_conditions(cfg).satisfied
        result = physical_joint_distribution(cfg)
        assert result.kept_classes == ("ll", "ss")
        assert result.visibility >= 0.98
        ideal = ideal_joint_distribution(result.mean_phase, result.visibility)
        got, want = dist_map(result.distribution), dist_map(ideal)
        assert max(abs(got[k] - want[k]) for k in got) <= 1e-8
        assert abs(marginal(result.distribution, "A") - 0.5) <= 1e-12
        assert abs(marginal(result.distribution, "B") - 0.5) <= 1e-12


def test_physical_concordance_high_at_zero_phase():
    cfg = franson_config(extra_phase=0.0)
    result = physical_joint_distribution(cfg)
    assert result.distribution.p_equal >= 0.99


def test_physical_washout_when_mismatch_spans_a_turn():
    # offset bandwidth times delay mismatch equal to a full turn
    cfg = franson_config(ratio_mismatch=1.0)
    result = physical_joint_distribution(cfg)
    assert result.visibility <= 0.1


def test_physical_near_ideal_limit_within_one_percent():
    cfg = franson_config(ratio_pump=1e4, ratio_off=1e4, ratio_mismatch=1e4,
                         extra_phase=0.9)
    result = physical_joint_distribution(cfg)
    ideal = ideal_joint_distribution(result.mean_phase)
    got, want = dist_map(result.distribution), dist_map(ideal)
    assert max(abs(got[k] - want[k]) for k in got) <= 0.01


def test_physical_with_gaussian_spectra():
    base = franson_config(extra_phase=0.8)
    cfg = FransonConfig(
        pump=Spectrum("gaussian", base.pump.center, base.pump.bandwidth),
        photon_offset=Spectrum("gaussian", 0.0, base.photon_offset.bandwidth, signed=True),
        tau_a=base.tau_a, tau_b=base.tau_b,
        coincidence_window=base.coincidence_window,
    )
    result = physical_joint_distribution(cfg)
    assert result.visibility >= 0.98
    ideal = ideal_joint_distribution(result.mean_phase, result.visibility)
    got, want = dist_map(result.distribution), dist_map(ideal)
    assert max(abs(got[k] - want[k]) for k in got) <= 1e-7


def test_physical_without_postselection_caps_visibility():
    cfg = franson_config(window=None)
    result = physical_joint_distribution(cfg)
    assert set(result.kept_classes) == {"ll", "ss", "ls", "sl"}
    assert result.visibility <= 0.51


def test_physical_visibility_monotone_in_each_ratio():
    # offset incoherence only gates the discarded classes, so its ladder is
    # flat up to second-order delay shifts; the others decay through sinc
    ladder = [1e3, 1e2, 10.0, 1.0]
    for name in ("ratio_pump", "ratio_off", "ratio_mismatch"):
        visibilities = []
        for r in ladder:
            cfg = franson_config(**{name: r})
            visibilities.append(physical_joint_distribution(cfg).visibility)
        assert all(a >= b - 1e-6 for a, b in zip(visibilities, visibilities[1:])), (
            name, visibilities,
        )


def simpson_weights(n, h):
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * h / 3.0


def dense_grid_oracle(cfg, n_w, n_ph):
    """Direct 2-D Simpson integration of the kept-class interference field."""
    kappa = {1: 0.5j, -1: 0.5 + 0j}
    lam = {1: 0.5j, -1: -0.5 + 0j}
    classes = {"ll": (True, True), "ss": (False, False),
               "ls": (True, False), "sl": (False, True)}
    ta, tb = cfg.tau_a, cfg.tau_b
    kept = [
        name for name, (al, bl) in classes.items()
        if cfg.coincidence_window is None
        or abs((ta if al else 0.0) - (tb if bl else 0.0)) <= cfg.coincidence_window
    ]
    lo_w, hi_w = cfg.pump.support
    lo_p, hi_p = cfg.photon_offset.support
    w = np.linspace(lo_w, hi_w, n_w)
    ph = np.linspace(lo_p, hi_p, n_ph)
    weights_w = simpson_weights(n_w, (hi_w - lo_w) / (n_w - 1)) * cfg.pump.normalization
    weights_p = simpson_weights(n_ph, (hi_p - lo_p) / (n_ph - 1)) * cfg.photon_offset.normalization
    w_a = 0.5 * w[:, None] + ph[None, :]
    w_b = 0.5 * w[:, None] - ph[None, :]
    raw = {}
    for a in (1, -1):
        for b in (1, -1):
            field = np.zeros_like(w_a, dtype=complex)
            for name in kept:
                al, bl = classes[name]
                coeff = (kappa[a] if al else lam[a]) * (kappa[b] if bl else lam[b])
                phase = (w_a * ta if al else 0.0) + (w_b * tb if bl else 0.0)
                field += coeff * np.exp(1j * phase)
            raw[(a, b)] = float(weights_w @ (np.abs(field) ** 2) @ weights_p)
    total = sum(raw.values())
    return {k: v / total for k, v in raw.items()}


def test_physical_matches_dense_grid_oracle_postselected():
    cfg = franson_config(ratio_pump=50.0, ratio_off=30.0, ratio_mismatch=40.0,
                         tau=1.0, carrier_turns=40, extra_phase=3.7)
    oracle = dense_grid_oracle(cfg, 513, 513)
    model = dist_map(physical_joint_distribution(cfg).distribution)
    assert max(abs(oracle[k] - model[k]) for k in oracle) <= 1e-8


def test_physical_matches_dense_grid_oracle_no_postselection():
    cfg = franson_config(ratio_pump=50.0, ratio_off=15.0, ratio_mismatch=40.0,
                         tau=1.0, window=None, carrier_turns=40, extra_phase=1.1)
    oracle = dense_grid_oracle(cfg, 257, 4097)
    model = dist_map(physical_joint_distribution(cfg).distribution)
    assert max(abs(oracle[k] - model[k]) for k in oracle) <= 1e-6


def mp_physical_franson(shape, pump_center, pump_bandwidth, offset_bandwidth,
                        tau_a, tau_b, window):
    """Joint probabilities, visibility and ll-ss carrier phase of the
    four-path model, in 50-digit arithmetic from closed-form envelopes.

    Each photon crosses two symmetric splitters (1/sqrt2)[[1, i], [i, 1]]
    entering port 0; outcome +1 is output port 1.  A class (ta, tb) of long
    (delay) or short (0) arms has phase w_a*ta + w_b*tb, that is pump offset
    times (ta + tb)/2 plus photon offset times (ta - tb) around the carrier.
    The fringe is the first harmonic in an extra phase chi on side A's long
    arm: p_equal(chi) = const + Re(h exp(i chi)), visibility |h|/const.
    """
    with mpmath.workdps(50):
        split = mpmath.matrix([[1, 1j], [1j, 1]]) / mpmath.sqrt(2)
        port = {+1: 1, -1: 0}

        def amplitude(long_arm, outcome):
            arm = 0 if long_arm else 1
            return split[port[outcome], arm] * split[arm, 0]

        w = mpmath.mpf(pump_center)
        w_a = w_b = w / 2
        t_a, t_b = mpmath.mpf(tau_a), mpmath.mpf(tau_b)
        classes = []
        for a_long in (True, False):
            for b_long in (True, False):
                ta, tb = (t_a if a_long else 0), (t_b if b_long else 0)
                if window is None or abs(ta - tb) <= window:
                    classes.append((a_long, b_long, ta, tb))
        const, harmonic = {}, {}
        for a in (1, -1):
            for b in (1, -1):
                amps = [amplitude(al, a) * amplitude(bl, b) * mpmath.expj(w_a * ta + w_b * tb)
                        for al, bl, ta, tb in classes]
                const[a, b] = sum(abs(x) ** 2 for x in amps)
                harmonic[a, b] = mpmath.mpc(0)
                for i, (al, _, ta, tb) in enumerate(classes):
                    for j, (al2, _, ta2, tb2) in enumerate(classes[:i]):
                        term = amps[i] * mpmath.conj(amps[j]) * (
                            mp_envelope(shape, pump_bandwidth, (ta + tb - ta2 - tb2) / 2)
                            * mp_envelope(shape, offset_bandwidth, (ta - tb) - (ta2 - tb2)))
                        step = int(al) - int(al2)
                        if step == 0:
                            const[a, b] += 2 * term.real
                        else:
                            harmonic[a, b] += 2 * (term if step == 1 else mpmath.conj(term))
        total = sum(const[k] + harmonic[k].real for k in const)
        probs = {k: (const[k] + harmonic[k].real) / total for k in const}
        visibility = (abs(harmonic[1, 1] + harmonic[-1, -1])
                      / (const[1, 1] + const[-1, -1]))
        return probs, visibility, w_a * t_a + w_b * t_b


@pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
@pytest.mark.parametrize("window", [None, 0.5e-9])
@pytest.mark.parametrize("tau_b", [1e-9, 1.0005e-9])
def test_physical_matches_mpmath_oracle_at_readme_setup(shape, window, tau_b):
    """The README set-up (pump 2.4e15 rad/s wide 6.28e3, offset width
    6.28e12, tau_a = 1 ns), with and without post-selection.  The carrier
    phase of 2.4e6 rad held in a double is uncertain by a few ulps, which
    moves the probabilities by up to that many radians."""
    cfg = FransonConfig(
        pump=Spectrum(shape, 2.4e15, 6.28e3),
        photon_offset=Spectrum(shape, 0.0, 6.28e12, signed=True),
        tau_a=1e-9, tau_b=tau_b, coincidence_window=window,
    )
    result = physical_joint_distribution(cfg)
    want, visibility, phase = mp_physical_franson(
        shape, 2.4e15, 6.28e3, 6.28e12, 1e-9, tau_b, window)
    tol = 1e-10 + 4 * math.ulp(float(phase))
    got = dist_map(result.distribution)
    assert max(abs(got[k] - float(want[k])) for k in got) <= tol
    assert abs(result.visibility - float(visibility)) <= tol
    assert abs(result.mean_phase - float(phase)) <= 4 * math.ulp(float(phase))


@pytest.mark.parametrize("tau_b", [1.025e-9, 1.05e-9])
def test_gaussian_rows_without_postselection_beyond_the_quadrature_node_budget(tau_b):
    """README set-up rows whose offset envelope, at gamma = tau_b and
    tau_a + tau_b respectively (gamma times the 6.28e12 rad/s gaussian width
    6.4e3 and 1.3e4), a 65536-node quadrature did not resolve: they raised
    IntegrationError.  The closed form has no such limit."""
    test_physical_matches_mpmath_oracle_at_readme_setup("gaussian", None, tau_b)


@pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
@pytest.mark.parametrize("tau", [1e-7, 1e-6, 1e-5])
def test_physical_visibility_matches_mpmath_oracle_at_long_delays(shape, tau):
    """Microsecond delays put the carrier phase at 2.4e8-2.4e10 rad.  The
    post-selected visibility does not depend on the carrier, so the
    visibility sweep must not round with it."""
    pump_bandwidth = TWO_PI / (100.0 * tau)
    cfg = FransonConfig(
        pump=Spectrum(shape, 2.4e15, pump_bandwidth),
        photon_offset=Spectrum(shape, 0.0, 6.28e12, signed=True),
        tau_a=tau, tau_b=tau, coincidence_window=0.5 * tau,
    )
    result = physical_joint_distribution(cfg)
    _, visibility, _ = mp_physical_franson(
        shape, 2.4e15, pump_bandwidth, 6.28e12, tau, tau, 0.5 * tau)
    assert abs(result.visibility - float(visibility)) <= 1e-12


def test_no_signaling_residuals():
    grid = np.linspace(0.0, TWO_PI, 16)
    assert no_signaling_residual(quantum_model(), grid, grid) <= 1e-12
    assert no_signaling_residual(pr_box_model(), grid, grid) <= 1e-12

    def signaling(phi_a, phi_b):
        p = 0.5 * (1.0 + 0.1 * np.cos(phi_b))
        return np.stack((0.5 * p, 0.5 * p, 0.5 * (1 - p), 0.5 * (1 - p)))

    signaling_rule = CorrelationModel("signaling", signaling)

    assert no_signaling_residual(signaling_rule, [0.0], [0.0, math.pi]) == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(ValueError):
        no_signaling_residual(signaling_rule, [], [0.0])


def test_difference_model_rule_is_its_law_at_the_difference():
    rng = np.random.default_rng(31)
    phi_a, phi_b = rng.uniform(-10.0, 10.0, (2, 40))
    seen = []

    def law(phi):
        seen.append(phi)
        return ideal_joint_probabilities(phi, 0.7)

    model = CorrelationModel.of_difference("fringe", law)
    assert model.difference is law
    with pytest.raises(TypeError):  # no rule can be paired with a law it disagrees with
        CorrelationModel("fringe", model.probabilities, law)
    p = model.probabilities(phi_a, phi_b)
    assert np.array_equal(seen[0], phi_a - phi_b)
    assert p.tobytes() == law(phi_a - phi_b).tobytes()
    assert model.rule(1.5, 0.25) == JointDistribution(*law(np.array([1.25]))[:, 0].tolist())
    # the library's rotation-invariant models keep the bits of their rules
    for model, want in ((quantum_model(0.9), ideal_joint_probabilities(phi_a - phi_b, 0.9)),
                        (pr_box_model(), pr_box_model().difference(phi_a - phi_b)),
                        (suppressed_nonlocality_model(), np.full((4, 40), 0.25))):
        assert model.probabilities(phi_a, phi_b).tobytes() == want.tobytes(), model.name


def test_models_of_more_than_the_difference_have_no_difference_law():
    biased = BiasedMarginalModel(base=quantum_model(), bias=0.2)
    for model in (CorrelationModel("rule", lambda a, b: np.full((4, a.size), 0.25)),
                  bob_measurement_rule(pi_quarter_model()),
                  deterministic_strategy_model((1, -1, -1, 1), ChainedConfig(2, math.pi)),
                  biased.subensemble_rule(0), biased.subensemble_rule(1), biased.ensemble_rule()):
        assert model.difference is None, model.name


def test_bob_matrix_unitarity_chain():
    """Any matrix passing the single-particle check yields no-signaling
    two-photon correlations; the standard matrix reproduces the ideal law."""
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, TWO_PI, 8)
    for _ in range(50):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        m = MeasurementMatrix.from_array(q)
        assert no_signaling_residual(bob_measurement_rule(m), grid, grid) <= 1e-12

    rule = bob_measurement_rule(mach_zehnder_effective(math.pi / 2)).rule
    for pa in np.linspace(0.0, TWO_PI, 7):
        for pb in np.linspace(0.0, TWO_PI, 7):
            got = dist_map(rule(float(pa), float(pb)))
            want = dist_map(ideal_joint_distribution(float(pa) + float(pb)))
            assert max(abs(got[k] - want[k]) for k in got) <= 1e-12


@pytest.mark.parametrize("unitary", [True, False])
def test_bob_rule_matches_the_two_photon_amplitude_oracle(unitary):
    """The pair law, half the photon's port law, against a 50-digit sum of
    two-photon amplitudes that shares no code with it."""
    rng = np.random.default_rng(13 if unitary else 14)
    worst = 0.0
    for _ in range(30):
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        if unitary:
            z = np.linalg.qr(z)[0]
        else:
            z = rng.uniform(0.0, 1.0, (2, 2)) * np.exp(1j * rng.uniform(-math.pi, math.pi, (2, 2)))
        m = MeasurementMatrix.from_array(z)
        assert (unitarity_residual(m) <= 1e-12) == unitary
        phi_a, phi_b = rng.uniform(-10.0, 10.0, (2, 8))
        got = bob_measurement_rule(m).probabilities(phi_a, phi_b)
        for k, phi in enumerate((phi_a + phi_b).tolist()):
            want = mp_splitter_pair(z.tolist(), phi)
            worst = max(worst, *(float(abs(mpmath.mpf(g) - w)) for g, w in zip(got[:, k], want)))
    assert worst <= 1e-15


def test_bob_signaling_equals_unitarity_residual():
    """The pi/4 splitter's cross term is exactly how far side A's marginal
    moves with side B's phase: unitarity is what keeps the pair no-signaling."""
    m = pi_quarter_model()
    model = bob_measurement_rule(m)
    assert model.name == "bob_measurement"
    grid = np.linspace(0.0, TWO_PI, 65)
    residual = no_signaling_residual(model, grid, grid)
    assert unitarity_residual(m) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
    assert residual == pytest.approx(unitarity_residual(m), abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        FransonConfig(
            pump=Spectrum("rectangular", 2.0, 0.1),
            photon_offset=Spectrum("rectangular", 0.0, 0.01, signed=True),
            tau_a=-1.0, tau_b=1.0,
        )
    with pytest.raises(ValueError):
        FransonConfig(
            pump=Spectrum("rectangular", 2.0, 0.1),
            photon_offset=Spectrum("rectangular", 0.0, 0.01, signed=True),
            tau_a=1.0, tau_b=1.0, coincidence_window=-0.5,
        )
