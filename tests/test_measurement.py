import cmath
import math

import numpy as np
import pytest

from bellsim.interferometer import probability_monochromatic
from bellsim.measurement import (
    STANDARD_PORT_PHASES,
    MeasurementMatrix,
    PathAmplitudes,
    hadamard_beam_splitter,
    is_valid_quantum_measurement,
    mach_zehnder_effective,
    outcome_distribution,
    outcome_probabilities,
    pi_quarter_model,
    symmetric_beam_splitter,
    unitarity_residual,
)

TWO_PI = 2.0 * math.pi
BALANCED = PathAmplitudes.balanced()


def random_unitary(rng) -> MeasurementMatrix:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(z)
    return MeasurementMatrix.from_array(q)


def test_residual_examples():
    assert unitarity_residual(symmetric_beam_splitter()) == 0.0
    identity = MeasurementMatrix(a11=1, a12=0, a21=0, a22=1)
    assert unitarity_residual(identity) == 0.0
    lopsided = MeasurementMatrix(a11=1, a12=0, a21=1, a22=0)
    assert unitarity_residual(lopsided) == pytest.approx(1.0, abs=1e-15)
    assert unitarity_residual(pi_quarter_model()) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)


def test_validity_examples():
    assert is_valid_quantum_measurement(symmetric_beam_splitter()).valid
    assert is_valid_quantum_measurement(hadamard_beam_splitter()).valid
    report = is_valid_quantum_measurement(pi_quarter_model())
    assert not report.valid
    # the counterexample conserves per-path probability and fails only the cross term
    assert report.path_norms[0] == pytest.approx(1.0, abs=1e-12)
    assert report.path_norms[1] == pytest.approx(1.0, abs=1e-12)
    assert report.residual > 0.1
    with pytest.raises(ValueError):
        is_valid_quantum_measurement(symmetric_beam_splitter(), tol=0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_splitter_model_rejects_non_finite_phases(value):
    with pytest.raises(ValueError, match="reflection_phase must be finite"):
        mach_zehnder_effective(value)
    m = mach_zehnder_effective(math.pi / 2)
    with pytest.raises(ValueError, match="phi must be finite"):
        outcome_distribution(m, PathAmplitudes.balanced(), value)
    # the array law names the first non-finite phase, as a float
    with pytest.raises(ValueError, match=rf"^phi must be finite, got {value!r}$"):
        outcome_probabilities(m, BALANCED, np.array([0.0, value, math.nan]))


def test_outcome_distribution_is_the_array_law_at_one_point():
    m, phis = pi_quarter_model(), np.linspace(-7.0, 7.0, 57)
    p_plus, p_minus = outcome_probabilities(m, BALANCED, phis)
    assert p_plus.shape == p_minus.shape == phis.shape
    for phi, plus, minus in zip(phis.tolist(), p_plus.tolist(), p_minus.tolist()):
        out = outcome_distribution(m, BALANCED, phi)
        assert (out.p_plus, out.p_minus) == (plus, minus)
        assert type(out.p_plus) is float and out.total == plus + minus


def test_path_amplitudes_must_be_normalized():
    with pytest.raises(ValueError):
        PathAmplitudes(L=1.0, S=1.0)
    for bad in ((math.nan, 0.7), (0.7, math.nan), (complex(0.6, math.nan), 0.8)):
        with pytest.raises(ValueError):
            PathAmplitudes(*bad)
    PathAmplitudes(L=0.6, S=0.8j)


def test_unitary_outcome_sums_to_one_on_grid():
    for m in (symmetric_beam_splitter(), hadamard_beam_splitter(),
              mach_zehnder_effective(math.pi / 2)):
        for phi in np.linspace(0.0, TWO_PI, 1000):
            out = outcome_distribution(m, BALANCED, float(phi))
            assert abs(out.total - 1.0) <= 1e-12


def test_pi_quarter_fringes_and_energy_violation():
    m = pi_quarter_model()
    for phi in np.linspace(0.0, TWO_PI, 64):
        out = outcome_distribution(m, BALANCED, float(phi))
        assert out.p_plus == pytest.approx(0.5 * (1 + math.cos(phi)), abs=1e-12)
        assert out.p_minus == pytest.approx(0.5 * (1 + math.sin(phi)), abs=1e-12)
    at_quarter = outcome_distribution(m, BALANCED, math.pi / 4)
    assert at_quarter.total == pytest.approx(1.0 + math.sqrt(2) / 2, abs=1e-12)
    at_three_quarters = outcome_distribution(m, BALANCED, 3 * math.pi / 4)
    assert at_three_quarters.total == pytest.approx(1.0, abs=1e-12)


def test_quantum_interferometer_matrix_reproduces_fringe_law():
    m = mach_zehnder_effective(math.pi / 2)
    for phi in np.linspace(0.0, TWO_PI, 50):
        out = outcome_distribution(m, BALANCED, float(phi))
        assert out.p_plus == pytest.approx(probability_monochromatic(+1, float(phi)), abs=1e-12)
        assert out.p_minus == pytest.approx(probability_monochromatic(-1, float(phi)), abs=1e-12)


def test_random_unitaries_always_pass():
    rng = np.random.default_rng(13)
    for _ in range(200):
        m = random_unitary(rng)
        report = is_valid_quantum_measurement(m, tol=1e-10)
        assert report.valid, report
        for phi in (0.0, 1.0, 2.5):
            assert abs(outcome_distribution(m, BALANCED, phi).total - 1.0) <= 1e-12


def test_nonunitary_matrices_violate_total_probability():
    """With residual R the total probability must deviate from 1 by at least
    R * |2 L S*| somewhere on a fine phase grid."""
    rng = np.random.default_rng(23)
    grid = np.linspace(0.0, TWO_PI, 1000)
    checked = 0
    while checked < 1000:
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = MeasurementMatrix.from_array(z)
        residual = unitarity_residual(m)
        if residual <= 0.1:
            continue
        checked += 1
        p_plus, p_minus = outcome_probabilities(m, BALANCED, grid)
        deviation = np.max(np.abs(p_plus + p_minus - 1.0))
        # |2 L S*| = 1 for balanced amplitudes
        assert deviation >= residual * (1.0 - 1e-4)


def test_phase_multiplies_long_path():
    # a matrix routing the long path straight to D(+): p_plus must ignore phi
    router = MeasurementMatrix(a11=1, a12=0, a21=0, a22=1)
    for phi in (0.0, 0.7, 2.9):
        out = outcome_distribution(router, PathAmplitudes(L=0.6, S=0.8), phi)
        assert out.p_plus == pytest.approx(0.36, abs=1e-12)
        assert out.p_minus == pytest.approx(0.64, abs=1e-12)


def test_from_array_round_trip():
    m = pi_quarter_model()
    again = MeasurementMatrix.from_array(m.as_array())
    assert m == again
    with pytest.raises(ValueError):
        MeasurementMatrix.from_array(np.eye(3))


def test_standard_port_phases_are_the_physical_interferometer():
    m = mach_zehnder_effective(math.pi / 2)
    table = STANDARD_PORT_PHASES
    expected = [[table["long"][+1], table["long"][-1]],
                [table["short"][+1], table["short"][-1]]]
    np.testing.assert_allclose(m.as_array() * math.sqrt(2.0), expected, rtol=0, atol=2e-16)
    for phases in table.values():
        assert all(abs(z) == 1.0 and z.real * z.imag == 0.0 for z in phases.values())
