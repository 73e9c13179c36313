import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.spectra import (
    PLANCK_CONSTANT,
    CoherenceTime,
    IntegrationError,
    Spectrum,
    coherence_time,
    heisenberg_product,
    integrate_over_spectrum,
)
from mp_oracles import mp_envelope

TWO_PI = 2.0 * math.pi


def sinc(x):
    return np.sinc(x / np.pi)  # sin(x)/x


def test_spectrum_validation():
    with pytest.raises(ValueError):
        Spectrum(shape="rectangular", center=10.0, bandwidth=0.0)
    with pytest.raises(ValueError):
        Spectrum(shape="rectangular", center=10.0, bandwidth=-1.0)
    with pytest.raises(ValueError):
        Spectrum(shape="rectangular", center=1.0, bandwidth=2.0)  # support dips below 0
    with pytest.raises(ValueError):
        Spectrum(shape="gaussian", center=0.5, bandwidth=1.0)
    # signed supports are allowed for offset densities
    s = Spectrum(shape="rectangular", center=0.0, bandwidth=4.0, signed=True)
    assert s.support == (-2.0, 2.0)
    with pytest.raises(ValueError):
        Spectrum(shape="triangular", center=10.0, bandwidth=1.0)


@pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
@pytest.mark.parametrize("center,bandwidth", [(10.0, 1.0), (1e15, 1e9), (200.0, 17.3)])
def test_normalization(shape, center, bandwidth):
    s = Spectrum(shape=shape, center=center, bandwidth=bandwidth)
    value = integrate_over_spectrum(s, lambda w: np.ones_like(w), tol=1e-10)
    assert abs(value - 1.0) <= 1e-10


def test_rectangular_fringe_matches_sinc_closed_form():
    """Rectangular spectra integrate cos(w*tau) to cos(w0*tau)*sinc(dw*tau/2)."""
    for dw_tau in np.linspace(0.1, 8 * math.pi, 24):
        for tau in (1.0, 3.7e-9):
            dw = dw_tau / tau
            center = 12.3 * dw  # clear of zero, irrational multiple
            s = Spectrum(shape="rectangular", center=center, bandwidth=dw)
            got = integrate_over_spectrum(s, lambda w: np.cos(w * tau), tol=1e-10)
            expected = math.cos(center * tau) * float(sinc(dw_tau / 2.0))
            assert abs(got - expected) <= 1e-8


def test_rectangular_fringe_destructive_zeros():
    for k in (1, 2, 3):
        s = Spectrum(shape="rectangular", center=50.0 * TWO_PI, bandwidth=k * TWO_PI)
        got = integrate_over_spectrum(s, lambda w: np.cos(w * 1.0), tol=1e-10)
        assert abs(got) <= 1e-8


def test_gaussian_fringe_matches_transform():
    """Gaussian envelope is exp(-(gamma*w)^2 / (16 ln 2)) up to truncation."""
    w = 2.0
    s = Spectrum(shape="gaussian", center=100.0, bandwidth=w)
    for gamma in (0.1, 0.5, 1.0, 1.5):
        got = integrate_over_spectrum(s, lambda om: np.cos(gamma * (om - 100.0)), tol=1e-10)
        expected = math.exp(-(gamma * w) ** 2 / (16.0 * math.log(2.0)))
        assert abs(got - expected) <= 1e-8


@pytest.mark.parametrize("gamma", [0.0, 1e-9, 1e-6, 3e-5, 5e-5])
def test_narrow_gaussian_at_optical_center_keeps_full_precision(gamma):
    """A 6.28e3 rad/s gaussian pump at 2.4e15 rad/s, where one ulp of the
    absolute frequency (0.5) is 8e-5 of the bandwidth: the density is
    evaluated at offsets from the center, so both integrals reach 1e-10."""
    center, bandwidth = 2.4e15, 6.28e3
    s = Spectrum(shape="gaussian", center=center, bandwidth=bandwidth)
    assert abs(integrate_over_spectrum(s, np.ones_like, tol=1e-10) - 1.0) <= 1e-10
    got = integrate_over_spectrum(s, lambda w: np.cos(gamma * (w - center)), tol=1e-10)
    # truncation at 5 bandwidths drops erfc(5*sqrt(4 ln 2)) ~ 1e-31 of the mass
    expected = math.exp(-(gamma * bandwidth) ** 2 / (16.0 * math.log(2.0)))
    assert abs(got - expected) <= 1e-10


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.sampled_from(["rectangular", "gaussian"]),
    st.floats(min_value=-3.0, max_value=12.0),   # log10 of the bandwidth
    st.floats(min_value=0.0, max_value=50.0),    # center in bandwidths
    st.floats(min_value=0.0, max_value=300.0),   # gamma * bandwidth
)
def test_envelopes_are_real_and_even(shape, log_bandwidth, center_factor, gamma_bandwidth):
    """Both densities are even about their center on a symmetric support:
    the sine integral vanishes and the cosine envelope is even in gamma."""
    bandwidth = 10.0 ** log_bandwidth
    center = center_factor * bandwidth
    s = Spectrum(shape=shape, center=center, bandwidth=bandwidth, signed=True)
    gamma = gamma_bandwidth / bandwidth
    tol = 1e-10

    def envelope(f, g):
        return integrate_over_spectrum(s, lambda w: f(g * (w - center)), tol=tol)

    assert abs(envelope(np.sin, gamma)) <= tol
    assert abs(envelope(np.cos, -gamma) - envelope(np.cos, gamma)) <= 4 * 2.0 ** -52


# The README pump and photon-offset widths, and gamma times the width up to
# the 1.3e4 of the widest offset envelope in the README Franson rows.  The
# envelope does not depend on the center, so the spectra sit at 0.
README_WIDTHS = [6.28e3, 6.28e12]
GAMMA_WIDTHS = [0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0, 2.0, math.pi, TWO_PI, 10.0, 30.0,
                100.0, 1e3, 6280.0, 6437.0, 1e4, 12874.0]


@pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
@pytest.mark.parametrize("bandwidth", README_WIDTHS)
def test_envelope_matches_mpmath(shape, bandwidth):
    s = Spectrum(shape=shape, center=0.0, bandwidth=bandwidth, signed=True)
    assert s.envelope(0.0) == 1.0
    with mpmath.workdps(50):
        for gamma_width in GAMMA_WIDTHS:
            gamma = gamma_width / bandwidth
            want = mp_envelope(shape, bandwidth, mpmath.mpf(gamma))
            assert abs(s.envelope(gamma) - float(want)) <= 1e-15, gamma_width
            assert s.envelope(-gamma) == s.envelope(gamma)


@pytest.mark.parametrize("shape", ["rectangular", "gaussian"])
@pytest.mark.parametrize("bandwidth", README_WIDTHS)
def test_quadrature_agrees_with_envelope_where_it_converges(shape, bandwidth):
    s = Spectrum(shape=shape, center=0.0, bandwidth=bandwidth, signed=True)
    converged = 0
    for gamma_width in GAMMA_WIDTHS:
        gamma = gamma_width / bandwidth
        try:
            got = integrate_over_spectrum(s, lambda w: np.cos(gamma * w), tol=1e-10)
        except IntegrationError:
            continue
        converged += 1
        assert abs(got - s.envelope(gamma)) <= 1e-10, gamma_width
    assert converged >= len(GAMMA_WIDTHS) - 2


def test_integration_failure_reports_estimate():
    s = Spectrum(shape="rectangular", center=1e9, bandwidth=1e8)
    with pytest.raises(IntegrationError) as err:
        integrate_over_spectrum(s, lambda w: np.cos(w * 1.0), tol=1e-10)
    assert err.value.error_estimate > 1e-10
    assert err.value.nodes_used <= 2 ** 16


def test_coherence_time():
    ghz = Spectrum(shape="rectangular", center=1e15, bandwidth=TWO_PI * 1e9)
    assert math.isclose(coherence_time(ghz).tau_c, 1e-9, rel_tol=1e-12)
    assert coherence_time(Spectrum("rectangular", 100.0, TWO_PI)).tau_c == pytest.approx(1.0, rel=1e-15)
    assert coherence_time(Spectrum("rectangular", 100.0, 2 * TWO_PI)).tau_c == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        CoherenceTime(tau_c=0.0)


def test_heisenberg_product():
    ghz = Spectrum(shape="rectangular", center=1e15, bandwidth=TWO_PI * 1e9)
    assert abs(heisenberg_product(ghz) / PLANCK_CONSTANT - 1.0) <= 1e-12
    tau_c = coherence_time(ghz).tau_c
    assert abs(heisenberg_product(ghz, tau_c=2 * tau_c) / (2 * PLANCK_CONSTANT) - 1.0) <= 1e-12
    # natural units: h = 2*pi so the minimal product is 2*pi
    nat = Spectrum(shape="rectangular", center=10.0, bandwidth=3.0)
    assert abs(heisenberg_product(nat, h=TWO_PI) - TWO_PI) <= 1e-12
    with pytest.raises(ValueError):
        heisenberg_product(ghz, tau_c=0.5 * tau_c)


def test_heisenberg_product_never_below_h():
    rng = np.random.default_rng(4)
    for _ in range(200):
        bandwidth = float(rng.uniform(1e-3, 1e12))
        shape = "rectangular" if rng.random() < 0.5 else "gaussian"
        s = Spectrum(shape=shape, center=bandwidth * float(rng.uniform(5.1, 50.0)), bandwidth=bandwidth)
        factor = float(rng.uniform(1.0, 10.0))
        product = heisenberg_product(s, tau_c=factor * coherence_time(s).tau_c)
        assert product >= PLANCK_CONSTANT * (1.0 - 1e-12)
