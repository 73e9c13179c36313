"""Oracles shared by the test modules: high-precision ones in mpmath, and
the fringe law in plain libm arithmetic."""

import math

import mpmath


def mp_envelope(shape: str, bandwidth: float, gamma):
    """Mean of exp(i*gamma*x) over the centered density: a sinc for the
    rectangular one, the complex-erf form of the gaussian truncated at 5
    bandwidths."""
    if gamma == 0:
        return mpmath.mpf(1)
    b = mpmath.mpf(bandwidth)
    if shape == "rectangular":
        return mpmath.sin(gamma * b / 2) / (gamma * b / 2)
    root_a = 2 * mpmath.sqrt(mpmath.log(2)) / b  # density exp(-(root_a x)^2)
    edge = 5 * b * root_a
    shifted = mpmath.erf(mpmath.mpc(edge, gamma / (2 * root_a)))
    return mpmath.exp(-(gamma / (2 * root_a)) ** 2) * shifted.real / mpmath.erf(edge)


def mp_fringe(phi: float, visibility: float = 1.0):
    """Port probabilities ((1 + V cos(phi))/2, (1 - V cos(phi))/2) to 50
    digits, at the exact binary values of phi and V."""
    with mpmath.workdps(50):
        c = mpmath.mpf(visibility) * mpmath.cos(mpmath.mpf(phi))
        return (1 + c) / 2, (1 - c) / 2


def mp_splitter_pair(m, phi: float):
    """Joint probabilities (pp, pm, mp, mm) to 50 digits of the pair
    (|long, long> exp(i*phi) + |short, short>)/sqrt2 whose photon A meets the
    standard interferometer, port phases (i, i) for + and (1, -1) for - over
    sqrt2 (long, short), and whose photon B meets the 2x2 matrix ``m``,
    m[path][port] with path 0 long and 1 short; at the exact binary phi."""
    with mpmath.workdps(50):
        r = 1 / mpmath.sqrt(2)
        carrier = mpmath.expj(mpmath.mpf(phi))
        side_a = ((1j, 1j), (1, -1))
        probabilities = []
        for long_a, short_a in side_a:
            for port in (0, 1):
                amp = r * (long_a * r * carrier * mpmath.mpc(m[0][port])
                           + short_a * r * mpmath.mpc(m[1][port]))
                probabilities.append(abs(amp) ** 2)
        return probabilities


def mp_port_probabilities(m, amps, phi: float):
    """Port probabilities (p_plus, p_minus) |a * L exp(i phi) + b * S|^2 to
    40 digits, at the exact binary values of the entries of the
    MeasurementMatrix ``m``, of the PathAmplitudes ``amps`` and of phi."""
    with mpmath.workdps(40):
        long_amp = mpmath.mpc(amps.L) * mpmath.expj(mpmath.mpf(phi))
        short_amp = mpmath.mpc(amps.S)
        return [abs(mpmath.mpc(a) * long_amp + mpmath.mpc(b) * short_amp) ** 2
                for a, b in ((m.a11, m.a21), (m.a12, m.a22))]


def math_fringe(phi: float, visibility: float) -> tuple[float, float]:
    """The fringe law's ports (p_plus, p_minus) in plain libm arithmetic, the
    half-angle forms on the same branches as the array law's: an oracle
    that shares no numpy code with it."""
    cos_phi = math.cos(phi)
    p_plus = 0.5 * (1.0 + visibility * cos_phi)
    p_minus = 0.5 * (1.0 - visibility * cos_phi)
    if cos_phi < -0.5:
        half = math.cos(0.5 * phi)
        p_plus = 0.5 * (1.0 - visibility) + visibility * half * half
    elif cos_phi > 0.5:
        half = math.sin(0.5 * phi)
        p_minus = 0.5 * (1.0 - visibility) + visibility * half * half
    return p_plus, p_minus
