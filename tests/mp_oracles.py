"""High-precision oracles shared by the test modules."""

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
