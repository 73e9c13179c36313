"""Beam-splitter measurements as 2x2 complex matrices.

Amplitudes combine as

    out_plus  = a11 * L * exp(i*phi) + a21 * S
    out_minus = a12 * L * exp(i*phi) + a22 * S

so the entry ``a_ij`` feeds input path i (1 = long, 2 = short) into output
port j (1 = +, 2 = -).  Summing the two output probabilities gives

    total = |L|^2 (|a11|^2 + |a12|^2) + |S|^2 (|a21|^2 + |a22|^2)
            + 2 Re(L S* (a11 a21* + a12 a22*) exp(i*phi))

Exactly one count per photon at every phase therefore requires the cross
term a11 a21* + a12 a22* to vanish and each input path's output amplitudes
to have unit norm -- i.e. the matrix must be unitary.  Non-unitary matrices
are representable on purpose and their outputs are never renormalized: the
point of this module is to let such violations surface.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

# The standard interferometer, mach_zehnder_effective(pi/2), is
# [[i, 1], [i, -1]] / sqrt2.  Its exact port phases by input path and
# outcome; scaling them (not the rounded 1/sqrt2 entries) keeps derived
# coefficients exact.
STANDARD_PORT_PHASES = {"long": {+1: 1j, -1: 1 + 0j}, "short": {+1: 1j, -1: -1 + 0j}}


@dataclass(frozen=True)
class MeasurementMatrix:
    a11: complex
    a12: complex
    a21: complex
    a22: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=complex)

    @classmethod
    def from_array(cls, m) -> "MeasurementMatrix":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
        return cls(a11=complex(m[0, 0]), a12=complex(m[0, 1]),
                   a21=complex(m[1, 0]), a22=complex(m[1, 1]))


@dataclass(frozen=True)
class PathAmplitudes:
    """Complex amplitudes of the long and short paths, normalized to 1."""

    L: complex
    S: complex

    def __post_init__(self):
        norm = abs(self.L) ** 2 + abs(self.S) ** 2
        if not abs(norm - 1.0) <= 1e-12:
            raise ValueError(f"|L|^2 + |S|^2 = {norm!r}, expected 1")

    @classmethod
    def balanced(cls) -> "PathAmplitudes":
        return cls(L=complex(_INV_SQRT2), S=complex(_INV_SQRT2))


@dataclass(frozen=True)
class SplitterOutcome:
    """Output-port probabilities; ``total`` is reported, never clamped."""

    p_plus: float
    p_minus: float

    @property
    def total(self) -> float:
        return self.p_plus + self.p_minus


@dataclass(frozen=True)
class MeasurementValidation:
    valid: bool
    residual: float
    # Output-amplitude norm per input path (long, short); both 1 for unitary.
    path_norms: tuple[float, float]


def unitarity_residual(m: MeasurementMatrix) -> float:
    """|a11 conj(a21) + a12 conj(a22)|; zero iff the cross term cancels."""
    return abs(m.a11 * m.a21.conjugate() + m.a12 * m.a22.conjugate())


def outcome_probabilities(
    m: MeasurementMatrix, amps: PathAmplitudes, phi: np.ndarray
) -> np.ndarray:
    """Port probabilities (p_plus, p_minus) at every phase of ``phi``, as a
    (2, M) array, with the phase applied to the long-path amplitude.

    The amplitudes are combined in real arithmetic, term by term as complex
    multiplication rounds them, and each modulus is squared as the IEEE
    product ``abs(z) * abs(z)``, which rounds correctly on every host and
    SIMD kernel, so a point gets the bits of that complex expression.  A
    non-finite phase is rejected with the message of the first one.
    """
    return _port_law(_ports(m, amps), amps.L, phi)


def outcome_probabilities_by_point(
    matrices: list[MeasurementMatrix], which: np.ndarray, amps: PathAmplitudes,
    phi: np.ndarray
) -> np.ndarray:
    """Port probabilities as a (2, M) array, the phase ``phi[i]`` measured by
    ``matrices[which[i]]``: the bits of :func:`outcome_probabilities` of
    each matrix at its points, from one array evaluation."""
    ports = np.array([_ports(m, amps) for m in matrices])[which]
    return _port_law(np.moveaxis(ports, 0, -1), amps.L, phi)


def _ports(m: MeasurementMatrix, amps: PathAmplitudes) -> tuple:
    """Per port, the coefficient of the long-path amplitude and the short
    path's amplitude there."""
    return (m.a11, m.a21 * amps.S), (m.a12, m.a22 * amps.S)


def _port_law(ports, long: complex, phi) -> np.ndarray:
    """The probability of each port of ``ports`` at every phase of ``phi``;
    a port's coefficients are scalars or one value per phase."""
    phi = np.asarray(phi, dtype=float)
    finite = np.isfinite(phi)
    if not finite.all():
        raise ValueError(f"phi must be finite, got {phi[~finite][0].item()!r}")
    cos, sin = np.cos(phi), np.sin(phi)
    long_re = long.real * cos - long.imag * sin  # L * exp(i phi)
    long_im = long.real * sin + long.imag * cos
    return np.stack([_port_probability(a, short, long_re, long_im) for a, short in ports])


def _port_probability(a, short, long_re: np.ndarray, long_im: np.ndarray) -> np.ndarray:
    """|a * long + short|^2 at every long-path amplitude, the square an
    IEEE product; ``a`` and ``short`` are complex scalars or arrays."""
    modulus = np.hypot(a.real * long_re - a.imag * long_im + short.real,
                       a.real * long_im + a.imag * long_re + short.imag)
    return modulus * modulus


def outcome_distribution(
    m: MeasurementMatrix, amps: PathAmplitudes, phi: float
) -> SplitterOutcome:
    """Port probabilities at one phase: :func:`outcome_probabilities` at one
    point."""
    p_plus, p_minus = outcome_probabilities(m, amps, [phi])[:, 0].tolist()
    return SplitterOutcome(p_plus=p_plus, p_minus=p_minus)


def is_valid_quantum_measurement(
    m: MeasurementMatrix, tol: float = 1e-10
) -> MeasurementValidation:
    """Cross-term residual and per-path norms, each checked against tol.

    The residual alone is what the one-count condition derives; the unit
    norms complete full unitarity.  They are reported separately.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    residual = unitarity_residual(m)
    norm_long = math.sqrt(abs(m.a11) ** 2 + abs(m.a12) ** 2)
    norm_short = math.sqrt(abs(m.a21) ** 2 + abs(m.a22) ** 2)
    valid = (
        residual <= tol
        and abs(norm_long - 1.0) <= tol
        and abs(norm_short - 1.0) <= tol
    )
    return MeasurementValidation(valid=valid, residual=residual,
                                 path_norms=(norm_long, norm_short))


def symmetric_beam_splitter() -> MeasurementMatrix:
    """50/50 splitter with i reflection phase: (1/sqrt2) [[1, i], [i, 1]]."""
    return MeasurementMatrix(a11=_INV_SQRT2, a12=1j * _INV_SQRT2,
                             a21=1j * _INV_SQRT2, a22=_INV_SQRT2)


def hadamard_beam_splitter() -> MeasurementMatrix:
    """Real orthogonal 50/50 splitter: (1/sqrt2) [[1, 1], [1, -1]]."""
    return MeasurementMatrix(a11=_INV_SQRT2, a12=_INV_SQRT2,
                             a21=_INV_SQRT2, a22=-_INV_SQRT2)


def mach_zehnder_effective(reflection_phase: float) -> MeasurementMatrix:
    """Effective matrix of a balanced two-splitter interferometer whose
    mirrors/splitters imprint ``reflection_phase`` on each reflection.

    At the physical value pi/2 the matrix is unitary and reproduces the
    complementary fringes (1 +- cos(phi))/2.  Other values model hypothetical
    splitters; the output ports then read (1 + cos(phi))/2 and
    (1 + cos(phi - 2*reflection_phase))/2, whose sum oscillates around 1.
    """
    if not math.isfinite(reflection_phase):
        raise ValueError(f"reflection_phase must be finite, got {reflection_phase!r}")
    r = cmath.exp(1j * reflection_phase)
    return MeasurementMatrix(
        a11=r * _INV_SQRT2, a12=_INV_SQRT2,
        a21=r * _INV_SQRT2, a22=r * r * _INV_SQRT2,
    )


def pi_quarter_model() -> MeasurementMatrix:
    """The pi/4-reflection counterexample: ports read (1+cos)/2 and (1+sin)/2,
    so the total exceeds 1 at phi = pi/4 and the matrix fails the cross-term
    condition."""
    return mach_zehnder_effective(math.pi / 4.0)
