"""Spectral densities, coherence times, and frequency integration.

A :class:`Spectrum` is a normalized density over angular frequency with a
characteristic bandwidth.  Everything downstream (wave-packet interference,
two-photon coherence factors) reduces to weighted integrals of smooth
oscillatory functions against these densities.  The centered cosine
integral, the envelope, has a closed form for both shapes and is
:meth:`Spectrum.envelope`; the two-photon coherence factors use nothing
else.  Any other integrand goes through :func:`integrate_over_spectrum`:
adaptive panel-based Gauss-Legendre quadrature with a hard node budget.
Its nodes are offsets from the spectrum's center, at which the density is
evaluated, so a narrow spectrum keeps full resolution at an optical center
frequency; the integrand receives the absolute frequencies center + offset.

All functions are pure; there is no shared mutable state.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

# CODATA / SI exact values.
PLANCK_CONSTANT = 6.62607015e-34  # J s
HBAR = PLANCK_CONSTANT / (2.0 * math.pi)
SPEED_OF_LIGHT = 299792458.0  # m / s

# Gaussian densities are truncated at +- this many bandwidths.
GAUSSIAN_TRUNCATION = 5.0

_GL_ORDER = 16
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)
_DEFAULT_NODE_BUDGET = 2 ** 16


class SpectrumShape(str, enum.Enum):
    RECTANGULAR = "rectangular"
    GAUSSIAN = "gaussian"


class IntegrationError(RuntimeError):
    """Quadrature did not reach the requested tolerance within the node budget."""

    def __init__(self, value: float, error_estimate: float, nodes_used: int, tol: float):
        self.value = value
        self.error_estimate = error_estimate
        self.nodes_used = nodes_used
        self.tol = tol
        super().__init__(
            f"integration did not converge: estimated error {error_estimate:.3e} "
            f"> tol {tol:.3e} after {nodes_used} nodes (value so far {value!r})"
        )


@dataclass(frozen=True)
class Spectrum:
    """Normalized spectral density over angular frequency.

    ``bandwidth`` is the full width of the rectangular density or the
    FWHM-equivalent width of the gaussian one.  ``signed`` permits supports
    extending below zero; it is meant for frequency *offset* densities
    (e.g. the down-conversion detuning), where negative values are physical.
    """

    shape: SpectrumShape
    center: float
    bandwidth: float
    signed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "shape", SpectrumShape(self.shape))
        if not self.bandwidth > 0.0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth!r}")
        if not self.signed and not self.center > self.bandwidth / 2.0:
            raise ValueError(
                f"center {self.center!r} must exceed bandwidth/2 "
                f"({self.bandwidth / 2.0!r}) to keep the support positive"
            )

    @property
    def half_width(self) -> float:
        """Half the width of the support, which is symmetric about the center."""
        if self.shape is SpectrumShape.RECTANGULAR:
            return self.bandwidth / 2.0
        return GAUSSIAN_TRUNCATION * self.bandwidth

    @property
    def support(self) -> tuple[float, float]:
        half = self.half_width
        return (self.center - half, self.center + half)

    @property
    def normalization(self) -> float:
        """K such that K * integral of density(w) dw = 1 (closed form)."""
        if self.shape is SpectrumShape.RECTANGULAR:
            return 1.0 / self.bandwidth
        # integral of exp(-4 ln2 x^2 / w^2) over [-5w, 5w]
        a = 4.0 * math.log(2.0) / self.bandwidth ** 2
        full = math.sqrt(math.pi / a) * math.erf(GAUSSIAN_TRUNCATION * self.bandwidth * math.sqrt(a))
        return 1.0 / full

    def density(self, offset: np.ndarray) -> np.ndarray:
        """Unnormalized density at ``offset`` = w - center inside the support.

        Both shapes are even in the offset.
        """
        if self.shape is SpectrumShape.RECTANGULAR:
            return np.ones_like(offset)
        x = offset / self.bandwidth
        return np.exp(-4.0 * math.log(2.0) * x * x)

    def envelope(self, gamma: float) -> float:
        """K * integral of cos(gamma*(w - center)) against the density, in
        closed form.

        The rectangle gives sin(x)/x with x = gamma*bandwidth/2, and 1.0 at
        x = 0.  The gaussian gives exp(-gamma^2 bandwidth^2 / (16 ln 2)), the
        transform of the untruncated density: the truncation at
        +-GAUSSIAN_TRUNCATION bandwidths cuts where the density is 2^-100,
        which changes nothing at double precision.  Both densities are even
        about the center, so the matching sine integral is zero and the
        envelope is real and exactly even in gamma.
        """
        if self.shape is SpectrumShape.RECTANGULAR:
            x = 0.5 * gamma * self.bandwidth
            return math.sin(x) / x if x else 1.0
        g = gamma * self.bandwidth
        return math.exp(-g * g / (16.0 * math.log(2.0)))


@dataclass(frozen=True)
class CoherenceTime:
    """Uncertainty in the time of emission, 2*pi / bandwidth."""

    tau_c: float

    def __post_init__(self):
        if not self.tau_c > 0.0:
            raise ValueError(f"coherence time must be positive, got {self.tau_c!r}")


def coherence_time(spectrum: Spectrum) -> CoherenceTime:
    """Coherence time 2*pi/bandwidth (equivalently 1/bandwidth-in-Hz)."""
    return CoherenceTime(tau_c=2.0 * math.pi / spectrum.bandwidth)


def heisenberg_product(
    spectrum: Spectrum,
    tau_c: float | None = None,
    h: float = PLANCK_CONSTANT,
) -> float:
    """Product of emission-time uncertainty and energy spread, tau_c * hbar * dw.

    With the minimal coherence time (the default) the product equals ``h``
    exactly; any admissible larger ``tau_c`` scales it up.  ``h`` is
    overridable for natural-unit tests only.
    """
    minimum = 2.0 * math.pi / spectrum.bandwidth
    if tau_c is None:
        tau_c = minimum
    elif tau_c < minimum * (1.0 - 1e-12):
        raise ValueError(
            f"tau_c {tau_c!r} below the minimum 2*pi/bandwidth = {minimum!r}"
        )
    hbar = h / (2.0 * math.pi)
    return tau_c * hbar * spectrum.bandwidth


def integrate_over_spectrum(
    spectrum: Spectrum,
    f: Callable[[np.ndarray], np.ndarray],
    tol: float = 1e-10,
    node_budget: int = _DEFAULT_NODE_BUDGET,
) -> float:
    """Integral of f(w) against the normalized density, to absolute error <= tol.

    ``f`` must accept a 1-D numpy array of absolute frequencies and be
    bounded on the support.  The Gauss-Legendre nodes are built as offsets
    u in [-half_width, half_width] from the center; the density is evaluated
    at u (a gaussian one folded into the weights, a rectangular one skipped)
    and ``f`` at center + u.  Panels are doubled until two successive
    refinements agree within ``tol``; exceeding ``node_budget`` nodes in a
    single pass raises :class:`IntegrationError` with the achieved error
    estimate.  Fixed panel/node layout keeps results deterministic.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    half = spectrum.half_width
    center = spectrum.center
    k = spectrum.normalization
    weighted = spectrum.shape is not SpectrumShape.RECTANGULAR

    def one_pass(n_panels: int) -> float:
        # Equal panels of half-width h centered at h*(1 - n), h*(3 - n), ...,
        # h*(n - 1): the nodes are exactly symmetric about the center.
        h = half / n_panels
        offsets = h * (np.arange(1 - n_panels, n_panels, 2.0)[:, None] + _GL_NODES).ravel()
        weights = np.tile(h * _GL_WEIGHTS, n_panels)
        if weighted:
            weights *= spectrum.density(offsets)
        return k * float(np.dot(weights, f(center + offsets)))

    n_panels = 4
    previous = one_pass(n_panels)
    error_estimate = math.inf
    while n_panels * 2 * _GL_ORDER <= node_budget:
        n_panels *= 2
        current = one_pass(n_panels)
        error_estimate = abs(current - previous)
        if error_estimate <= tol:
            return current
        previous = current
    raise IntegrationError(previous, error_estimate, n_panels * _GL_ORDER, tol)
