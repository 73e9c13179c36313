"""Single-photon two-path interferometer: detection probabilities and sampling.

Covers the fringe law (1 +- V cos(phi))/2 of the two ports, whose halves are
the ideal Franson pair's joint law (:mod:`bellsim.entangle`): one array law,
:func:`fringe_probabilities`, which every scalar view calls at its one
phase; its wave-packet generalization, the fringe at the carrier phase with
a contrast integrated over the spectrum's offsets from its center, and that
contrast for a rectangular spectrum at unit delay; classification of the
interference regime by the ratio of coherence time to a finite path delay;
the detection laws of the two ports, exactly one count or the alternative
independent-detectors model (which produces double counts and missed
counts); and seeded multinomial event sampling.  A general splitter's port
law, whose halves give the pair measured by that splitter, is
:func:`bellsim.measurement.outcome_probabilities`.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass

import numpy as np

from .probability import check_distribution
from .spectra import RATIO_THRESHOLD, Spectrum, coherence_time, integrate_over_spectrum


class InterferenceRegime(str, enum.Enum):
    INTERFERING = "interfering"
    PARTICLE_LIKE = "particle_like"
    INTERMEDIATE = "intermediate"


@dataclass(frozen=True)
class InterferometerConfig:
    """Arm-delay difference (seconds) and source spectrum; outcomes are +-1."""

    path_delay_tau: float
    source: Spectrum

    def __post_init__(self):
        if not 0.0 <= self.path_delay_tau < math.inf:
            raise ValueError(f"path delay must be finite and >= 0, got {self.path_delay_tau!r}")


@dataclass(frozen=True)
class DetectionDistribution:
    """Probabilities of the four per-run counting patterns.

    ``p_plus``/``p_minus`` are single counts in D(+)/D(-), ``p_double`` a
    count in both detectors, ``p_null`` no count at all.  A single photon
    conserving energy per run has ``p_double == p_null == 0``.
    """

    p_plus: float
    p_minus: float
    p_double: float
    p_null: float

    def __post_init__(self):
        check_distribution((self.p_plus, self.p_minus, self.p_double, self.p_null))

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_plus, self.p_minus, self.p_double, self.p_null)


@dataclass(frozen=True)
class EventCounts:
    """Multinomial counts per detection category."""

    n_plus: int
    n_minus: int
    n_double: int
    n_null: int

    @property
    def total(self) -> int:
        return self.n_plus + self.n_minus + self.n_double + self.n_null


def fringe_probabilities(phi: np.ndarray, visibility: float = 1.0) -> np.ndarray:
    """The fringe law's (2, M) array (p_plus, p_minus) = (1 +- V cos(phi))/2
    at the phases ``phi``.  Where cos(phi) > 1/2, p_minus is taken as
    (1 - V)/2 + V sin^2(phi/2), and where cos(phi) < -1/2, p_plus as
    (1 - V)/2 + V cos^2(phi/2): no digits cancel, and no rounded distance
    to pi enters (p_plus(math.pi) is cos^2(math.pi/2) = 3.7e-33, not 0)."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    cos_phi = np.cos(phi)
    half = np.where(cos_phi >= 0.0, np.sin(0.5 * phi), np.cos(0.5 * phi))
    half_angle_form = 0.5 * (1.0 - visibility) + visibility * half * half
    p_plus = np.where(cos_phi < -0.5, half_angle_form, 0.5 * (1.0 + visibility * cos_phi))
    p_minus = np.where(cos_phi > 0.5, half_angle_form, 0.5 * (1.0 - visibility * cos_phi))
    return np.array((p_plus, p_minus))


def _ports(phi: float, visibility: float = 1.0) -> list[float]:
    """[p_plus, p_minus] of :func:`fringe_probabilities` at one phase; an
    infinite ``phi`` raises ValueError and NaN gives NaN ports, with no warning."""
    if math.isinf(phi):
        raise ValueError(f"phi must not be infinite, got {phi!r}")
    return fringe_probabilities(np.array([phi], dtype=float), visibility)[:, 0].tolist()


def probability_monochromatic(a: int, phi: float) -> float:
    """Fringe law (1 + a*cos(phi)) / 2 for outcome a in {+1, -1}."""
    if a not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {a!r}")
    return _ports(phi)[0 if a == 1 else 1]


def wavepacket_ports(phi: np.ndarray, contrast: float) -> np.ndarray:
    """The (2, M) ports (1 +- contrast*cos(phi))/2 of a wave packet at the
    carrier phases ``phi``: the fringe law at visibility |contrast|, with
    its ports swapped where the contrast is negative."""
    p = fringe_probabilities(phi, abs(contrast))
    return p[::-1] if contrast < 0.0 else p


def _contrast(shape: str, bandwidth: float, tau: float, tol: float) -> float:
    """Mean of cos(u*tau) over the offsets u of a spectrum from its center:
    one quadrature over the spectrum re-centered at 0.0, to ``tol``, clamped
    to [-1, 1].  Each pass's sum is exact, so a rectangle of bandwidth
    2.79e-9 or 7.0e-10 gives 1.0 and one of 1e-300 gives 1 - 1.1e-16; but
    the normalization 1/bandwidth and its product with that sum each round,
    so nothing bounds the result by 1, and the clamp stays."""
    offsets = Spectrum(shape=shape, center=0.0, bandwidth=bandwidth, signed=True)
    return min(max(integrate_over_spectrum(offsets, lambda u: np.cos(u * tau), tol), -1.0), 1.0)


def probability_wavepacket(a: int, cfg: InterferometerConfig, tol: float = 1e-10) -> float:
    """Fringe probability averaged over the source spectrum.

    Every density is even about its center, so the packet's fringe is the
    carrier's, cos(center*tau), times the contrast of the offsets from the
    center: the port of :func:`wavepacket_ports` at the carrier phase
    center*tau.  No phase is taken at an absolute frequency, so no digits
    are lost as the center grows.  Equals the monochromatic law when
    bandwidth*delay -> 0 and washes out to 1/2 when a rectangular spectrum
    spans a full 2*pi of relative phase.
    """
    if a not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {a!r}")
    source, tau = cfg.source, cfg.path_delay_tau
    contrast = _contrast(source.shape, source.bandwidth, tau, tol)
    return wavepacket_ports(np.array([source.center * tau]), contrast)[0 if a == 1 else 1].item()


def wavepacket_contrast(bandwidth: float, tol: float = 1e-10) -> float:
    """Fringe contrast of a wave packet whose rectangular spectrum of
    ``bandwidth`` meets a unit path delay: the contrast of
    :func:`probability_wavepacket`, sin(x)/x at x = bandwidth/2.  Zero
    bandwidth gives 1.0.  It is negative where 2*pi < bandwidth < 4*pi, for
    one, and :func:`wavepacket_ports` then swaps the two ports.
    """
    if bandwidth == 0.0:
        return 1.0
    return _contrast("rectangular", bandwidth, 1.0, tol)


def classify_interference(cfg: InterferometerConfig) -> InterferenceRegime:
    """Regime by tau_c / tau: interfering from :data:`~bellsim.spectra.RATIO_THRESHOLD`
    up, particle-like at or below 1; zero path delay counts as interfering."""
    if cfg.path_delay_tau == 0.0:
        return InterferenceRegime.INTERFERING
    ratio = coherence_time(cfg.source) / cfg.path_delay_tau
    if ratio >= RATIO_THRESHOLD:
        return InterferenceRegime.INTERFERING
    if ratio <= 1.0:
        return InterferenceRegime.PARTICLE_LIKE
    return InterferenceRegime.INTERMEDIATE


def _quantum_detection(p: float, q: float) -> DetectionDistribution:
    """Exactly one count, in D(+) with the port probability p, else in D(-)."""
    return DetectionDistribution(p_plus=p, p_minus=q, p_double=0.0, p_null=0.0)


def _local_detection(p: float, q: float) -> DetectionDistribution:
    """D(+) fires with the port probability p and D(-) independently with q."""
    # p_plus: D(+) fires and D(-) stays silent, with probability 1 - q = p
    return DetectionDistribution(p_plus=p * p, p_minus=q * q, p_double=p * q, p_null=q * p)


def quantum_detection_distribution(phi: float) -> DetectionDistribution:
    """Exactly-one-count distribution at the monochromatic fringe probabilities."""
    return _quantum_detection(*_ports(phi))


def local_detection_distribution(phi: float) -> DetectionDistribution:
    """Independent-detectors model: each detector clicks with its own marginal.

    D(+) fires with probability p = (1+cos(phi))/2 and D(-) independently
    with q = (1-cos(phi))/2, so a quarter of the runs at phi = pi/2 give two
    counts and a quarter give none.
    """
    return _local_detection(*_ports(phi))


# Each thread's generator for sample_events, and the zero counter and empty
# buffer of a fresh Philox state (the setter copies them).
_generators = threading.local()
_ZEROS = np.zeros(4, dtype=np.uint64)


def _keyed_generator(seed: int, stream: int) -> np.random.Generator:
    """This thread's generator, re-keyed to (seed, stream) at counter 0 with
    an empty buffer: the stream of a fresh ``Philox(key=[seed, stream])``."""
    rng = getattr(_generators, "rng", None)
    if rng is None:
        rng = _generators.rng = np.random.Generator(np.random.Philox(0))
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.array([seed, stream], dtype=np.uint64)},
        "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    return rng


def _is_integer(value) -> bool:
    """A Python or numpy integer; neither bool type is one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def sample_events(
    dist: DetectionDistribution, n: int, seed: int, stream: int = 0
) -> EventCounts:
    """Multinomial sample of n runs; deterministic for fixed (seed, stream).

    Concurrent scans must pass distinct ``stream`` indices derived from task
    coordinates rather than share a generator; (seed, stream) keys a
    counter-based generator, so any assignment of streams to tasks yields
    reproducible, independent counts.  Each thread holds one Philox
    generator and re-keys it per call, which gives the counts of a fresh
    ``Generator(Philox(key=[seed, stream]))``: the generator's only other
    state, its binomial cache, is a function of the (n, p) it is asked for.
    """
    if not (_is_integer(n) and n > 0):
        raise ValueError(f"sample size must be a positive integer, got {n!r}")
    for name, value in (("seed", seed), ("stream", stream)):
        if not (_is_integer(value) and 0 <= value < 2 ** 64):
            raise ValueError(f"{name} must be a non-negative 64-bit integer, got {value!r}")
    probs = np.array(dist.as_tuple(), dtype=float)
    probs = probs / probs.sum()  # exact zeros stay zero
    counts = _keyed_generator(seed, stream).multinomial(n, probs)
    return EventCounts(*counts.tolist())
