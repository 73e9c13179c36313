"""Single-photon two-path interferometer: detection probabilities and sampling.

Covers the fringe law (1 +- V cos(phi))/2 of the two ports, whose halves are
the ideal Franson pair's joint law (:mod:`bellsim.entangle`); its wave-packet
generalization by integration over a source spectrum, and the contrast
that a rectangular spectrum gives that fringe at unit delay; classification of
the interference regime by the ratio of coherence time to a finite path
delay; the alternative independent-detectors model (which produces double
counts and missed counts); and seeded multinomial event sampling.  A general
splitter's port law, whose halves give the pair measured by that splitter,
is :func:`bellsim.measurement.outcome_probabilities`.
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


def _fringe(phi: float, visibility: float = 1.0) -> tuple[float, float]:
    """Ports (p_plus, p_minus) = (1 +- V cos(phi))/2 of the fringe law.

    Where cos(phi) > 1/2, p_minus is (1 - V)/2 + V sin^2(phi/2), and where
    cos(phi) < -1/2, p_plus is (1 - V)/2 + V cos^2(phi/2), so no digits
    cancel and no rounded distance to pi enters: p_plus(math.pi) is
    cos^2(math.pi/2) = 3.7e-33, not 0.  Equals :func:`fringe_probabilities`
    bit for bit."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
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


def fringe_probabilities(phi: np.ndarray, visibility: float = 1.0) -> np.ndarray:
    """The fringe law's (2, M) array (p_plus, p_minus) at the phases ``phi``."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    cos_phi = np.cos(phi)
    # sin(phi/2) serves p_minus's branch, cos(phi/2) p_plus's
    half = np.where(cos_phi >= 0.0, np.sin(0.5 * phi), np.cos(0.5 * phi))
    half_angle_form = 0.5 * (1.0 - visibility) + visibility * half * half
    p_plus = np.where(cos_phi < -0.5, half_angle_form, 0.5 * (1.0 + visibility * cos_phi))
    p_minus = np.where(cos_phi > 0.5, half_angle_form, 0.5 * (1.0 - visibility * cos_phi))
    return np.array((p_plus, p_minus))


def probability_monochromatic(a: int, phi: float) -> float:
    """Fringe law (1 + a*cos(phi)) / 2 for outcome a in {+1, -1}."""
    if a not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {a!r}")
    return _fringe(phi)[0 if a == 1 else 1]


def probability_wavepacket(a: int, cfg: InterferometerConfig, tol: float = 1e-10) -> float:
    """Fringe probability averaged over the source spectrum.

    Equals the monochromatic law when bandwidth*delay -> 0 and washes out to
    1/2 when a rectangular spectrum spans a full 2*pi of relative phase.
    """
    if a not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {a!r}")
    tau = cfg.path_delay_tau
    fringe = integrate_over_spectrum(cfg.source, lambda w: np.cos(w * tau), tol)
    p = 0.5 * (1.0 + a * fringe)
    return min(max(p, 0.0), 1.0)


def wavepacket_contrast(bandwidth: float, tol: float = 1e-10) -> float:
    """Fringe contrast of a wave packet whose rectangular spectrum of
    ``bandwidth`` meets a unit path delay.

    It is the mean of cos(u) over the offsets u of the spectrum from its
    center, sin(x)/x at x = bandwidth/2: one quadrature over a signed
    spectrum centered at 0.0, to ``tol``, clamped to [-1, 1] because its sum
    can round to 1 + 2.2e-16.  Zero bandwidth gives 1.0.  The density is
    even about its center, so the mean of sin(u) vanishes and the packet's
    fringe at center phase phi is the contrast times cos(phi): its ports are
    (1 +- c cos(phi))/2, the fringe law at visibility |c| with the two ports
    swapped where c < 0 (2*pi < bandwidth < 4*pi, for one).
    """
    if bandwidth == 0.0:
        return 1.0
    offsets = Spectrum(shape="rectangular", center=0.0, bandwidth=bandwidth, signed=True)
    return min(max(integrate_over_spectrum(offsets, np.cos, tol), -1.0), 1.0)


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


def quantum_detection_distribution(phi: float) -> DetectionDistribution:
    """Exactly-one-count distribution at the monochromatic fringe probabilities."""
    p_plus, p_minus = _fringe(phi)
    return DetectionDistribution(p_plus=p_plus, p_minus=p_minus, p_double=0.0, p_null=0.0)


def local_detection_distribution(phi: float) -> DetectionDistribution:
    """Independent-detectors model: each detector clicks with its own marginal.

    D(+) fires with probability p = (1+cos(phi))/2 and D(-) independently
    with q = (1-cos(phi))/2, so a quarter of the runs at phi = pi/2 give two
    counts and a quarter give none.
    """
    p, q = _fringe(phi)
    return DetectionDistribution(
        p_plus=p * p,           # D(+) fires, D(-) stays silent (prob 1-q = p)
        p_minus=q * q,
        p_double=p * q,
        p_null=q * p,
    )


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
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n!r}")
    for name, value in (("seed", seed), ("stream", stream)):
        if not isinstance(value, int) or not 0 <= value < 2 ** 64:
            raise ValueError(f"{name} must be a non-negative 64-bit integer, got {value!r}")
    probs = np.array(dist.as_tuple(), dtype=float)
    probs = probs / probs.sum()  # exact zeros stay zero
    counts = _keyed_generator(seed, stream).multinomial(n, probs)
    return EventCounts(*counts.tolist())
