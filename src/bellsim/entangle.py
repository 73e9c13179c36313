"""Two-photon interference with unbalanced interferometer pairs.

A pump line at angular frequency w down-converts into a photon pair at
w/2 + w_off and w/2 - w_off; each photon traverses its own long/short
interferometer.  Of the four two-photon path classes (ll, ss, ls, sl) only
ll and ss arrive coincident when the delays are matched, and their
interference carries the nonlocal fringe.  The module provides

* the idealized maximally-entangled joint distribution, pointwise and as
  an array: the one-photon fringe law at detection, halved,
* correlation models: array rules validated once per batch, the only
  representation of a joint distribution over setting phases,
* the full four-path spectral model with per-pair coherence factors and
  coincidence-window post-selection, as one array law over side B's delay
  and the window (:func:`physical_joint_probabilities`), total over the
  rows (a row that overflows is a NaN column; only an input outside its
  domain raises), whose one-point view is
  :func:`physical_joint_distribution`; each factor is a product of two
  closed-form envelopes, real because every spectral density is even about
  its center, and the fringe visibility is read from the harmonic of a
  phase on one long arm, with no quadrature,
* the coherence-ratio checks that the ideal limit requires, each against
  :data:`~bellsim.spectra.RATIO_THRESHOLD`,
* no-signaling diagnostics on correlation models, and
* the two-photon counterpart of the beam-splitter unitarity condition: the
  pair whose side B is measured by any splitter matrix, whose joint law is
  half the single-photon port law
  :func:`~bellsim.measurement.outcome_probabilities` of that matrix.

Everything is a pure function of its inputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .interferometer import _ports, fringe_probabilities
from .measurement import (_INV_SQRT2, STANDARD_PORT_PHASES, MeasurementMatrix, PathAmplitudes,
                          outcome_probabilities)
from .probability import check_batch, check_distribution
from .spectra import RATIO_THRESHOLD, Spectrum, coherence_time


ArrayRule = Callable[[np.ndarray, np.ndarray], np.ndarray]
DifferenceLaw = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class JointDistribution:
    """Joint outcome probabilities p(a, b) for a, b in {+1, -1}."""

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self):
        check_distribution((self.p_pp, self.p_pm, self.p_mp, self.p_mm), "joint probabilities")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p_pp, self.p_pm, self.p_mp, self.p_mm)

    @property
    def p_equal(self) -> float:
        return self.p_pp + self.p_mm

    @property
    def p_differ(self) -> float:
        return self.p_pm + self.p_mp


@dataclass(frozen=True)
class CorrelationModel:
    """A named array rule mapping pairs of setting phases to joint probabilities.

    ``probabilities(phi_a, phi_b)`` takes two float arrays of shape (M,) and
    returns the (4, M) array of p(+,+), p(+,-), p(-,+), p(-,-) per pair;
    :func:`joint_probabilities` validates it.  :meth:`rule` is the scalar
    view of one pair.

    A rotation-invariant model also carries its law as a function of the
    phase difference: ``difference(d)`` maps a float array d = phi_a - phi_b
    of shape (M,) to the (4, M) law, whose column m depends on d[m] alone.
    Only :meth:`of_difference` sets it, and it derives ``probabilities``
    from the law, so the two views cannot disagree;
    :func:`~bellsim.bell.chained_I` sums a chain of such a model from its
    distinct differences.  Every other model, such as a deterministic
    strategy or the pair of :func:`bob_measurement_rule` (a law of
    phi_a + phi_b), leaves ``difference`` None.
    """

    name: str
    probabilities: ArrayRule
    difference: DifferenceLaw | None = field(default=None, init=False)

    @classmethod
    def of_difference(cls, name: str, law: DifferenceLaw) -> CorrelationModel:
        """The model whose law at (phi_a, phi_b) is ``law(phi_a - phi_b)``,
        the only constructor that sets ``difference``."""

        def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
            return law(phi_a - phi_b)

        model = cls(name, probabilities)
        object.__setattr__(model, "difference", law)  # a frozen field
        return model

    def rule(self, phi_a: float, phi_b: float) -> JointDistribution:
        p = self.probabilities(np.array([phi_a], dtype=float), np.array([phi_b], dtype=float))
        return JointDistribution(*p[:, 0].tolist())


@dataclass(frozen=True)
class FransonConfig:
    """Pump and offset spectra plus the two interferometer delays.

    ``coincidence_window`` selects which arrival-time classes survive
    post-selection; ``None`` keeps everything (no post-selection).
    """

    pump: Spectrum
    photon_offset: Spectrum
    tau_a: float
    tau_b: float
    coincidence_window: float | None = None

    def __post_init__(self):
        _check_delays("tau_a", self.tau_a)
        _check_delays("tau_b", self.tau_b)
        if self.coincidence_window is not None:
            _check_delays("coincidence window", self.coincidence_window)


@dataclass(frozen=True)
class EntanglementConditions:
    satisfied: bool
    ratios: Mapping[str, float]
    failing: tuple[str, ...]


@dataclass(frozen=True)
class FransonResult:
    distribution: JointDistribution
    visibility: float
    mean_phase: float
    kept_classes: tuple[str, ...]


def downconverted_frequencies(cfg: FransonConfig) -> tuple[float, float]:
    """Center frequencies w/2 +- w_off; their sum equals w exactly."""
    return _center_frequencies(cfg.pump, cfg.photon_offset)


def _center_frequencies(pump: Spectrum, photon_offset: Spectrum) -> tuple[float, float]:
    w = pump.center
    w_off = photon_offset.center
    if abs(w_off) >= w / 2.0:
        raise ValueError(
            f"offset {w_off!r} must satisfy |offset| < pump/2 = {w / 2.0!r}: "
            "a down-converted frequency would be negative"
        )
    # Larger frequency first, partner by exact subtraction (Sterbenz).
    if w_off >= 0.0:
        w_a = w / 2.0 + w_off
        w_b = w - w_a
    else:
        w_b = w / 2.0 - w_off
        w_a = w - w_b
    return (w_a, w_b)


def check_entanglement_conditions(cfg: FransonConfig) -> EntanglementConditions:
    """Coherence hierarchy for the ideal limit: tau_c >> tau >> tau_c_off >> |dtau|.

    Ratios: pump coherence time over the larger delay, that delay over the
    offset coherence time, and the offset coherence time over the delay
    mismatch (infinite for exactly matched delays).  All must reach
    :data:`~bellsim.spectra.RATIO_THRESHOLD`.
    """
    tau = max(cfg.tau_a, cfg.tau_b)
    tau_c = coherence_time(cfg.pump)
    tau_c_off = coherence_time(cfg.photon_offset)
    mismatch = abs(cfg.tau_a - cfg.tau_b)
    ratios = {
        "pump_coherence": tau_c / tau if tau > 0.0 else math.inf,
        "offset_incoherence": tau / tau_c_off,
        "delay_balance": tau_c_off / mismatch if mismatch > 0.0 else math.inf,
    }
    failing = tuple(name for name, r in ratios.items() if r < RATIO_THRESHOLD)
    return EntanglementConditions(satisfied=not failing, ratios=ratios, failing=failing)


def ideal_joint_distribution(phi: float, visibility: float = 1.0) -> JointDistribution:
    """Maximally-entangled joint law with optional fringe contrast V.

    Concordance and discordance are the ports (1 +- V cos(phi))/2 of the
    single-photon fringe law, each split in exact halves over its two
    outcome pairs, so both marginals are 1/2."""
    equal, differ = _ports(phi, visibility)
    return JointDistribution(p_pp=0.5 * equal, p_pm=0.5 * differ,
                             p_mp=0.5 * differ, p_mm=0.5 * equal)


def ideal_joint_probabilities(phi: np.ndarray, visibility: float = 1.0) -> np.ndarray:
    """:func:`ideal_joint_distribution` at every phase of ``phi``, as a
    (4, M) array (pp, pm, mp, mm): the halved ports of the array fringe law."""
    return 0.5 * fringe_probabilities(phi, visibility)[[0, 1, 1, 0]]


def marginal(dist: JointDistribution, side: str) -> float:
    """Probability of outcome +1 on side "A" or "B"."""
    if side == "A":
        return dist.p_pp + dist.p_pm
    if side == "B":
        return dist.p_pp + dist.p_mp
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def joint_probabilities(
    model: CorrelationModel, phi_a: np.ndarray, phi_b: np.ndarray
) -> np.ndarray:
    """Validated (4, M) probabilities (pp, pm, mp, mm) of ``model`` at the
    M phase pairs (phi_a[m], phi_b[m]), from one call of its array rule.

    An invalid distribution is rejected with the diagnostic of the first
    invalid pair.
    """
    if not isinstance(model, CorrelationModel):
        raise TypeError(f"expected a CorrelationModel, got {type(model).__name__}")
    phi_a = np.asarray(phi_a, dtype=float)
    phi_b = np.asarray(phi_b, dtype=float)
    p = np.asarray(model.probabilities(phi_a, phi_b), dtype=float)
    if p.shape != (4, phi_a.size):
        raise ValueError(f"model {model.name!r} returned shape {p.shape}, "
                         f"expected (4, {phi_a.size})")
    check_batch(p, "joint probabilities")
    return p


def no_signaling_residual(
    model: CorrelationModel, phi_a_grid: Iterable[float], phi_b_grid: Iterable[float]
) -> float:
    """Largest change of either side's marginal under the remote setting.

    ``model`` is evaluated once over the whole grid by
    :func:`joint_probabilities`.
    """
    phi_a = np.fromiter(phi_a_grid, dtype=float)
    phi_b = np.fromiter(phi_b_grid, dtype=float)
    if not phi_a.size or not phi_b.size:
        raise ValueError("setting grids must be nonempty")
    grid_a, grid_b = np.meshgrid(phi_a, phi_b, indexing="ij")
    p = joint_probabilities(model, grid_a.ravel(), grid_b.ravel())
    pp, pm, mp, _ = p.reshape(4, phi_a.size, phi_b.size)
    marg_a = pp + pm
    marg_b = pp + mp
    dev_a = float(np.max(marg_a.max(axis=1) - marg_a.min(axis=1)))
    dev_b = float(np.max(marg_b.max(axis=0) - marg_b.min(axis=0)))
    return max(dev_a, dev_b)


# Outcome pairs (a, b) in the order of the probability arrays.
_OUTCOMES = ((1, 1), (1, -1), (-1, 1), (-1, -1))

# Output-port coefficients of the standard interferometer (two 1/sqrt2
# splitter passes), split off from the long-arm propagation phase:
# amplitude(a via long) = _KAPPA[a] * exp(i * w * tau),
# amplitude(a via short) = _LAMBDA[a].
_KAPPA = {a: 0.5 * z for a, z in STANDARD_PORT_PHASES["long"].items()}
_LAMBDA = {a: 0.5 * z for a, z in STANDARD_PORT_PHASES["short"].items()}

# Path classes: does each photon take its long arm?
_CLASSES: dict[str, tuple[bool, bool]] = {
    "ll": (True, True),
    "ss": (False, False),
    "ls": (True, False),
    "sl": (False, True),
}

# Detector coefficient of each path class per outcome pair, in array order.
_CLASS_COEFFS: dict[str, tuple[complex, ...]] = {
    name: tuple((_KAPPA if a_long else _LAMBDA)[a] * (_KAPPA if b_long else _LAMBDA)[b]
                for a, b in _OUTCOMES)
    for name, (a_long, b_long) in _CLASSES.items()
}


# Population |c|^2 of each path class per outcome pair, as a (4, 1) column.
_POPULATIONS = {name: np.array([[abs(c) ** 2] for c in coeffs])
                for name, coeffs in _CLASS_COEFFS.items()}


def _pair(u: str, v: str) -> tuple:
    a = [cu * cv.conjugate() for cu, cv in zip(_CLASS_COEFFS[u], _CLASS_COEFFS[v])]
    return (u, v, _CLASSES[u][0] - _CLASSES[v][0],
            np.array([[z.real] for z in a]), np.array([[z.imag] for z in a]))


# Interference pairs (u, v) of classes, in the order the sums run.  Step is
# +1 when only u takes side A's long arm (u carries exp(i chi)), -1 when only
# v does and 0 when chi cancels; a = c_u c_v* per outcome pair, as (4, 1)
# real and imaginary columns.
_PAIRS = tuple(_pair(u, v) for u, v in itertools.combinations(_CLASSES, 2))


@dataclass(frozen=True)
class FransonRows:
    """The four-path model at M side-B delays, one column per delay.

    ``probabilities`` is the (4, M) array (pp, pm, mp, mm), clamped at 0 but
    not validated (a row whose law overflows is a NaN column); ``kept`` is
    the (4, M) mask of the path classes (ll, ss, ls, sl) that survive
    post-selection.
    """

    probabilities: np.ndarray
    visibility: np.ndarray
    mean_phase: np.ndarray
    kept: np.ndarray


def _check_delays(name: str, values) -> None:
    values = np.asarray(values, dtype=float).reshape(-1)
    bad = ~((values >= 0.0) & (values < math.inf))
    if bad.any():
        raise ValueError(f"{name} must be finite and >= 0, got {values[bad][0].item()!r}")


def physical_joint_probabilities(
    pump: Spectrum, photon_offset: Spectrum, tau_a: float, tau_b: np.ndarray,
    window: np.ndarray | None = None,
) -> FransonRows:
    """Four-path spectral model with coincidence post-selection, at every
    side-B delay tau_b[m] with coincidence window window[m] (``None``: no
    post-selection), as arrays.

    Sums the surviving path-class populations and every interference term
    between kept classes, each weighted by its coherence factor: the pump
    envelope at half the summed delay differences times the offset envelope
    at their difference (:meth:`Spectrum.envelope`, in closed form).
    Classes whose arrival-time offset exceeds the coincidence window are
    discarded and the result renormalized.  The fringe is read off as the
    harmonic of a phase chi on side A's long arm: a pair of classes whose
    photons on side A take the same arm does not depend on chi and adds to
    the constant part; every other pair adds to the harmonic h, so that
    p(chi) = const + Re(h exp(i chi)), and the visibility is
    |h_pp + h_mm| / (const_pp + const_mm).

    Each row gets the bits of the scalar law in Python complex arithmetic.
    A carrier exp(i x) is numpy's ``cos`` and ``sin`` of x, which round as
    libm's do (and so as ``cmath.exp``) and give NaN, not an error, where x
    overflows.  The envelopes keep libm's bits too: the rectangle's is
    numpy's ``sin``, the gaussian's maps libm ``exp`` over the elements,
    since numpy's float64 ``exp`` differs from libm's in the last bit at
    some arguments.  Complex products are written out in real arithmetic as
    Python rounds them, the modulus is libm ``hypot`` as for ``abs`` of a
    complex, sums keep the class and pair order, and each row's
    normalization adds its four entries left to right (the builtin ``sum``
    compensates from Python 3.12 on).
    A dropped class or pair adds nothing: its terms are masked out.

    No row's arithmetic raises: a row whose carrier phase or envelope
    argument overflows is a NaN column, which the caller's validity check
    rejects.  Only inputs outside their domains raise: delays and windows
    must be finite and >= 0, and the offset center below half the pump
    center.
    """
    tau_b = np.asarray(tau_b, dtype=float)
    _check_delays("tau_a", tau_a)
    _check_delays("tau_b", tau_b)
    if window is not None:
        window = np.asarray(window, dtype=float)
        _check_delays("coincidence window", window)
    w_a, w_b = _center_frequencies(pump, photon_offset)
    zero = np.zeros_like(tau_b)
    long_a = np.full_like(tau_b, tau_a)
    # Delays (ta, tb) of the two photons in each path class.
    delays = {name: (long_a if a_long else zero, tau_b if b_long else zero)
              for name, (a_long, b_long) in _CLASSES.items()}
    kept = {name: np.abs(ta - tb) <= window if window is not None
            else np.ones(tau_b.shape, dtype=bool)
            for name, (ta, tb) in delays.items()}

    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan, as floats give them
        # Carrier phase factor (real, imaginary) of each class at the center
        # frequencies.
        carrier = {}
        for name, (ta, tb) in delays.items():
            x = w_a * ta + w_b * tb
            carrier[name] = (np.cos(x), np.sin(x))

        # Classes u and v differ in phase by alpha*w + beta*w_off, with
        # alpha = (d_a + d_b)/2 and beta = d_a - d_b from the arm-delay
        # differences.
        const = sum(np.where(kept[name], _POPULATIONS[name], 0.0) for name in _CLASSES)
        h_re, h_im = np.zeros(const.shape), np.zeros(const.shape)
        for u, v, step, a_re, a_im in _PAIRS:
            both = kept[u] & kept[v]
            d_a = delays[u][0] - delays[v][0]
            d_b = delays[u][1] - delays[v][1]
            factor = 2.0 * (pump.envelope(0.5 * (d_a + d_b)) * photon_offset.envelope(d_a - d_b))
            u_re, u_im = carrier[u]
            v_re, v_im = carrier[v][0], -carrier[v][1]  # conjugated
            # (a * carrier_u) * conj(carrier_v), as complex products round
            b_re = a_re * u_re - a_im * u_im
            b_im = a_re * u_im + a_im * u_re
            cross_re = b_re * v_re - b_im * v_im
            cross_im = b_re * v_im + b_im * v_re
            if step == 0:
                const += np.where(both, factor * cross_re, 0.0)
            else:
                h_re += np.where(both, factor * cross_re, 0.0)
                # conjugated when step < 0
                h_im += np.where(both, step * (factor * cross_im), 0.0)

        raw = const + h_re
        q = raw / (raw[0] + raw[1] + raw[2] + raw[3])
        equal = const[0] + const[3]
        modulus = np.hypot(h_re[0] + h_re[3], h_im[0] + h_im[3])
        return FransonRows(probabilities=np.where(0.0 > q, 0.0, q),
                           visibility=np.where(equal > 0.0, modulus / equal, 0.0),
                           mean_phase=w_a * tau_a + w_b * tau_b,
                           kept=np.array([kept[name] for name in _CLASSES]))


def physical_joint_distribution(cfg: FransonConfig) -> FransonResult:
    """:func:`physical_joint_probabilities` at the one delay and window of
    ``cfg``, with its distribution validated."""
    window = cfg.coincidence_window
    rows = physical_joint_probabilities(cfg.pump, cfg.photon_offset, cfg.tau_a,
                                        np.array([cfg.tau_b], dtype=float),
                                        None if window is None else np.array([window], dtype=float))
    return FransonResult(
        distribution=JointDistribution(*rows.probabilities[:, 0].tolist()),
        visibility=rows.visibility[0].item(),
        mean_phase=rows.mean_phase[0].item(),
        kept_classes=tuple(name for name, kept in zip(_CLASSES, rows.kept[:, 0]) if kept),
    )


# Side A's standard interferometer feeds its + port the long and short
# paths with equal phases and its - port with opposite ones.
_SIDE_A_PORTS = (PathAmplitudes.balanced(), PathAmplitudes(L=_INV_SQRT2, S=-_INV_SQRT2))


def bob_measurement_rule(m: MeasurementMatrix) -> CorrelationModel:
    """The ideal path-entangled pair with side B measured by ``m`` and side A
    by the standard interferometer.

    With pair amplitude 1/sqrt2, p(a, b) is half the port law
    :func:`~bellsim.measurement.outcome_probabilities` of ``m`` at phase
    phi_a + phi_b for path amplitudes (1, a)/sqrt2.  Side A's marginal is
    thus half the photon's total count, so unitary matrices give no-signaling
    correlations and the largest marginal change is the modulus of the cross
    term b11 b21* + b12 b22*.  The standard matrix gives the ideal joint law.
    """

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        phi = phi_a + phi_b
        return 0.5 * np.concatenate([outcome_probabilities(m, amps, phi)
                                     for amps in _SIDE_A_PORTS])

    return CorrelationModel(name="bob_measurement", probabilities=probabilities)
