"""Two-photon interference with unbalanced interferometer pairs.

A pump line at angular frequency w down-converts into a photon pair at
w/2 + w_off and w/2 - w_off; each photon traverses its own long/short
interferometer.  Of the four two-photon path classes (ll, ss, ls, sl) only
ll and ss arrive coincident when the delays are matched, and their
interference carries the nonlocal fringe.  The module provides

* the idealized maximally-entangled joint distribution, pointwise and as
  an array,
* correlation models: array rules validated once per batch, the only
  representation of a joint distribution over setting phases,
* the full four-path spectral model with per-pair coherence factors and
  coincidence-window post-selection; each factor is a product of two
  closed-form envelopes, real because every spectral density is even about
  its center, and the fringe visibility is read from the harmonic of a
  phase on one long arm, with no quadrature,
* the coherence-ratio checks that the ideal limit requires,
* no-signaling diagnostics on correlation models, and
* the two-photon counterpart of the beam-splitter unitarity condition, a
  correlation model built from side B's measurement matrix.

Everything is a pure function of its inputs.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

import numpy as np

from .measurement import _INV_SQRT2, STANDARD_PORT_PHASES, MeasurementMatrix
from .probability import check_batch, check_distribution
from .spectra import Spectrum


ArrayRule = Callable[[np.ndarray, np.ndarray], np.ndarray]


class PathPair(str, enum.Enum):
    """Interfering combinations of two-photon path classes."""

    LL_SS = "ll_ss"
    LL_LS = "ll_ls"
    LS_LL = "ls_ll"
    SS_SL = "ss_sl"
    LL_SL = "ll_sl"
    LS_SS = "ls_ss"


# Which single-arm phase the pair picks up: "both" is the sum
# w_A*tau_A + w_B*tau_B; "A"/"B" the corresponding arm alone.
_PAIR_ARM: dict[PathPair, str] = {
    PathPair.LL_SS: "both",
    PathPair.LL_LS: "B",
    PathPair.LS_LL: "A",
    PathPair.SS_SL: "B",
    PathPair.LL_SL: "A",
    PathPair.LS_SS: "A",
}


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
    """

    name: str
    probabilities: ArrayRule

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
        if self.tau_a < 0.0 or self.tau_b < 0.0:
            raise ValueError("interferometer delays must be >= 0")
        if self.coincidence_window is not None and self.coincidence_window < 0.0:
            raise ValueError("coincidence window must be >= 0 or None")


@dataclass(frozen=True)
class EntanglementConditions:
    satisfied: bool
    ratios: Mapping[str, float]
    threshold: float
    failing: tuple[str, ...]


@dataclass(frozen=True)
class FransonResult:
    distribution: JointDistribution
    visibility: float
    mean_phase: float
    kept_classes: tuple[str, ...]


def downconverted_frequencies(cfg: FransonConfig) -> tuple[float, float]:
    """Center frequencies w/2 +- w_off; their sum equals w exactly."""
    w = cfg.pump.center
    w_off = cfg.photon_offset.center
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


def path_pair_phase(cfg: FransonConfig, pair: PathPair) -> float:
    """Relative phase of one interfering path-pair at the center frequencies."""
    pair = PathPair(pair)
    w_a, w_b = downconverted_frequencies(cfg)
    arm = _PAIR_ARM[pair]
    if arm == "both":
        return w_a * cfg.tau_a + w_b * cfg.tau_b
    if arm == "A":
        return w_a * cfg.tau_a
    return w_b * cfg.tau_b


def check_entanglement_conditions(
    cfg: FransonConfig, ratio_threshold: float = 100.0
) -> EntanglementConditions:
    """Coherence hierarchy for the ideal limit: tau_c >> tau >> tau_c_off >> |dtau|.

    Ratios: pump coherence time over the larger delay, that delay over the
    offset coherence time, and the offset coherence time over the delay
    mismatch (infinite for exactly matched delays).  All must reach the
    threshold.
    """
    if not ratio_threshold > 1.0:
        raise ValueError(f"ratio_threshold must exceed 1, got {ratio_threshold!r}")
    tau = max(cfg.tau_a, cfg.tau_b)
    tau_c = 2.0 * math.pi / cfg.pump.bandwidth
    tau_c_off = 2.0 * math.pi / cfg.photon_offset.bandwidth
    mismatch = abs(cfg.tau_a - cfg.tau_b)
    ratios = {
        "pump_coherence": tau_c / tau if tau > 0.0 else math.inf,
        "offset_incoherence": tau / tau_c_off,
        "delay_balance": tau_c_off / mismatch if mismatch > 0.0 else math.inf,
    }
    failing = tuple(name for name, r in ratios.items() if r < ratio_threshold)
    return EntanglementConditions(
        satisfied=not failing, ratios=ratios,
        threshold=ratio_threshold, failing=failing,
    )


def ideal_joint_distribution(phi: float, visibility: float = 1.0) -> JointDistribution:
    """Maximally-entangled joint law with optional fringe contrast V.

    Concordance (1 + V cos(phi))/2 and discordance (1 - V cos(phi))/2 are
    split symmetrically over the outcome pairs so both marginals are 1/2.
    No digits cancel near phi = 0 or pi: where cos(phi) > 1/2 the
    discordance is evaluated as (1 - V)/2 + V sin^2(phi/2), and where
    cos(phi) < -1/2 the concordance as (1 - V)/2 + V cos^2(phi/2).  The
    cosine takes phi itself, so no rounded distance to pi enters: at V = 1,
    phi = math.pi the concordance is cos^2(math.pi/2) = 3.7e-33, not 0.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    cos_phi = math.cos(phi)
    if cos_phi < -0.5:
        half = math.cos(0.5 * phi)
        equal = 0.25 * (1.0 - visibility) + 0.5 * visibility * half * half
    else:
        equal = 0.25 * (1.0 + visibility * cos_phi)
    if cos_phi > 0.5:
        half = math.sin(0.5 * phi)
        differ = 0.25 * (1.0 - visibility) + 0.5 * visibility * half * half
    else:
        differ = 0.25 * (1.0 - visibility * cos_phi)
    return JointDistribution(p_pp=equal, p_pm=differ, p_mp=differ, p_mm=equal)


def ideal_joint_probabilities(phi: np.ndarray, visibility: float = 1.0) -> np.ndarray:
    """:func:`ideal_joint_distribution` at every phase of ``phi``, as a
    (4, M) array (pp, pm, mp, mm) with the same formulas."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must lie in [0, 1], got {visibility!r}")
    cos_phi = np.cos(phi)
    # sin(phi/2) serves the discordance branch, cos(phi/2) the concordance one
    half = np.where(cos_phi >= 0.0, np.sin(0.5 * phi), np.cos(0.5 * phi))
    half_angle_form = 0.25 * (1.0 - visibility) + 0.5 * visibility * half * half
    equal = np.where(cos_phi < -0.5, half_angle_form, 0.25 * (1.0 + visibility * cos_phi))
    differ = np.where(cos_phi > 0.5, half_angle_form, 0.25 * (1.0 - visibility * cos_phi))
    return np.stack((equal, differ, differ, equal))


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


def physical_joint_distribution(cfg: FransonConfig) -> FransonResult:
    """Four-path spectral model with coincidence post-selection.

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
    """
    w_a, w_b = downconverted_frequencies(cfg)
    # Delays (ta, tb) of the two photons in each path class.
    delays = {name: (cfg.tau_a if a_long else 0.0, cfg.tau_b if b_long else 0.0)
              for name, (a_long, b_long) in _CLASSES.items()}
    window = cfg.coincidence_window
    kept = [name for name, (ta, tb) in delays.items()
            if window is None or abs(ta - tb) <= window]
    if not kept:
        raise ValueError("coincidence window rejects every path class")

    # Carrier phase factor of each class at the center frequencies.
    carrier = {name: cmath.exp(1j * (w_a * delays[name][0] + w_b * delays[name][1]))
               for name in kept}

    # Classes u and v differ in phase by alpha*w + beta*w_off, with
    # alpha = (d_a + d_b)/2 and beta = d_a - d_b from the arm-delay differences.
    const = [sum(abs(_CLASS_COEFFS[name][k]) ** 2 for name in kept) for k in range(4)]
    harmonic = [0j] * 4
    for i, u in enumerate(kept):
        for v in kept[i + 1:]:
            d_a = delays[u][0] - delays[v][0]
            d_b = delays[u][1] - delays[v][1]
            coherence = (cfg.pump.envelope(0.5 * (d_a + d_b))
                         * cfg.photon_offset.envelope(d_a - d_b))
            # +1 when only u takes side A's long arm (u carries exp(i chi)),
            # -1 when only v does, 0 when chi cancels.
            step = _CLASSES[u][0] - _CLASSES[v][0]
            for k, (cu, cv) in enumerate(zip(_CLASS_COEFFS[u], _CLASS_COEFFS[v])):
                cross = cu * cv.conjugate() * carrier[u] * carrier[v].conjugate()
                term = 2.0 * coherence * cross
                if step == 0:
                    const[k] += term.real
                else:
                    harmonic[k] += term if step > 0 else term.conjugate()

    raw = [c + h.real for c, h in zip(const, harmonic)]
    weight = sum(raw)
    dist = JointDistribution(*[max(p / weight, 0.0) for p in raw])
    equal = const[0] + const[3]
    visibility = abs(harmonic[0] + harmonic[3]) / equal if equal > 0.0 else 0.0

    return FransonResult(
        distribution=dist,
        visibility=visibility,
        mean_phase=path_pair_phase(cfg, PathPair.LL_SS),
        kept_classes=tuple(kept),
    )


def bob_measurement_rule(m: MeasurementMatrix) -> CorrelationModel:
    """Correlation model of the ideal path-entangled pair when side B's
    measurement is described by ``m`` (side A keeps the standard
    interferometer matrix).

    Side A's marginal acquires the cross term b11 b21* + b12 b22* times the
    remote phase, so matrices passing the single-particle unitarity check
    produce no-signaling correlations with no extra assumption, and the
    largest marginal change is that cross term's modulus.  With the standard
    matrix on both sides the model reproduces the ideal joint law at phase
    phi_a + phi_b.
    """
    side_b = {"long": {+1: m.a11, -1: m.a12}, "short": {+1: m.a21, -1: m.a22}}
    # Pair amplitude coefficient per input path, one row per outcome pair.
    long_coeff, short_coeff = (
        np.array([STANDARD_PORT_PHASES[path][a] * _INV_SQRT2 * side_b[path][b]
                  for a, b in _OUTCOMES])[:, None]
        for path in ("long", "short")
    )

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        amp = (long_coeff * np.exp(1j * (phi_a + phi_b)) + short_coeff) * _INV_SQRT2
        return np.abs(amp) ** 2

    return CorrelationModel(name="bob_measurement", probabilities=probabilities)
