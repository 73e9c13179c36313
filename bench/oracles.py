"""Independent oracles for every row the benchmark's scans produce.

Nothing here imports ``bellsim``.  Values are recomputed in mpmath from the
row's own inputs, by closed forms written so that they do not cancel:

* chained values as closing + (2N-1) adjacent terms with
  (1 + V cos x)/2 = (1 - V)/2 + V cos^2(x/2) and (1 - V cos x)/2 =
  (1 - V)/2 + V sin^2(x/2);
* the falsification witness by an exact integer search on 1.5 I(N) < D;
* wave-packet fringes by the rectangular-spectrum sinc law;
* splitter ports and two-photon laws by their closed forms, the spectral
  Franson model by the analytic envelopes of its rectangular or truncated
  gaussian spectra in place of quadrature;
* sampled counts by the counts-sum-to-n identity, zero double and null
  counts for the quantum model, a 7-sigma band around n p, and an exact
  same-seed repeat of the scan.

Tolerances: relative 1e-9 for chained values and two-photon phases,
absolute 1e-10 for probabilities, absolute 1e-9 for visibilities, exact
equality for witness N, sample counts and labels.  Probabilities of the
spectral Franson model get 4 ulps of the carrier phase on top (1.1e-9 at the
2.4e6 rad of the benchmark's set-up): that much error is already in a
double-precision carrier phase, before any arithmetic on it.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mp, mpf

REL_CHAIN = 1e-9
ABS_PROB = 1e-10
REL_REAL = 1e-9
ABS_VISIBILITY = 1e-9
DIGITS = 50
SIGMAS = 7.0
PHASE_ULPS = 4


# The oracle values are exact to far more digits than a double holds, so
# comparing the double nearest to each with the row's double is exact enough
# for every tolerance below.
def _close_rel(got, want, rel: float) -> bool:
    want = float(want)
    return abs(float(got) - want) <= rel * abs(want)


def _close_abs(got, want, tol: float = ABS_PROB) -> bool:
    return abs(float(got) - float(want)) <= tol


def _classification(i_value) -> str:
    if i_value <= mpf("1e-12"):
        return "maximal_nonlocal"
    if i_value >= 1:
        return "local_compatible"
    return "bounded_nonlocal"


# ---------------------------------------------------------------------------
# Chained inequality and falsification witness

def chained_value(n: int, theta: float, visibility: float = 1.0, model: str = "quantum"):
    """I(N, theta) of the fringe-law (or sign-box) model over 2N settings."""
    step = mpf(theta) / (2 * n)
    closing_phase = (2 * n - 1) * step
    if model == "pr_box":
        # Perfect correlation where cos(phase) >= 0, perfect anticorrelation elsewhere.
        closing = 1 if mpmath.cos(closing_phase) >= 0 else 0
        adjacent = 0 if mpmath.cos(step) >= 0 else 1
        return mpf(closing + (2 * n - 1) * adjacent)
    if model == "suppressed":
        return mpf("0.5") * 2 * n
    v = mpf(visibility)
    floor = (1 - v) / 2
    closing = floor + v * mpmath.cos(closing_phase / 2) ** 2
    adjacent = floor + v * mpmath.sin(step / 2) ** 2
    return closing + (2 * n - 1) * adjacent


def falsification_witness(distance: float, theta: float = math.pi) -> int:
    """Smallest N >= 2 with 1.5 I(N, theta) < D, by exact integer search.

    I(N, pi) decreases strictly in N, so an exponential bracket and a
    bisection over integers find the crossing in O(log N) evaluations.
    """
    d = mpf(distance)

    def below(n: int) -> bool:
        return mpf("1.5") * chained_value(n, theta) < d

    if below(2):
        return 2
    lo, hi = 2, 4
    while not below(hi):
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def check_chained(params: dict, inputs: dict, row: dict) -> bool:
    n = int(float(inputs["n"]))
    theta = float(params.get("theta", math.pi))
    model = params.get("model", "quantum")
    visibility = float(params.get("visibility", 1.0))
    want = chained_value(n, theta, visibility, model)
    ok = (float(row["theta"]) == theta and row["model"] == model
          and _close_rel(row["i_value"], want, REL_CHAIN)
          and row["classification"] == _classification(want))
    if model == "quantum":
        # The closed-form column documents the ideal fringe law (V = 1).
        return ok and _close_rel(row["i_closed_form"], chained_value(n, theta), REL_CHAIN)
    return ok and row["i_closed_form"] == ""


def check_extensions(params: dict, inputs: dict, row: dict) -> bool:
    theta = float(params.get("theta", math.pi))
    n = falsification_witness(float(inputs["d"]), theta)
    if int(row["witness_n"]) != n:
        return False
    ok = (_close_rel(row["bound_at_witness"], mpf("1.5") * chained_value(n, theta), REL_CHAIN)
          and _close_rel(row["i_at_witness"], chained_value(n, theta), REL_CHAIN))
    if n == 2:
        return ok and row["bound_at_prev"] == ""
    return ok and _close_rel(row["bound_at_prev"],
                             mpf("1.5") * chained_value(n - 1, theta), REL_CHAIN)


def check_lhv(n: int, value: float, strategy: tuple[int, ...], n_strategies: int) -> bool:
    """Deterministic chains need an odd number of sign flips when the ends
    differ, so the minimum is exactly 1; the strategy must attain it."""
    closing = 1 if strategy[0] == strategy[-1] else 0
    flips = sum(1 for x, y in zip(strategy, strategy[1:]) if x != y)
    return (value == 1.0 and n_strategies == 4 ** n and len(strategy) == 2 * n
            and closing + flips == 1)


# ---------------------------------------------------------------------------
# Single-photon fringes, splitters and sampling

def check_interf(params: dict, inputs: dict, row: dict) -> bool:
    phi = mpf(float(inputs["phi"]))
    half_width = mpf(float(inputs.get("dphi", 0.0))) / 2
    envelope = mpmath.sinc(half_width)  # rectangular spectrum, unit delay
    p_plus = (1 + envelope * mpmath.cos(phi)) / 2
    return _close_abs(row["p_plus"], p_plus) and _close_abs(row["p_minus"], 1 - p_plus)


def check_unitarity(params: dict, inputs: dict, row: dict) -> bool:
    """Balanced two-splitter interferometer with reflection phase r: ports
    (1 + cos phi)/2 and (1 + cos(phi - 2r))/2, cross term |cos r|."""
    r = mpf(float(inputs["reflection_phase"]))
    phi = mpf(float(inputs["phi"]))
    residual = abs(mpmath.cos(r))
    p_plus = (1 + mpmath.cos(phi)) / 2
    p_minus = (1 + mpmath.cos(phi - 2 * r)) / 2
    valid = "1" if residual <= mpf("1e-10") else "0"
    return (_close_abs(row["residual"], residual) and row["valid"] == valid
            and _close_abs(row["p_plus"], p_plus) and _close_abs(row["p_minus"], p_minus)
            and _close_abs(row["total"], p_plus + p_minus))


def check_sample_counts(params: dict, inputs: dict, row: dict) -> bool:
    n = int(params.get("n", 1_000_000))
    counts = [int(row[k]) for k in ("n_plus", "n_minus", "n_double", "n_null")]
    if sum(counts) != n or min(counts) < 0:
        return False
    p = float((1 + mpmath.cos(mpf(float(inputs["phi"])))) / 2)
    if params.get("model", "quantum") == "quantum":
        band = SIGMAS * math.sqrt(n * p * (1.0 - p)) + 1.0
        return counts[2] == 0 and counts[3] == 0 and abs(counts[0] - n * p) <= band
    # Independent detectors: D(+) alone p^2, D(-) alone (1-p)^2.
    band = SIGMAS * math.sqrt(n * p * p * (1.0 - p * p)) + 1.0
    return abs(counts[0] - n * p * p) <= band


# ---------------------------------------------------------------------------
# Two-photon laws

def _joint_columns(p: dict, phase, visibility) -> dict:
    return {
        "phase": phase, "visibility": visibility,
        "p_equal": p[1, 1] + p[-1, -1], "p_differ": p[1, -1] + p[-1, 1],
        "p_pp": p[1, 1], "p_pm": p[1, -1], "p_mp": p[-1, 1], "p_mm": p[-1, -1],
        "marginal_a": p[1, 1] + p[1, -1], "marginal_b": p[1, 1] + p[-1, 1],
    }


def _check_joint(row: dict, want: dict, prob_tol: float = ABS_PROB) -> bool:
    if not _close_rel(row["phase"], want["phase"], REL_REAL):
        return False
    if not _close_abs(row["visibility"], want["visibility"], ABS_VISIBILITY):
        return False
    return all(_close_abs(row[k], want[k], prob_tol)
               for k in want if k not in ("phase", "visibility"))


def ideal_franson(phi: float, visibility: float) -> dict:
    c = mpf(visibility) * mpmath.cos(mpf(phi))
    p = {(a, b): (1 + a * b * c) / 4 for a in (1, -1) for b in (1, -1)}
    return _joint_columns(p, mpf(phi), mpf(visibility))


def _splitter_arms() -> dict:
    """Port amplitudes of an unbalanced interferometer built from two
    symmetric splitters (1/sqrt2)[[1, i], [i, 1]]: arm -> {port: amplitude},
    with port '+' the splitter's second output."""
    s = 1 / mpmath.sqrt(2)
    split = [[s, 1j * s], [1j * s, s]]
    arms = {}
    for arm, into in (("long", split[0][0]), ("short", split[1][0])):
        row = 0 if arm == "long" else 1
        arms[arm] = {+1: split[row][1] * into, -1: split[row][0] * into}
    return arms


def _envelope(shape: str, bandwidth: float, gamma):
    """Mean of exp(i gamma x) over the centred density (real by symmetry)."""
    b = mpf(bandwidth)
    if gamma == 0:
        return mpf(1)
    if shape == "rectangular":
        return mpmath.sinc(gamma * b / 2)
    # Gaussian exp(-a x^2), a = 4 ln2 / B^2, truncated at +-5B.
    a = 4 * mpmath.log(2) / b ** 2
    edge = 5 * b * mpmath.sqrt(a)
    full = mpmath.erf(edge)
    shifted = mpmath.erf(mpmath.mpc(edge, gamma / (2 * mpmath.sqrt(a))))
    return mpmath.exp(-gamma ** 2 / (4 * a)) * shifted.real / full


def physical_franson(params: dict, tau_b: float) -> dict:
    """Four path classes, each photon through its own interferometer,
    post-selected by arrival-time offset and averaged over both spectra."""
    shape = params.get("shape", "rectangular")
    w = mpf(float(params["pump_center"]))
    off = mpf(float(params.get("offset_center", 0.0)))
    w_a, w_b = w / 2 + off, w / 2 - off
    t_a, t_b = mpf(float(params["tau_a"])), mpf(tau_b)
    window = params.get("coincidence_window", "auto")
    if window == "auto":
        window = min(float(params["tau_a"]), tau_b) / 2
    window = None if window == "none" else mpf(float(window))

    classes = []
    for a_long in (True, False):
        for b_long in (True, False):
            ta = t_a if a_long else 0
            tb = t_b if b_long else 0
            if window is not None and abs(ta - tb) > window:
                continue
            classes.append((a_long, b_long, ta, tb))
    arms = _splitter_arms()
    carriers = [mpmath.expj(w_a * ta + w_b * tb) for _, _, ta, tb in classes]
    # Class phases are (ta + tb)/2 * pump + (ta - tb) * offset frequency.
    coherence = {
        (i, j): _envelope(shape, float(params["pump_bandwidth"]), (u[2] + u[3] - v[2] - v[3]) / 2)
        * _envelope(shape, float(params["offset_bandwidth"]), (u[2] - u[3]) - (v[2] - v[3]))
        for i, u in enumerate(classes) for j, v in enumerate(classes) if i < j
    }

    def raw(chi) -> dict:
        shift = mpmath.expj(chi)
        out = {}
        for a in (1, -1):
            for b in (1, -1):
                amps = [arms["long" if a_long else "short"][a]
                        * arms["long" if b_long else "short"][b]
                        * carrier * (shift if a_long else 1)
                        for (a_long, b_long, _, _), carrier in zip(classes, carriers)]
                total = sum(abs(u) ** 2 for u in amps)
                for (i, j), c in coherence.items():
                    total += 2 * (amps[i] * mpmath.conj(amps[j])).real * c
                out[a, b] = total
        return out

    p0 = raw(0)
    weight = sum(p0.values())
    p = {key: value / weight for key, value in p0.items()}

    def p_equal(chi) -> mpf:
        r = raw(chi)
        return (r[1, 1] + r[-1, -1]) / weight

    e0, e_quarter, e_half = p_equal(0), p_equal(mp.pi / 2), p_equal(mp.pi)
    mean = (e0 + e_half) / 2
    visibility = mpmath.hypot((e0 - e_half) / 2, e_quarter - mean) / mean
    return _joint_columns(p, w_a * t_a + w_b * t_b, visibility)


def check_franson(params: dict, inputs: dict, row: dict) -> bool:
    if params.get("mode", "ideal") == "ideal":
        want = ideal_franson(float(inputs["phi"]), float(params.get("visibility", 1.0)))
        return _check_joint(row, want)
    want = physical_franson(params, float(inputs["tau_b"]))
    # A carrier phase of 2.4e6 rad held in a double is uncertain by a few
    # ulps, which moves the probabilities by up to that many radians.
    conditioning = PHASE_ULPS * 2.0 ** -53 * abs(float(want["phase"]))
    return _check_joint(row, want, ABS_PROB + conditioning)


CHECKS = {
    "chained": check_chained,
    "extensions": check_extensions,
    "interf": check_interf,
    "unitarity": check_unitarity,
    "franson": check_franson,
    "sample": check_sample_counts,
}


def check_row(subcommand: str, params: dict, inputs: dict, row: dict) -> bool:
    """True when every output column of a completed row matches the oracle."""
    with mp.workdps(DIGITS):
        try:
            return CHECKS[subcommand](params, inputs, row)
        except (KeyError, ValueError, TypeError):  # missing or unparsable cell
            return False
