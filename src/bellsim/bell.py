"""Chained Bell inequality engine over pluggable correlation models.

The chain uses 2N settings (N per side) whose phases equipartition a total
spread Theta, so every adjacent setting pair realizes the phase Theta/2N
while the closing pair realizes (2N-1)*Theta/2N.  The figure of merit

    I = P(a = b | closing pair) + sum over adjacent pairs of P(a != b)

satisfies I >= 1 for every locally deterministic assignment; I < 1 certifies
nonlocality, and I = 0 at finite N would be maximal nonlocality.  Provided
models, all array rules: the quantum fringe law, a sign-box that is
maximally nonlocal on pi-chains, the product-of-marginals model with all
correlations suppressed (these three also carry their laws as functions
of the phase difference, by which chained_I sums their chains), and
explicit deterministic strategies.  The local
bound I >= 1 follows from parity; the tests confirm it by enumerating every
deterministic strategy.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entangle import CorrelationModel, ideal_joint_probabilities, joint_probabilities

# Terms per batch; bounds each array of a chain at 128 KiB a row.  Both sums
# read a batch's setting phases from one buffer per call
# (:func:`_setting_batches`), and the difference path takes the differences
# into a second one and sorts them in place, so a warm
# chained_I(quantum_model(), n=10^5) takes no minor page faults (getrusage
# ru_minflt), nor do the chains of a warm pass of the deep benchmark's scans
# (seed 1).  The batch path makes each batch's side arrays and law anew.
BATCH = 1 << 14


class Classification(str, enum.Enum):
    LOCAL_COMPATIBLE = "local_compatible"
    BOUNDED_NONLOCAL = "bounded_nonlocal"
    MAXIMAL_NONLOCAL = "maximal_nonlocal"


@dataclass(frozen=True)
class ChainedConfig:
    """Setting count per side and total equipartitioned phase."""

    n: int
    theta: float

    def __post_init__(self):
        _chain_length(self.n, "n")
        _phase_spread(self.theta)

    @property
    def settings(self) -> tuple[float, ...]:
        """2N phases; even indices belong to side A, odd to side B."""
        step = self.theta / (2 * self.n)
        return tuple(i * step for i in range(2 * self.n))


@dataclass(frozen=True)
class LhvMinimum:
    value: float
    strategy: tuple[int, ...]
    n_strategies: int


@dataclass(frozen=True)
class BoundednessReport:
    n_max: int
    all_positive: bool
    strictly_decreasing: bool
    closing_concordance_positive: bool
    tail_product: float  # N * I(N, pi) at n_max; tends to pi^2 / 8
    i_values: np.ndarray


def _chain_length(value, name: str) -> int:
    """``value`` as an int, if it is a Python or numpy integer >= 2 (never a
    float, even an integral one); otherwise a ValueError naming ``name``."""
    try:
        n = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if n < 2:
        raise ValueError(f"{name} must be >= 2, got {n!r}")
    return n


def _phase_spread(theta: float) -> None:
    """A chain's total phase is finite and >= 0; otherwise a ValueError."""
    if not 0.0 <= theta < math.inf:
        raise ValueError(f"theta must be finite and >= 0, got {theta!r}")


def classify(i_value: float) -> Classification:
    if i_value <= 1e-12:
        return Classification.MAXIMAL_NONLOCAL
    if i_value >= 1.0:
        return Classification.LOCAL_COMPATIBLE
    return Classification.BOUNDED_NONLOCAL


def quantum_model(visibility: float = 1.0) -> CorrelationModel:
    """Fringe-law correlations, phase = difference of the setting phases."""

    def law(phi: np.ndarray) -> np.ndarray:
        return ideal_joint_probabilities(phi, visibility)

    return CorrelationModel.of_difference("quantum", law)


def pr_box_model() -> CorrelationModel:
    """No-signaling box with perfect correlations flipping at cos(phase) = 0.

    Adjacent pairs of a pi-chain fall in the correlated half, the closing
    pair in the anticorrelated one, so I vanishes for every N: maximal
    nonlocality with uniform marginals.
    """

    def law(phi: np.ndarray) -> np.ndarray:
        equal = np.where(np.cos(phi) >= 0.0, 0.5, 0.0)
        differ = 0.5 - equal
        return np.stack((equal, differ, differ, equal))

    return CorrelationModel.of_difference("pr_box", law)


def suppressed_nonlocality_model() -> CorrelationModel:
    """Product of the uniform marginals: all correlations removed."""

    def law(phi: np.ndarray) -> np.ndarray:
        return np.full((4, phi.size), 0.25)

    return CorrelationModel.of_difference("suppressed_nonlocality", law)


def deterministic_strategy_model(
    outcomes: Sequence[int], cfg: ChainedConfig
) -> CorrelationModel:
    """Local deterministic responses: setting l_i always yields outcomes[i].

    A phase is read as setting i only if it equals ``cfg.settings[i]``, so
    the model accepts exactly the phases of ``cfg``, which must be distinct:
    theta > 0, with a step theta/2N that does not underflow to 0.
    """
    outcomes = tuple(outcomes)
    if len(outcomes) != 2 * cfg.n:
        raise ValueError(f"need {2 * cfg.n} outcomes, got {len(outcomes)}")
    if any(o not in (1, -1) for o in outcomes):
        raise ValueError("outcomes must be +-1")
    settings = np.array(cfg.settings)
    if not (settings[1:] > settings[:-1]).all():
        raise ValueError(f"setting phases are degenerate at theta = {cfg.theta!r}")
    plus = np.array(outcomes) == 1

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        phi = np.stack((phi_a, phi_b), axis=1)  # pair m's phases, side A's first
        i = np.minimum(np.searchsorted(settings, phi), settings.size - 1)
        bad = settings[i] != phi
        if bad.any():
            raise ValueError(f"phase {float(phi.flat[np.argmax(bad)])!r} "
                             "is not one of the chain settings")
        a, b = plus[i].T
        return np.stack((a & b, a & ~b, ~a & b, ~a & ~b)).astype(float)

    return CorrelationModel(name="local_deterministic", probabilities=probabilities)


def chained_I(model, cfg: ChainedConfig) -> float:
    """The chained figure of merit I of a correlation model.

    Term 0 is the closing pair (settings 0 and 2N-1), term k >= 1 the
    adjacent pair (k-1, k); the even setting of a pair is side A's.  Both
    paths below read the setting phases from :func:`_setting_batches`, in
    batches of at most :data:`BATCH` terms, and check the law's output with
    :func:`~bellsim.entangle.joint_probabilities`; an invalid distribution
    is rejected with the diagnostic of the first invalid term, as that
    function gives it.  :func:`classify` names the class of I.

    I is the correctly rounded sum of the terms, ``math.fsum`` of them: plain
    accumulation loses ~2e-12 against the closed form at N = 10^4, and the
    N -> infinity limit that takes the paper's argument from nonlocality at
    detection to Bell nonlocality is read off these small sums.  It is
    reached by one of two paths, with the same bits:

    * A model with a difference law (``model.difference``: the quantum,
      PR-box and suppressed models) is summed by difference
      (:func:`_sum_by_difference`).  Its terms depend on phi_a - phi_b
      alone, and the 2N differences take few distinct bits (37 with the
      closing pair's at N = 10^5 and theta = pi, 52 at N = 10^7), so the
      law is evaluated and checked once per distinct difference and each
      term is counted by its multiplicity.  A law that the check rejects
      takes the batch path for its diagnostic.
    * Every other model (deterministic strategies, the pairs of
      :func:`~bellsim.entangle.bob_measurement_rule` and of
      :mod:`~bellsim.extensions`) is evaluated by
      :func:`~bellsim.entangle.joint_probabilities` one batch at a time,
      and I is ``math.fsum`` of all its terms (:func:`_sum_by_batch`), the
      definition that the tests hold the difference path to.

    No array outlives the call or outgrows a batch: tracemalloc's peak for a
    call at N = 10^6 is 0.40 MiB on the difference path and 2.13 MiB on the
    batch path, as at N = 10^5.
    """
    if isinstance(model, CorrelationModel) and model.difference is not None:
        value = _sum_by_difference(model, cfg)
        if value is not None:
            return value
    return _sum_by_batch(model, cfg)


def _setting_batches(cfg: ChainedConfig):
    """Each batch's setting phases, one array s with the bits i * step of
    setting i (those of ``cfg.settings``), in which term start + j of the
    batch that starts at term ``start`` pairs s[j] and s[j + 1].

    Term k pairs settings k - 1 and k, so s[j] is setting start + j - 1,
    except that the first batch's s[0] is setting 2N - 1: term 0 is the
    closing pair (settings 2N - 1 and 0).  A batch has at most
    :data:`BATCH` terms and starts at an even term, so side A's (even)
    setting is s[j + 1] at even j and s[j] at odd j.  Every s is a view of
    one buffer, which the next batch overwrites.
    """
    terms = 2 * cfg.n
    step = cfg.theta / terms
    index = np.arange(-1.0, min(terms, BATCH))  # s[j]'s setting index
    index[0] = terms - 1
    phases = np.empty(index.size)
    for start in range(0, terms, BATCH):
        size = min(BATCH, terms - start) + 1
        yield np.multiply(index[:size], step, out=phases[:size])
        index[0] = start - 1  # s[0] is setting start - 1 after the first batch
        index += BATCH


def _sum_by_batch(model, cfg: ChainedConfig) -> float:
    """I from the model's rule at every term: ``math.fsum`` of the 2N terms.

    The terms are formed a batch at a time, and each batch reaches the sum
    in place through a memoryview, so no list of the terms is made.
    """

    def batches():
        for k, s in enumerate(_setting_batches(cfg)):
            p = joint_probabilities(model, np.repeat(s[1::2], 2), np.repeat(s[::2], 2)[1:-1])
            values = p[1] + p[2]
            if k == 0:
                values[0] = p[0, 0] + p[3, 0]  # the closing pair's concordance
            yield memoryview(values)

    return math.fsum(itertools.chain.from_iterable(batches()))


def _sum_by_difference(model: CorrelationModel, cfg: ChainedConfig) -> float | None:
    """I from the difference law of ``model``, evaluated once per distinct
    difference; None if :func:`~bellsim.entangle.joint_probabilities`
    rejects the law there.

    Each term's difference has the bits of phi_a - phi_b, the subtraction
    the model's rule makes.  The differences are counted by their bits (as
    int64, so -0.0 and 0.0 stay apart), and the law is called once, on the
    closing difference and the distinct adjacent ones.  Equal differences
    give equal columns, so the check accepts exactly when it accepts every
    batch of the batch path, and the terms, each weighted by its count, are
    that path's terms: :func:`_weighted_sum` of them is their ``fsum``.
    """
    differences = np.empty(min(2 * cfg.n, BATCH))
    counts: dict[int, int] = {}
    for k, s in enumerate(_setting_batches(cfg)):
        d = np.subtract(s[1:], s[:-1], out=differences[:s.size - 1])
        # side A's setting is s[j] at odd j; 0.0 - x is -x, and +0.0 at two
        # equal settings, so d[j] has the bits of phi_a - phi_b there too
        np.subtract(0.0, d[1::2], out=d[1::2])
        if k == 0:
            closing, d = d[0], d[1:]
        _count_bits(d, counts)
    phases = np.array([0, *counts], dtype=np.int64).view(float)
    phases[0] = closing
    try:  # the rule at (phase, 0.0) is the law at phase - 0.0, the bits of phase
        p = joint_probabilities(model, phases, np.zeros(phases.size))
    except ValueError:
        return None
    values = p[1] + p[2]
    values[0] = p[0, 0] + p[3, 0]
    return _weighted_sum(values, [1, *counts.values()])


def _count_bits(x: np.ndarray, counts: dict[int, int]) -> None:
    """Add to ``counts`` the number of times each bit pattern (an int64 key)
    occurs in the nonempty float array ``x``, which is reordered."""
    keys = x.view(np.int64)
    keys.sort()
    # the last index of each run of equal keys
    last = [*(keys[1:] != keys[:-1]).nonzero()[0].tolist(), keys.size - 1]
    for key, low, high in zip(keys.take(last).tolist(), [-1, *last], last):
        counts[key] = counts.get(key, 0) + high - low


def _weighted_sum(values: np.ndarray, counts: Sequence[int]) -> float:
    """The correctly rounded value of sum(count * value) over the finite
    floats ``values`` and the integers ``counts``, summed exactly.

    Each value is m * 2^e with 2^53 m an integer (``np.frexp``), so the sum
    is an integer over a power of two, and Python's division of two integers
    is correctly rounded.  This equals ``math.fsum`` of the list in which
    each value appears ``count`` times, +0.0 for an all-zero sum included; a
    sum beyond the float range raises OverflowError, as ``fsum`` does.
    """
    fraction, exponent = np.frexp(values)
    fraction *= 9007199254740992.0  # 2^53: every fraction is now an integer
    exponent = exponent.tolist()
    low = min(exponent)
    total = sum(map(int.__lshift__, map(operator.mul, map(int, fraction.tolist()), counts),
                    map(low.__rsub__, exponent)))  # count * mantissa << (exponent - low)
    scale = 53 - low
    return total / (1 << scale) if scale >= 0 else float(total << -scale)


def quantum_I_closed_form(n: int, theta: float) -> float:
    """Direct substitution of the fringe law into the chained sum.

    With the adjacent phase a = theta / 2N, the closing concordance
    (1 + cos((2N-1) a)) / 2 and each adjacent discordance (1 - cos a) / 2 are
    written as cos^2((2N-1) a / 2) and sin^2(a / 2), so no digits cancel at
    small a.  At theta = pi this is 2N sin^2(pi / 4N) = N (1 - cos(pi / 2N)):
    strictly positive for every finite N, decreasing, with N * I tending to
    pi^2 / 8.
    """
    n = _chain_length(n, "n")
    _phase_spread(theta)
    half_adj = theta / (4 * n)
    closing = math.cos((2 * n - 1) * half_adj)
    adjacent = math.sin(half_adj)
    return closing * closing + (2 * n - 1) * adjacent * adjacent


def quantum_I_closed_form_array(ns: np.ndarray, theta: float) -> np.ndarray:
    """:func:`quantum_I_closed_form` at every chain length of the integer
    array ``ns`` (each >= 2), with the same formula; a ``theta`` outside
    [0, inf) is a ValueError, as there."""
    _phase_spread(theta)
    half_adj = theta / (4 * ns)
    closing = np.cos((2 * ns - 1) * half_adj)
    adjacent = np.sin(half_adj)
    return closing * closing + (2 * ns - 1) * adjacent * adjacent


def lhv_minimum_I(n: int) -> LhvMinimum:
    """Minimum of the chained value over the 4^N deterministic strategies.

    Deterministic outcomes make every term an indicator, so the value does
    not depend on the phase spread theta.  The minimum is 1 by parity: endpoints that agree score the closing term,
    endpoints that differ need an odd number of adjacent flips.  The
    reported strategy, all -1, is the first minimizer in ascending word
    order (bit i of the word is setting l_i, set bit = +1).
    """
    n = _chain_length(n, "n")
    return LhvMinimum(value=1.0, strategy=(-1,) * (2 * n), n_strategies=4 ** n)


def boundedness_check(n_max: int) -> BoundednessReport:
    """Verify the quantum pi-chain stays strictly positive and decreasing.

    Also checks the closing-pair concordance (1 - cos(pi/2N))/2 stays above
    its Phi = pi value of zero, the monotonicity step behind the
    no-maximal-nonlocality argument.  Both are evaluated as sin^2(pi/4N), so
    no digits cancel at large N.
    """
    n_max = _chain_length(n_max, "n_max")
    ns = np.arange(2, n_max + 1, dtype=float)
    closing = np.sin(math.pi / (4.0 * ns)) ** 2
    i_values = 2.0 * ns * closing
    return BoundednessReport(
        n_max=n_max,
        all_positive=bool(np.all(i_values > 0.0)),
        strictly_decreasing=bool(np.all(np.diff(i_values) < 0.0)),
        closing_concordance_positive=bool(np.all(closing > 0.0)),
        tail_product=float(n_max * i_values[-1]),
        i_values=i_values,
    )
