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
from .probability import check_batch

# Terms per batch; bounds each array of a chain at 128 KiB a row.  On the
# difference path (the quantum, PR-box and suppressed models) a batch's
# setting phases are written into buffers made once per call and sorted in
# place, so a warm chained_I(quantum_model(), n=10^5) takes no minor page
# faults (getrusage ru_minflt), nor do the chains of a warm pass of the deep
# benchmark's scans (seed 1).  The batch path makes each batch's arrays anew.
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

    Settings are recognized by their phase on the equipartition grid, so the
    model only accepts the phases of ``cfg`` (and needs theta > 0 to tell
    them apart).
    """
    outcomes = tuple(outcomes)
    if len(outcomes) != 2 * cfg.n:
        raise ValueError(f"need {2 * cfg.n} outcomes, got {len(outcomes)}")
    if any(o not in (1, -1) for o in outcomes):
        raise ValueError("outcomes must be +-1")
    if cfg.theta <= 0.0:
        raise ValueError("setting phases are degenerate at theta = 0")
    step = cfg.theta / (2 * cfg.n)
    plus = np.array(outcomes) == 1

    def index_of(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        i = np.rint(phi / step)  # round half to even, like round()
        bad = ~((i >= 0) & (i < 2 * cfg.n) & (np.abs(phi - i * step) <= 1e-9 * max(step, 1.0)))
        return np.where(bad, 0, i).astype(np.intp), bad

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        ia, bad_a = index_of(phi_a)
        ib, bad_b = index_of(phi_b)
        bad = bad_a | bad_b
        if bad.any():
            m = int(np.argmax(bad))
            phi = float(phi_a[m] if bad_a[m] else phi_b[m])
            raise ValueError(f"phase {phi!r} is not one of the chain settings")
        a, b = plus[ia], plus[ib]
        return np.stack((a & b, a & ~b, ~a & b, ~a & ~b)).astype(float)

    return CorrelationModel(name="local_deterministic", probabilities=probabilities)


def chained_I(model, cfg: ChainedConfig) -> float:
    """The chained figure of merit I of a correlation model.

    Term 0 is the closing pair (settings 0 and 2N-1), term k >= 1 the
    adjacent pair (k-1, k); the even setting of a pair is side A's.  The
    setting phases are formed in batches of at most :data:`BATCH` terms, and
    an invalid distribution is rejected with the diagnostic of the first
    invalid term, as :func:`~bellsim.entangle.joint_probabilities` gives it.
    :func:`classify` names the class of I.

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
    call at N = 10^6 is 0.40 MiB on the difference path and 1.88 MiB on the
    batch path, as at N = 10^5.
    """
    law = model.difference if isinstance(model, CorrelationModel) else None
    if law is not None:
        value = _sum_by_difference(law, cfg)
        if value is not None:
            return value
    return _sum_by_batch(model, cfg)


def _sum_by_batch(model, cfg: ChainedConfig) -> float:
    """I from the model's rule at every term: ``math.fsum`` of the 2N terms.

    The terms are formed a batch at a time, and each batch reaches the sum
    in place through a memoryview, so no list of the terms is made.  Setting
    i's phase is the exact integer i times step, the bits of
    ``cfg.settings``.
    """
    terms = 2 * cfg.n
    step = cfg.theta / terms

    def batches():
        for start in range(0, terms, BATCH):
            k = np.arange(start, min(start + BATCH, terms))
            # term k pairs settings k - 1 and k; the even one is side A's
            a, b = (k & -2) * step, ((k - 1) | 1) * step
            if start == 0:
                b[0] = (terms - 1) * step  # the closing pair; a[0] is setting 0's
            p = joint_probabilities(model, a, b)
            values = p[1] + p[2]
            if start == 0:
                values[0] = p[0, 0] + p[3, 0]
            yield memoryview(values)

    return math.fsum(itertools.chain.from_iterable(batches()))


def _sum_by_difference(law, cfg: ChainedConfig) -> float | None:
    """I from the difference law ``law``, evaluated once per distinct
    difference; None if the check rejects the law there.

    Each batch's setting phases are those of :func:`_sum_by_batch`, the bits
    of i * step for setting i, and each term's difference is phi_a - phi_b,
    the subtraction the model's rule makes.  The differences are counted by
    their bits (as int64, so -0.0 and 0.0 stay apart), and the law is called
    once, on the closing difference and the distinct adjacent ones.  Equal
    differences give equal columns, so the check accepts exactly when it
    accepts every batch of the batch path, and the terms, each weighted by
    its count, are that path's terms: :func:`_weighted_sum` of them is their
    ``fsum``.
    """
    terms = 2 * cfg.n
    step = cfg.theta / terms
    size = min(terms, BATCH)
    settings = np.arange(-1.0, size)  # setting start - 1 + j at index j
    phi, differences = np.empty(size + 1), np.empty(size)
    counts: dict[int, int] = {}
    for start in range(0, terms, BATCH):
        count = min(BATCH, terms - start)
        if start:
            settings += BATCH
        s = np.multiply(settings[:count + 1], step, out=phi[:count + 1])
        # Term start + j pairs settings start + j - 1 and start + j, s[j] and
        # s[j + 1]; start is even, so side A's is s[j + 1] at even j.
        d = differences[:count]
        np.subtract(s[1:count:2], s[0:count:2], out=d[0::2])
        np.subtract(s[1:count:2], s[2::2], out=d[1::2])
        if start == 0:
            closing = s[1] - (terms - 1) * step  # settings 0 and 2N - 1
            d = d[1:]
        _count_bits(d, counts)
    phases = np.array([0, *counts], dtype=np.int64).view(float)
    phases[0] = closing
    p = np.asarray(law(phases), dtype=float)
    if p.shape != (4, phases.size):
        return None
    try:
        check_batch(p, "joint probabilities")
    except ValueError:
        return None
    values = np.add(p[1], p[2])
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
    half_adj = theta / (4 * n)
    closing = math.cos((2 * n - 1) * half_adj)
    adjacent = math.sin(half_adj)
    return closing * closing + (2 * n - 1) * adjacent * adjacent


def quantum_I_closed_form_array(ns: np.ndarray, theta: float) -> np.ndarray:
    """:func:`quantum_I_closed_form` at every chain length of the integer
    array ``ns`` (each >= 2), with the same formula."""
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
