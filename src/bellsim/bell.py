"""Chained Bell inequality engine over pluggable correlation models.

The chain uses 2N settings (N per side) whose phases equipartition a total
spread Theta, so every adjacent setting pair realizes the phase Theta/2N
while the closing pair realizes (2N-1)*Theta/2N.  The figure of merit

    I = P(a = b | closing pair) + sum over adjacent pairs of P(a != b)

satisfies I >= 1 for every locally deterministic assignment; I < 1 certifies
nonlocality, and I = 0 at finite N would be maximal nonlocality.  Provided
models, all array rules: the quantum fringe law, a sign-box that is
maximally nonlocal on pi-chains, the product-of-marginals model with all
correlations suppressed, and explicit deterministic strategies.  The local
bound I >= 1 follows from parity; the tests confirm it by enumerating every
deterministic strategy.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entangle import CorrelationModel, ideal_joint_probabilities, joint_probabilities

# Terms per rule evaluation; bounds each array of a chain, its exact sum's
# included, at 128 KiB a row.  glibc's default mmap and trim thresholds are
# 128 KiB too, so each batch's arrays are mapped fresh or left to a heap that
# is trimmed between batches: the chains of the deep benchmark's scans (seed
# 1) take about 1 620 minor page faults a pass (getrusage ru_minflt), and
# none with both thresholds raised.  They took 771 while each chain kept its
# terms in one array, as freeing that larger mapped block raises both.
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
        if self.n < 2:
            raise ValueError(f"need at least 2 settings per side, got n={self.n!r}")
        if not 0.0 <= self.theta < math.inf:
            raise ValueError(f"theta must be finite and >= 0, got {self.theta!r}")

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


def classify(i_value: float) -> Classification:
    if i_value <= 1e-12:
        return Classification.MAXIMAL_NONLOCAL
    if i_value >= 1.0:
        return Classification.LOCAL_COMPATIBLE
    return Classification.BOUNDED_NONLOCAL


def quantum_model(visibility: float = 1.0) -> CorrelationModel:
    """Fringe-law correlations, phase = difference of the setting phases."""

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        return ideal_joint_probabilities(phi_a - phi_b, visibility)

    return CorrelationModel(name="quantum", probabilities=probabilities)


def pr_box_model() -> CorrelationModel:
    """No-signaling box with perfect correlations flipping at cos(phase) = 0.

    Adjacent pairs of a pi-chain fall in the correlated half, the closing
    pair in the anticorrelated one, so I vanishes for every N: maximal
    nonlocality with uniform marginals.
    """

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        equal = np.where(np.cos(phi_a - phi_b) >= 0.0, 0.5, 0.0)
        differ = 0.5 - equal
        return np.stack((equal, differ, differ, equal))

    return CorrelationModel(name="pr_box", probabilities=probabilities)


def suppressed_nonlocality_model() -> CorrelationModel:
    """Product of the uniform marginals: all correlations removed."""

    def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
        return np.full((4, phi_a.size), 0.25)

    return CorrelationModel(name="suppressed_nonlocality", probabilities=probabilities)


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
    terms are evaluated by :func:`~bellsim.entangle.joint_probabilities` in
    batches of at most :data:`BATCH`, so an invalid distribution is rejected
    with the diagnostic of the first invalid term.  :func:`classify` names
    the class of I.

    I is the correctly rounded sum of the terms, ``math.fsum`` of them: plain
    accumulation loses ~2e-12 against the closed form at N = 10^4, and the
    N -> infinity limit that takes the paper's argument from nonlocality at
    detection to Bell nonlocality is read off these small sums.  Each batch's
    terms are written into one array of at most :data:`BATCH` floats, never
    into the model's, and split there into a few floats whose exact sum is
    the batch's (:func:`_exact_partials`), so ``fsum`` of all the batches'
    floats is ``fsum`` of the terms, bit for bit, wherever the batches split.
    No array outlives its batch or outgrows it: tracemalloc's peak for a
    call at N = 10^6 is 2.26 MiB, as at N = 10^5.
    """
    terms = 2 * cfg.n
    step = cfg.theta / terms
    values = np.empty(min(terms, BATCH))
    partials: list[float] = []
    for start in range(0, terms, BATCH):
        stop = min(start + BATCH, terms)
        low = np.arange(start - 1, stop - 1)  # k - 1 for the batch's terms k
        if start == 0:
            low[0] = 0
        odd = low & 1
        side_a = low + odd
        side_b = low + 1 - odd
        if start == 0:
            side_b[0] = terms - 1
        p = joint_probabilities(model, side_a * step, side_b * step)
        batch = values[:stop - start]
        np.add(p[1], p[2], out=batch)
        if start == 0:
            batch[0] = p[0, 0] + p[3, 0]
        partials += _exact_partials(batch)
    return math.fsum(partials)


def _exact_partials(x: np.ndarray) -> list[float]:
    """Floats whose exact sum is the exact sum of the finite array ``x``,
    which is overwritten (with zeros).

    Error-free extraction (Rump, Ogita and Oishi, "Accurate floating-point
    summation part I", SIAM J. Sci. Comput. 31(1), 2008, Lemma 3.3): with
    max|x| < 2^e and sigma = 2^(e + ceil(log2(len(x) + 2))), every
    q = (sigma + x) - sigma is a multiple of ulp(sigma)/2 and |sum q| <=
    sigma, so ``q.sum()`` is exact in any order, and so is x - q, whose
    magnitude is at most ulp(sigma)/2.  Each pass strips at least
    52 - ceil(log2(len(x) + 2)) bits off x (35 for a full batch), until it
    is zero.  sigma must not overflow: ``chained_I``'s terms are below 3.
    """
    q = np.empty_like(x)
    spread = (x.size + 1).bit_length()  # ceil(log2(len(x) + 2))
    partials = []
    while True:
        top = np.abs(x, out=q).max()
        if top == 0.0:
            return partials
        sigma = math.ldexp(1.0, math.frexp(top)[1] + spread)
        np.add(x, sigma, out=q)
        q -= sigma
        partials.append(float(q.sum()))
        x -= q


def quantum_I_closed_form(n: int, theta: float) -> float:
    """Direct substitution of the fringe law into the chained sum.

    With the adjacent phase a = theta / 2N, the closing concordance
    (1 + cos((2N-1) a)) / 2 and each adjacent discordance (1 - cos a) / 2 are
    written as cos^2((2N-1) a / 2) and sin^2(a / 2), so no digits cancel at
    small a.  At theta = pi this is 2N sin^2(pi / 4N) = N (1 - cos(pi / 2N)):
    strictly positive for every finite N, decreasing, with N * I tending to
    pi^2 / 8.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")
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
    if n < 2:
        raise ValueError(f"need n >= 2, got {n!r}")
    return LhvMinimum(value=1.0, strategy=(-1,) * (2 * n), n_strategies=4 ** n)


def boundedness_check(n_max: int) -> BoundednessReport:
    """Verify the quantum pi-chain stays strictly positive and decreasing.

    Also checks the closing-pair concordance (1 - cos(pi/2N))/2 stays above
    its Phi = pi value of zero, the monotonicity step behind the
    no-maximal-nonlocality argument.  Both are evaluated as sin^2(pi/4N), so
    no digits cancel at large N.
    """
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max!r}")
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
