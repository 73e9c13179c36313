"""Falsification of biased-marginal extensions of the fringe-law correlations.

No-signaling bounds the statistical distance D between any subensemble's
outcome distribution and the uniform one by :data:`BOUND_FACTOR` times the
chained figure of merit.  Because the quantum pi-chain value can be driven
arbitrarily close to zero by raising N, any model positing D > 0 is
contradicted by some finite chain; :func:`find_falsifying_N` locates the smallest such N and
:func:`leggett_inconsistency_demo` packages the whole argument for an
explicit two-subensemble model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bell import (
    BATCH,
    ChainedConfig,
    CorrelationModel,
    _chain_length,
    _phase_spread,
    chained_I,
    quantum_I_closed_form,
    quantum_I_closed_form_array,
    quantum_model,
)
from .entangle import marginal
from .probability import check_distribution

# The factor c of the no-signaling bound D <= c * I(N) on a subensemble's
# distance from uniform, in every bound this module computes; ROADMAP item 13
# decides its value.
BOUND_FACTOR = 1.5
_FIRST_CHUNK = 64  # chain lengths in the first scan chunk; later chunks double
# The longest cap up to which the tests check that the float pi-chain bound
# BOUND_FACTOR * I(N, pi) never rises, so that bisection finds the scan's
# witness; it covers every cap the CLI accepts.
_MONOTONE_UP_TO = 10 ** 7


class FalsificationCapError(RuntimeError):
    """No chain length up to the cap pushed the bound below the distance."""

    def __init__(self, distance: float, n_cap: int, bound_at_cap: float):
        self.distance = distance
        self.n_cap = n_cap
        self.bound_at_cap = bound_at_cap
        super().__init__(
            f"no N <= {n_cap} with bound < {distance!r}: bound at the cap is "
            f"{bound_at_cap!r}"
        )


@dataclass(frozen=True)
class DistanceReport:
    distance: float
    bound: float  # BOUND_FACTOR * I(N)
    violated: bool
    i_value: float


@dataclass(frozen=True)
class FalsificationWitness:
    n: int
    bound: float
    i_value: float
    previous_bound: float | None  # None when n == 2
    previous_i: float | None
    distance: float


@dataclass(frozen=True)
class LeggettReport:
    bias: float
    measured_distance: float
    subensemble_marginals: tuple[tuple[float, float], tuple[float, float]]
    witness: FalsificationWitness
    inconsistent: bool


def statistical_distance(p: Sequence[float], q: Sequence[float]) -> float:
    """Total variation distance between two two-outcome distributions, each
    checked by :func:`~bellsim.probability.check_distribution`."""
    for name, dist in (("p", p), ("q", q)):
        if len(dist) != 2:
            raise ValueError(f"{name} must have two entries, got {len(dist)}")
        check_distribution(dist, name)
    return 0.5 * (abs(p[0] - q[0]) + abs(p[1] - q[1]))


def colbeck_renner_bound(
    n: int, theta: float, model, distance: float
) -> DistanceReport:
    """Evaluate the no-signaling bound BOUND_FACTOR * I(N) and compare a
    claimed D."""
    if not 0.0 <= distance <= 1.0:
        raise ValueError(f"distance must lie in [0, 1], got {distance!r}")
    i_value = chained_I(model, ChainedConfig(n=n, theta=theta))
    bound = BOUND_FACTOR * i_value
    return DistanceReport(
        distance=distance, bound=bound, violated=distance > bound, i_value=i_value,
    )


def find_falsifying_N(
    distance: float, theta: float = math.pi, n_cap: int = 1_000_000
) -> FalsificationWitness:
    """Smallest N whose quantum bound BOUND_FACTOR * I(N, theta) drops below D.

    At theta = pi with a cap of at most ``_MONOTONE_UP_TO`` (10^7), bisects
    [2, n_cap] with the scalar :func:`quantum_I_closed_form`, in about
    log2(n_cap) evaluations.  The result is the scan's, exactly: the float
    bound BOUND_FACTOR * I(N, pi) never rises from one N to the next up to
    that cap (the tests check every step), so "bound < D" is false below the
    witness and true from it on.  At any other angle, or a larger cap, the
    bound need not be monotone, and the search scans upward from N = 2 over
    chunks of the array closed form (64 chain lengths at first, doubling up
    to :data:`~bellsim.bell.BATCH`), which equals the scalar form bit for
    bit.  The witness reports the bound on both sides of the crossing.
    Raises :class:`FalsificationCapError` (carrying the bound at the cap) if
    no N up to the cap is below D; at theta = pi, exactly when the bound at
    the cap is not.  Like :class:`~bellsim.bell.ChainedConfig`, it takes
    only a finite theta >= 0 and an integer cap >= 2, with its texts.
    """
    if not 0.0 < distance <= 1.0:
        raise ValueError(f"distance must lie in (0, 1], got {distance!r}")
    n_cap = _chain_length(n_cap, "n_cap")
    _phase_spread(theta)
    if theta == math.pi and n_cap <= _MONOTONE_UP_TO:
        n = _bisect_pi_chain(distance, n_cap)
    else:
        n = _scan_chain(distance, theta, n_cap)
    if n is None:
        raise FalsificationCapError(distance, n_cap,
                                     BOUND_FACTOR * quantum_I_closed_form(n_cap, theta))
    i_value = quantum_I_closed_form(n, theta)
    previous_i = quantum_I_closed_form(n - 1, theta) if n > 2 else None
    return FalsificationWitness(
        n=n, bound=BOUND_FACTOR * i_value, i_value=i_value,
        previous_bound=None if previous_i is None else BOUND_FACTOR * previous_i,
        previous_i=previous_i,
        distance=distance,
    )


def _bisect_pi_chain(distance: float, n_cap: int) -> int | None:
    """Smallest N in [2, n_cap] with BOUND_FACTOR * I(N, pi) < D, or None;
    the bound must not rise over that range."""
    if not BOUND_FACTOR * quantum_I_closed_form(n_cap, math.pi) < distance:
        return None
    low, high = 1, n_cap  # the bound is below D at high and not at low (or low < 2)
    while high - low > 1:
        mid = (low + high) // 2
        if BOUND_FACTOR * quantum_I_closed_form(mid, math.pi) < distance:
            high = mid
        else:
            low = mid
    return int(high)


def _scan_chain(distance: float, theta: float, n_cap: int) -> int | None:
    """First N in [2, n_cap] with BOUND_FACTOR * I(N, theta) < D, or None."""
    start, size = 2, _FIRST_CHUNK
    while start <= n_cap:
        ns = np.arange(start, min(start + size, n_cap + 1))
        below = np.flatnonzero(BOUND_FACTOR * quantum_I_closed_form_array(ns, theta) < distance)
        if below.size:
            return int(ns[below[0]])
        start += size
        size = min(2 * size, BATCH)
    return None


@dataclass(frozen=True)
class BiasedMarginalModel:
    """Two equal-weight subensembles whose A-side marginals are 1/2 +- bias.

    Each subensemble reweights the base joint law by (1 + 2*bias*a) or its
    mirror, so the whole-ensemble mixture restores the base model exactly
    while each half exhibits the prescribed statistical distance from the
    uniform outcome distribution.
    """

    base: CorrelationModel
    bias: float

    def __post_init__(self):
        if not 0.0 <= self.bias <= 0.5:
            raise ValueError(f"bias must lie in [0, 1/2], got {self.bias!r}")

    def subensemble_rule(self, k: int) -> CorrelationModel:
        if k not in (0, 1):
            raise ValueError(f"subensemble index must be 0 or 1, got {k!r}")
        sign = 1.0 if k == 0 else -1.0
        factor = 2.0 * self.bias * sign
        # rows pp, pm (a = +1) and mp, mm (a = -1)
        weights = np.array([[1.0 + factor], [1.0 + factor], [1.0 - factor], [1.0 - factor]])
        base = self.base.probabilities

        def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
            return base(phi_a, phi_b) * weights

        return CorrelationModel(name=f"{self.base.name}_biased_{k}", probabilities=probabilities)

    def ensemble_rule(self) -> CorrelationModel:
        sub0 = self.subensemble_rule(0).probabilities
        sub1 = self.subensemble_rule(1).probabilities

        def probabilities(phi_a: np.ndarray, phi_b: np.ndarray) -> np.ndarray:
            return 0.5 * (sub0(phi_a, phi_b) + sub1(phi_a, phi_b))

        return CorrelationModel(name=f"{self.base.name}_biased_mixture",
                                probabilities=probabilities)

    def subensemble_marginal(self, k: int) -> tuple[float, float]:
        """A-side outcome distribution (+1, -1) of subensemble k at zero
        setting phases."""
        d = self.subensemble_rule(k).rule(0.0, 0.0)
        p_plus = marginal(d, "A")
        return (p_plus, 1.0 - p_plus)


def leggett_inconsistency_demo(bias: float) -> LeggettReport:
    """Build the biased-marginal model, measure its D, and exhibit the pi-chain
    length whose no-signaling bound it violates."""
    if not 0.0 < bias <= 0.5:
        raise ValueError(f"bias must lie in (0, 1/2], got {bias!r}")
    model = BiasedMarginalModel(base=quantum_model(), bias=bias)
    uniform = (0.5, 0.5)
    marg0 = model.subensemble_marginal(0)
    marg1 = model.subensemble_marginal(1)
    measured = statistical_distance(marg0, uniform)
    witness = find_falsifying_N(measured)
    return LeggettReport(
        bias=bias,
        measured_distance=measured,
        subensemble_marginals=(marg0, marg1),
        witness=witness,
        inconsistent=measured > witness.bound,
    )
