#!/usr/bin/env python3
"""Chained Bell inequalities: local, quantum, and stronger-than-quantum.

The chain value I sums one concordance term (closing pair) and 2N-1
discordance terms (adjacent pairs).  Every locally deterministic strategy
gives I >= 1 -- verified here by brute force.  The quantum fringe law gives
I(N, pi) = N (1 - cos(pi/2N)) > 0: nonlocal, but never reaching zero at
finite N.  A sign-box reaches zero everywhere, and the
product-of-marginals model sits at 2, deep in local territory.
"""

import math

from bellsim import (
    ChainedConfig,
    boundedness_check,
    chained_I,
    classify,
    deterministic_strategy_value,
    lhv_minimum_I,
    pr_box_model,
    quantum_I_closed_form,
    quantum_model,
    suppressed_nonlocality_model,
)

PI = math.pi


def main():
    print("=" * 64)
    print("1. The CHSH point (N = 2, theta = pi)")
    print("=" * 64)
    cfg = ChainedConfig(n=2, theta=PI)
    rows = [
        ("sign box (max nonlocal)", chained_I(pr_box_model(), cfg)),
        ("quantum fringe law", chained_I(quantum_model(), cfg)),
        ("suppressed correlations", chained_I(suppressed_nonlocality_model(), cfg)),
    ]
    lhv = lhv_minimum_I(2)
    for name, value in rows:
        print(f"   {name:26s} I = {value:.6f}  [{classify(value).value}]")
    print(f"   {'best deterministic':26s} I = {lhv.value:.6f}  "
          f"(parity bound over {lhv.n_strategies} strategies)")
    print(f"   quantum value 2 - sqrt(2) = {2 - math.sqrt(2):.6f}")

    print()
    print("=" * 64)
    print("2. Local bound (parity: differing ends need an odd number of flips), N = 2..8")
    print("=" * 64)
    print("   N   strategies      min I")
    for n in range(2, 9):
        result = lhv_minimum_I(n)
        print(f"   {n}   {result.n_strategies:10d}      {result.value}")
    print("   a flipped chain pays one discordance per sign change:")
    for outcomes in ((1, 1, 1, 1), (1, 1, -1, -1), (1, -1, 1, -1)):
        print(f"      strategy {outcomes} -> I = {deterministic_strategy_value(outcomes)}")

    print()
    print("=" * 64)
    print("3. Longer chains squeeze the quantum value toward zero")
    print("=" * 64)
    print("   N        I(N, pi)          N * I")
    for n in (2, 4, 16, 64, 256, 1024, 10 ** 4, 10 ** 6):
        value = quantum_I_closed_form(n, PI)
        print(f"   {n:<8d} {value:.10e}    {n * value:.6f}")
    print(f"   N * I tends to pi^2/8 = {PI ** 2 / 8:.6f}: positive at every finite N")

    report = boundedness_check(1024)
    print()
    print(f"   boundedness check to N = {report.n_max}: "
          f"all positive = {report.all_positive}, "
          f"strictly decreasing = {report.strictly_decreasing}")

    print()
    print("=" * 64)
    print("4. And at theta = 0 the chain saturates the local bound")
    print("=" * 64)
    for n in (2, 100, 10 ** 6):
        print(f"   I({n}, 0) = {quantum_I_closed_form(n, 0.0)}")


if __name__ == "__main__":
    main()
