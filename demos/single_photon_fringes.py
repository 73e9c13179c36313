#!/usr/bin/env python3
"""Single-photon interference from monochromatic fringes to washout.

Walks the first rung of the ladder: the fringe law P(a|phi), what a finite
source bandwidth does to it, the coherence-time condition separating wave
from particle behavior, and the time-energy uncertainty product that the
condition implies.
"""

import math

import numpy as np

from bellsim import (
    PLANCK_CONSTANT,
    RATIO_THRESHOLD,
    InterferometerConfig,
    Spectrum,
    classify_interference,
    coherence_time,
    heisenberg_product,
    probability_monochromatic,
    probability_wavepacket,
)

TWO_PI = 2.0 * math.pi


def sparkline(values, width=48):
    marks = " .:-=+*#%@"
    out = []
    for v in values:
        idx = min(int(v * (len(marks) - 1) + 0.5), len(marks) - 1)
        out.append(marks[idx])
    return "".join(out)


def main():
    print("=" * 64)
    print("1. Monochromatic fringe: P(+1|phi) = (1 + cos phi)/2")
    print("=" * 64)
    phis = np.linspace(0.0, TWO_PI, 48)
    fringe = [probability_monochromatic(+1, float(p)) for p in phis]
    print(f"   phi in [0, 2pi):  {sparkline(fringe)}")
    print(f"   P(+1|0)    = {probability_monochromatic(+1, 0.0)}")
    print(f"   P(+1|pi/2) = {probability_monochromatic(+1, math.pi / 2)}")
    print(f"   P(+1|pi)   = {probability_monochromatic(+1, math.pi)}")

    print()
    print("=" * 64)
    print("2. Wave packets: bandwidth * delay decides the contrast")
    print("=" * 64)
    print("   bandwidth*tau      P(+1) at center phase 0 (mod 2pi)")
    for dw_tau in (1e-6, math.pi / 2, math.pi, 1.5 * math.pi, TWO_PI):
        cfg = InterferometerConfig(
            path_delay_tau=1.0,
            source=Spectrum("rectangular", center=40 * TWO_PI, bandwidth=dw_tau),
        )
        p = probability_wavepacket(+1, cfg)
        print(f"   {dw_tau:12.6f}    {p:.10f}")
    print("   -> at a full turn (2*pi) the frequencies average the fringe away")

    print()
    print("=" * 64)
    print(f"3. Coherence-time regimes (threshold ratio {RATIO_THRESHOLD:g})")
    print("=" * 64)
    for ratio in (1000.0, 10.0, 0.5):
        cfg = InterferometerConfig(
            path_delay_tau=1.0,
            source=Spectrum("rectangular", center=1000.0, bandwidth=TWO_PI / ratio),
        )
        tau_c = coherence_time(cfg.source)
        regime = classify_interference(cfg).value
        print(f"   tau_c/tau = {tau_c:8.2f}  ->  {regime}")

    print()
    print("=" * 64)
    print("4. The price of interference: emission-time uncertainty")
    print("=" * 64)
    ghz = Spectrum("rectangular", center=2.4e15, bandwidth=TWO_PI * 1e9)
    tau_c = coherence_time(ghz)
    product = heisenberg_product(ghz)
    print(f"   1 GHz linewidth -> coherence time {tau_c:.3e} s")
    print(f"   tau_c * dE = {product:.6e} J s = {product / PLANCK_CONSTANT:.12f} h")
    print(f"   doubling tau_c -> {heisenberg_product(ghz, tau_c=2 * tau_c) / PLANCK_CONSTANT:.1f} h "
          f"(never below h)")


if __name__ == "__main__":
    main()
