#!/usr/bin/env python3
"""Two-photon interferometry: how entanglement survives the spectral model.

Photon pairs from a narrow pump feed two unbalanced interferometers.  Four
path classes reach the detectors; broadband down-conversion kills every
interference term except (long,long) vs (short,short), and a coincidence
window discards the mixed-arrival classes.  What remains is the
maximally-entangled fringe in the concordance probability, with uniform
marginals on both sides (no signaling).
"""

import math

import numpy as np

from bellsim import (
    RATIO_THRESHOLD,
    FransonConfig,
    Spectrum,
    check_entanglement_conditions,
    ideal_joint_distribution,
    marginal,
    no_signaling_residual,
    physical_joint_distribution,
    pr_box_model,
    quantum_model,
)

TWO_PI = 2.0 * math.pi


def build_config(mismatch_fraction=0.001, window="auto", carrier_extra=0.0):
    """Delays ~1 ns, pump coherence 1 us, photon coherence 1 ps."""
    tau = 1e-9
    dw_pump = TWO_PI / (1000 * tau)
    dw_off = TWO_PI * 1000 / tau
    mismatch = mismatch_fraction * (TWO_PI / dw_off)
    tau_a, tau_b = tau, tau - mismatch
    pump_center = 2.0 * (1000 * TWO_PI + carrier_extra) / (tau_a + tau_b)
    return FransonConfig(
        pump=Spectrum("rectangular", pump_center, dw_pump),
        photon_offset=Spectrum("rectangular", 0.0, dw_off, signed=True),
        tau_a=tau_a, tau_b=tau_b,
        coincidence_window=(0.5 * min(tau_a, tau_b)) if window == "auto" else window,
    )


def main():
    print("=" * 64)
    print("1. Coherence conditions")
    print("=" * 64)
    cfg = build_config()
    report = check_entanglement_conditions(cfg)
    for name, ratio in report.ratios.items():
        print(f"   {name:20s} ratio = {ratio:10.3g}")
    print(f"   satisfied at threshold {RATIO_THRESHOLD:g}: {report.satisfied}")

    print()
    print("=" * 64)
    print("2. Concordance fringe of the full spectral model")
    print("=" * 64)
    print("   carrier offset/pi    P(a=b)   vs ideal (1 + V cos)/2")
    for extra in np.linspace(0.0, math.pi, 5):
        result = physical_joint_distribution(build_config(carrier_extra=float(extra)))
        ideal = ideal_joint_distribution(result.mean_phase, result.visibility)
        print(f"   {extra / math.pi:10.2f}      {result.distribution.p_equal:8.6f}   {ideal.p_equal:8.6f}")
    result = physical_joint_distribution(build_config())
    print(f"   visibility = {result.visibility:.6f}, kept classes = {result.kept_classes}")
    print(f"   marginals  = {marginal(result.distribution, 'A'):.6f}, "
          f"{marginal(result.distribution, 'B'):.6f}")

    print()
    print("=" * 64)
    print("3. What breaks the fringe")
    print("=" * 64)
    no_window = physical_joint_distribution(build_config(window=None))
    print(f"   without the coincidence window: visibility = {no_window.visibility:.4f} "
          f"(mixed-arrival classes dilute the fringe to <= 1/2)")
    washed = physical_joint_distribution(build_config(mismatch_fraction=1.0))
    print(f"   delay mismatch spanning a photon coherence turn: "
          f"visibility = {washed.visibility:.2e}")

    print()
    print("=" * 64)
    print("4. No signaling either way")
    print("=" * 64)
    grid = np.linspace(0.0, TWO_PI, 32)
    print(f"   quantum rule   max marginal shift: "
          f"{no_signaling_residual(quantum_model(), grid, grid):.2e}")
    print(f"   sign-box rule  max marginal shift: "
          f"{no_signaling_residual(pr_box_model(), grid, grid):.2e}")


if __name__ == "__main__":
    main()
