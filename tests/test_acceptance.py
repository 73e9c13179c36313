"""Acceptance suite: every release criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import mpmath
import numpy as np

from bellsim.bell import (
    ChainedConfig,
    chained_I,
    lhv_minimum_I,
    pr_box_model,
    quantum_I_closed_form,
    quantum_model,
    suppressed_nonlocality_model,
)
from bellsim import cli
from bellsim.cli import main
from bellsim.entangle import (
    FransonConfig,
    check_entanglement_conditions,
    ideal_joint_distribution,
    marginal,
    no_signaling_residual,
    physical_joint_distribution,
)
from bellsim.extensions import find_falsifying_N
from bellsim.interferometer import (
    InterferometerConfig,
    local_detection_distribution,
    probability_monochromatic,
    probability_wavepacket,
    quantum_detection_distribution,
    sample_events,
)
from bellsim.measurement import (
    PathAmplitudes,
    is_valid_quantum_measurement,
    outcome_distribution,
    pi_quarter_model,
    symmetric_beam_splitter,
    unitarity_residual,
)
from bellsim.spectra import PLANCK_CONSTANT, Spectrum, coherence_time, heisenberg_product
from test_cli import SPLIT_ROWS, _forks

TWO_PI = 2.0 * math.pi
PI = math.pi


def check(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number:02d} {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number:02d} {label}: {detail}"


def test_criterion_01_monochromatic_interference():
    exact = (
        probability_monochromatic(+1, 0.0) == 1.0
        and probability_monochromatic(-1, PI) == 1.0
        and math.isclose(probability_monochromatic(+1, PI), 3.749399456654644e-33,
                         rel_tol=1e-15, abs_tol=0.0)
    )
    worst = max(
        abs(probability_monochromatic(+1, float(p)) + probability_monochromatic(-1, float(p)) - 1.0)
        for p in np.linspace(0.0, TWO_PI, 1000)
    )
    check(1, "monochromatic fringe endpoints and normalization",
          exact and worst <= 1e-12, f"worst |sum-1| = {worst:.2e}")


def test_criterion_02_washout():
    worst = 0.0
    # fractional turns sweep the center phase through the whole fringe
    for turns in (5.0, 12.125, 40.3, 73.5, 150.71, 311.9, 1000.0):
        cfg = InterferometerConfig(
            path_delay_tau=1.0,
            source=Spectrum("rectangular", center=turns * TWO_PI, bandwidth=TWO_PI),
        )
        for a in (+1, -1):
            worst = max(worst, abs(probability_wavepacket(a, cfg, 1e-10) - 0.5))
    check(2, "full-turn bandwidth washes the fringe out to 1/2",
          worst <= 1e-8, f"worst |P-1/2| = {worst:.2e}")


def test_criterion_03_heisenberg_equality_point():
    spectrum = Spectrum("rectangular", center=2.4e15, bandwidth=TWO_PI * 1e9)
    ratio = heisenberg_product(spectrum, tau_c=coherence_time(spectrum)) / PLANCK_CONSTANT
    check(3, "time-energy product equals h at the minimal coherence time",
          abs(ratio - 1.0) <= 1e-12, f"product/h = {ratio!r}")


def test_criterion_04_unitarity():
    sym_residual = unitarity_residual(symmetric_beam_splitter())
    counterexample = pi_quarter_model()
    total = outcome_distribution(counterexample, PathAmplitudes.balanced(), PI / 4).total
    flagged = not is_valid_quantum_measurement(counterexample).valid
    ok = (
        sym_residual < 1e-15
        and abs(total - (1.0 + math.sqrt(2.0) / 2.0)) <= 1e-12
        and flagged
    )
    check(4, "splitter unitarity and the pi/4 counterexample",
          ok, f"residual = {sym_residual:.2e}, total(pi/4) = {total!r}")


def test_criterion_05_franson_ideal():
    points = (
        ideal_joint_distribution(0.0).p_equal == 1.0
        and ideal_joint_distribution(PI / 2).p_equal == 0.5
        and math.isclose(ideal_joint_distribution(PI).p_equal, 3.749399456654644e-33,
                         rel_tol=1e-15, abs_tol=0.0)
    )
    worst = max(
        max(abs(marginal(ideal_joint_distribution(float(p)), side) - 0.5) for side in "AB")
        for p in np.linspace(0.0, TWO_PI, 256)
    )
    check(5, "ideal joint law values and uniform marginals",
          points and worst <= 1e-12, f"worst |marginal-1/2| = {worst:.2e}")


def _franson_config(ratio_mismatch: float) -> FransonConfig:
    tau = 1e-9
    dw_pump = TWO_PI / (1e3 * tau)        # pump coherence ratio 10^3
    dw_off = TWO_PI * 1e3 / tau           # offset incoherence ratio 10^3
    mismatch = (TWO_PI / dw_off) / ratio_mismatch
    tau_a, tau_b = tau, tau - mismatch
    pump_center = 2.0 * (1000 * TWO_PI) / (tau_a + tau_b)
    return FransonConfig(
        pump=Spectrum("rectangular", pump_center, dw_pump),
        photon_offset=Spectrum("rectangular", 0.0, dw_off, signed=True),
        tau_a=tau_a, tau_b=tau_b,
        coincidence_window=0.5 * min(tau_a, tau_b),
    )


def test_criterion_06_franson_physical():
    start = time.monotonic()
    good = _franson_config(ratio_mismatch=1e3)
    assert check_entanglement_conditions(good).satisfied
    high = physical_joint_distribution(good).visibility
    washed = physical_joint_distribution(_franson_config(ratio_mismatch=1.0)).visibility
    elapsed = time.monotonic() - start
    ok = high >= 0.98 and washed <= 0.1 and elapsed <= 60.0
    check(6, "physical model visibility: coherent vs washed out",
          ok, f"V = {high:.6f}, washed V = {washed:.2e}, {elapsed:.2f}s")


def test_criterion_07_no_signaling():
    grid = np.linspace(0.0, TWO_PI, 32)
    quantum = no_signaling_residual(quantum_model(), grid, grid)
    pr = no_signaling_residual(pr_box_model(), grid, grid)
    check(7, "quantum and sign-box marginals ignore the remote setting",
          quantum <= 1e-12 and pr <= 1e-12,
          f"residuals {quantum:.2e}, {pr:.2e}")


def test_criterion_08_chained_inequality():
    cfg = ChainedConfig(n=2, theta=PI)
    chsh = chained_I(quantum_model(), cfg)
    ok = abs(chsh - (2.0 - math.sqrt(2.0))) <= 1e-12
    detail = [f"I(2,pi) = {chsh!r}"]

    lhv_ok = all(lhv_minimum_I(n).value == 1.0 for n in range(2, 9))
    ok = ok and lhv_ok
    detail.append(f"LHV minimum 1.0 for N=2..8: {lhv_ok}")

    pr = chained_I(pr_box_model(), cfg)
    suppressed = chained_I(suppressed_nonlocality_model(), cfg)
    ok = ok and pr == 0.0 and suppressed == 2.0
    detail.append(f"PR = {pr}, suppressed = {suppressed}")

    ns = np.arange(2, 10 ** 4 + 1, dtype=float)
    adj = PI / (2.0 * ns)
    eq_form = 0.5 * (1.0 + np.cos((2.0 * ns - 1.0) * adj)) + (2.0 * ns - 1.0) * 0.5 * (1.0 - np.cos(adj))
    simplified = ns * (1.0 - np.cos(adj))
    closed_dev = float(np.max(np.abs(eq_form - simplified)))
    monotone = bool(np.all(eq_form > 0.0) and np.all(np.diff(eq_form) < 0.0))
    sampled_dev = max(
        abs(chained_I(quantum_model(), ChainedConfig(n=n, theta=PI))
            - n * (1.0 - math.cos(PI / (2 * n))))
        for n in (2, 10, 100, 1000, 10 ** 4)
    )
    ok = ok and closed_dev <= 1e-12 and sampled_dev <= 1e-12 and monotone
    detail.append(f"closed-form dev {closed_dev:.1e}, chain dev {sampled_dev:.1e}")
    check(8, "chained values, local bound, and model hierarchy", ok, "; ".join(detail))


def test_criterion_09_limits_at_n_one_million():
    # On its way to 0 the pi-chain stands at exactly 2N sin^2(pi/4N) =
    # 1.2337e-6 at N = 10^6, just below its leading term pi^2/8N (sin x <= x);
    # it first reaches 1e-6 at N = 1 233 701 (tests/test_bell.py).
    n = 10 ** 6
    at_zero = quantum_I_closed_form(n, 0.0)
    at_pi = quantum_I_closed_form(n, PI)
    with mpmath.workdps(40):
        exact = float(2 * n * mpmath.sin(mpmath.pi / (4 * n)) ** 2)
    ok_zero = abs(at_zero - 1.0) <= 1e-6
    ok_exact = abs(at_pi - exact) <= 1e-12 * exact
    ok_leading = at_pi <= PI ** 2 / (8 * n)
    check(9, "chain limits at N = 10^6",
          ok_zero and ok_exact and ok_leading,
          f"I(1e6, 0) = {at_zero!r}; I(1e6, pi) = {at_pi!r}, "
          f"exact 2N sin^2(pi/4N) = {exact!r}, pi^2/8N = {PI ** 2 / (8 * n)!r}")


def test_criterion_10_falsification_witness():
    witness = find_falsifying_N(0.1, PI)
    ok = (
        witness.n == 19
        and witness.bound < 0.1
        and witness.previous_bound is not None
        and witness.previous_bound >= 0.1
    )
    ns = np.arange(2, 10 ** 4 + 1, dtype=float)
    bounds = 1.5 * ns * (1.0 - np.cos(PI / (2.0 * ns)))
    ok = ok and bool(np.all(bounds > 0.0))  # D = 0 never violates
    check(10, "distance 0.1 falsified first at N = 19; D = 0 never violated",
          ok, f"bounds at 18, 19: {witness.previous_bound!r}, {witness.bound!r}")


def test_criterion_11_counting_statistics():
    quantum_counts = sample_events(quantum_detection_distribution(0.7), 10 ** 6, seed=2)
    no_forbidden = quantum_counts.n_double == 0 and quantum_counts.n_null == 0

    local = sample_events(local_detection_distribution(PI / 2), 10 ** 6, seed=20260808)
    sigma = math.sqrt(10 ** 6 * 0.25 * 0.75)
    double_dev = abs(local.n_double - 250000.0)
    check(11, "one count per photon vs 25% double/null counting",
          no_forbidden and double_dev <= 4.0 * sigma,
          f"double-count rate {local.n_double / 1e6:.6f}, |dev| = {double_dev / sigma:.2f} sigma")


def test_criterion_12_cli_determinism(tmp_path, monkeypatch):
    args = ["sample", "--grid", f"phi=linspace:0:3.141592653589793:{SPLIT_ROWS}",
            "--seed", "31415", "--n", "2000", "--model", "local"]
    paths = [tmp_path / name for name in ("one.csv", "two.csv", "forked.csv")]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    forks = _forks(monkeypatch)
    assert main(args + ["--workers", "4", "--output", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    check(12, "byte-identical scan artifacts across runs and worker counts",
          blobs[0] == blobs[1] == blobs[2] and bool(forks) == (cli._usable_cpus() >= 2),
          f"{len(blobs[0])} bytes, {len(forks)} forked")
