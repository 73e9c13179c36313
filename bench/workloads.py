"""The scans each benchmark workload runs in one pass.

A workload is a fixed list of ``bellsim`` CLI scans run one after another
in one process (a closed loop with one client), plus library calls that the
CLI does not expose.  Grid values derive from the benchmark seed.  Anchor
values, which expose the defects the workloads exist to measure, are in the
grids for every seed, and seeded values are drawn so that the amount of work
in a pass does not depend on the seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Physical Franson set-up of the README example: a narrow pump at 2.4e15
# rad/s, a broad offset spectrum and nanosecond interferometer delays.
FRANSON_PHYSICAL = ("--mode", "physical", "--pump-center", "2.4e15",
                    "--pump-bandwidth", "6.28e3", "--offset-bandwidth", "6.28e12",
                    "--tau-a", "1e-9")


@dataclass(frozen=True)
class Scan:
    """One CLI invocation; ``argv`` omits ``--output``."""

    name: str
    argv: tuple[str, ...]
    grids: tuple[tuple[str, tuple[float, ...]], ...]  # axis -> values, CLI order

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def format(self) -> str:
        return "json" if "json" in self.argv else "csv"

    @property
    def params(self) -> dict[str, str]:
        """Subcommand flags other than the grids, as given on the command line."""
        params = {}
        it = iter(self.argv[1:])
        for flag in it:
            value = next(it)
            if flag != "--grid":
                params[flag[2:].replace("-", "_")] = value
        return params

    def points(self) -> list[tuple[float, ...]]:
        """Grid points in the order the CLI writes rows."""
        return list(itertools.product(*(values for _, values in self.grids)))


@dataclass(frozen=True)
class Workload:
    name: str
    scans: tuple[Scan, ...]
    lhv_n: tuple[int, ...] = ()  # lhv_minimum_I calls, one operation each

    @property
    def operations(self) -> int:
        """Rows of all scans plus library calls: what one pass attempts."""
        return sum(len(scan.points()) for scan in self.scans) + len(self.lhv_n)


def _listed(axis: str, values) -> tuple[str, tuple[float, ...], str]:
    """A grid given to the CLI as an explicit value list."""
    values = tuple(float(v) for v in values)
    return axis, values, f"{axis}=" + ",".join(repr(v) for v in values)


def _turn(axis: str, start: float, num: int) -> tuple[str, tuple[float, ...], str]:
    """A grid over a full turn of phase, given to the CLI as ``linspace:``."""
    stop = start + TWO_PI
    values = tuple(float(x) for x in np.linspace(start, stop, num))
    return axis, values, f"{axis}=linspace:{start!r}:{stop!r}:{num}"


def _scan(name: str, head: tuple[str, ...], grids, tail: tuple[str, ...] = ()) -> Scan:
    argv = list(head)
    for _, _, text in grids:
        argv += ["--grid", text]
    return Scan(name=name, argv=tuple(argv) + tuple(tail),
                grids=tuple((axis, values) for axis, values, _ in grids))


def chain_scans(rng: random.Random) -> tuple[Scan, ...]:
    """The N -> infinity and D -> 0 limit: long chains and long witness searches."""
    # Two seeded chain lengths with a fixed sum keep the term count constant.
    n1 = rng.randint(3000, 5000)
    # Seeded distances stay above 1e-3, where witnesses are short (N < 2000);
    # the expensive long searches are the fixed anchors.
    seeded_d = sorted((10.0 ** rng.uniform(-3.0, -1.0) for _ in range(15)), reverse=True)
    return (
        _scan("chained_quantum", ("chained",),
              [_listed("n", [1000, n1, 8000 - n1, 10000, 100000])]),
        _scan("chained_v09", ("chained",), [_listed("n", [30000])],
              ("--visibility", "0.9")),
        _scan("chained_pr_box", ("chained",), [_listed("n", [10000])],
              ("--model", "pr_box")),
        _scan("extensions", ("extensions",),
              [_listed("d", [0.1] + seeded_d + [1e-3, 1e-4, 3e-5, 1e-5, 1.5e-6])]),
    )


def spectral_scans(rng: random.Random) -> tuple[Scan, ...]:
    """The only quadrature: wave-packet fringes and the physical Franson model."""
    phis = [0.0, math.pi] + [rng.uniform(0.0, TWO_PI) for _ in range(399)]

    def tau_b(count: int) -> list[float]:
        # Delay mismatch up to 2 ps against a 1 ps offset coherence time, so
        # the visibility sweeps from coherent to washed out.
        return [1e-9] + [1e-9 * (1.0 + rng.uniform(-2e-3, 2e-3)) for _ in range(count - 1)]

    return (
        _scan("interf", ("interf",),
              [_listed("phi", phis), _listed("dphi", [0.5, 3.14, TWO_PI, 20.0, 200.0])]),
        _scan("franson_rect_nowindow", ("franson",) + FRANSON_PHYSICAL,
              [_listed("tau_b", tau_b(240))], ("--coincidence-window", "none")),
        _scan("franson_rect_auto", ("franson",) + FRANSON_PHYSICAL,
              [_listed("tau_b", tau_b(400))], ("--coincidence-window", "auto")),
        _scan("franson_gaussian", ("franson",) + FRANSON_PHYSICAL,
              [_listed("tau_b", [1e-9 * (1.0 + 1e-4 * k) for k in range(10)])],
              ("--shape", "gaussian")),
    )


def deep(rng: random.Random) -> Workload:
    # Few rows, each expensive.  The chain and the spectral scans share one
    # workload so that each run can be long enough on a noisy shared host;
    # wide_grid still runs no quadrature and only short chains.
    return Workload(name="deep", scans=chain_scans(rng) + spectral_scans(rng), lhv_n=(12,))


def wide_grid(rng: random.Random, seed: int) -> Workload:
    def start() -> float:
        return rng.uniform(0.0, TWO_PI)

    reflection = _listed("reflection_phase",
                         [math.pi / 2.0] + [rng.uniform(0.0, math.pi) for _ in range(99)])
    unitarity_phi = _turn("phi", start(), 200)
    return Workload(
        name="wide_grid",
        scans=(
            _scan("franson_ideal", ("franson",), [_turn("phi", start(), 20000)],
                  ("--format", "json")),
            # The same spec with two worker counts: artifacts must be identical.
            *(_scan(f"unitarity_w{workers}", ("unitarity",), [reflection, unitarity_phi],
                    ("--workers", str(workers)))
              for workers in (2, 1)),
            _scan("sample", ("sample",), [_turn("phi", start(), 2000)],
                  ("--n", "1000", "--seed", str(seed % 2 ** 63))),
            _scan("chained_small", ("chained",), [_listed("n", range(2, 401))]),
            _scan("interf_mono", ("interf",),
                  [_turn("phi", start(), 20000), _listed("dphi", [0.0])]),
        ),
    )


WORKLOADS = ("deep", "wide_grid")


def build(name: str, seed: int) -> Workload:
    rng = random.Random(seed)
    if name == "deep":
        return deep(rng)
    if name == "wide_grid":
        return wide_grid(rng, seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
