"""bellsim benchmark: the README's CLI scans, timed and checked by oracles.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload deep --seed 1 --seconds 45 --trace 0

Each workload (see ``workloads.py``) is a fixed list of scans that one pass
runs in-process through ``bellsim.cli.main``, writing artifacts to a
temporary directory under ``.bench_run/``.  The first pass is the reference:
every row is checked against ``oracles.py``, the sample scan is repeated
with the same seed, the ``--workers 2`` and ``--workers 1`` unitarity
artifacts are compared, and anchor rows are compared with the seed commit's
bytes in ``seed_rows.json``.  Later passes must reproduce the reference
byte for byte.  Passes repeat until ``--seconds`` have gone by.

The host's speed drifts by a third in phases that can outlast a run, so
every pass also times a fixed reference loop before each scan and after
the last.  The end-to-end times are given at the reference speed: a pass's
wall seconds times ``REF_LOOP_S`` over the median of its loop times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes (``tracer.py``) and prints the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``correct`` is false when an artifact differs between passes,
worker counts or tracing, or has the wrong shape; rows the oracles reject or
that carry an error are counted, not fatal, because the seed commit has such
rows by design of the workloads.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SEED_ROWS = BENCH / "seed_rows.json"
SETUP_SAMPLES = 7
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120
# Median of reference_loop() on the machine in README.md; it fixes the speed
# the end-to-end times are given at.
REF_LOOP_S = 0.024
_REF_ARRAY = np.linspace(0.0, 1.0, 50_000)


class SetupError(RuntimeError):
    """The checkout does not hold the sources the benchmark measures."""


def import_bellsim():
    """Import ``bellsim`` from this checkout's ``src``, never from elsewhere."""
    package_dir = SRC / "bellsim"
    if not (package_dir / "cli.py").is_file():
        raise SetupError(f"no bellsim sources at {package_dir}")
    sys.path.insert(0, str(SRC))
    import bellsim
    import bellsim.cli

    if Path(bellsim.__file__).resolve().parent != package_dir.resolve():
        raise SetupError(f"bellsim imported from {bellsim.__file__}, not {package_dir}")
    return bellsim


# ---------------------------------------------------------------------------
# Passes

def reference_loop() -> float:
    """Seconds for a fixed mix of interpreter and numpy work.

    It shares no code with bellsim, so its time follows only the speed the
    host gives this process at the moment.
    """
    start = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i
    for _ in range(10):
        float((np.cos(_REF_ARRAY) * np.sin(_REF_ARRAY)).sum())
    return time.perf_counter() - start


@dataclass
class Pass:
    seconds: float                                   # wall time of scans and library calls
    scan_seconds: dict[str, float] = field(default_factory=dict)
    artifacts: dict[str, bytes] = field(default_factory=dict)
    lhv: list = field(default_factory=list)          # (n, result or error text)
    loop_seconds: list[float] = field(default_factory=list)  # reference_loop() times

    @property
    def ref_seconds(self) -> float:
        """Wall seconds scaled to the reference speed of the host."""
        return self.seconds * REF_LOOP_S / statistics.median(self.loop_seconds)


def run_pass(bellsim, workload: workloads.Workload, workdir: Path, main=None) -> Pass:
    main = main or bellsim.cli.main
    done = Pass(seconds=0.0)
    gc.collect()
    for scan in workload.scans:
        done.loop_seconds.append(reference_loop())
        out = workdir / f"{scan.name}.{scan.format}"
        argv = list(scan.argv) + ["--output", str(out)]
        start = time.perf_counter()
        main(argv)
        elapsed = time.perf_counter() - start
        done.scan_seconds[scan.name] = elapsed
        done.seconds += elapsed
        done.artifacts[scan.name] = out.read_bytes() if out.exists() else b""
        out.unlink(missing_ok=True)
    for n in workload.lhv_n:
        start = time.perf_counter()
        try:
            result = bellsim.bell.lhv_minimum_I(n)
        except ValueError as e:
            result = f"{type(e).__name__}: {e}"
        done.seconds += time.perf_counter() - start
        done.lhv.append((n, result))
    done.loop_seconds.append(reference_loop())
    return done


def parse_rows(scan: workloads.Scan, blob: bytes) -> list[dict[str, str]]:
    """Artifact rows as column -> text, JSON numbers in their repr."""
    text = blob.decode("utf-8")
    if scan.format == "csv":
        return list(csv.DictReader(io.StringIO(text, newline="")))
    rows = json.loads(text)["rows"]
    return [{k: v if isinstance(v, str) else json.dumps(v) for k, v in row.items()}
            for row in rows]


def row_key(scan: workloads.Scan, row: dict[str, str]) -> str:
    return "|".join(row[axis] for axis, _ in scan.grids)


def row_digest(row: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(row, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Checking the reference pass

@dataclass
class Verdict:
    operations: int = 0     # rows and library calls in one pass
    errors: int = 0         # rows with an error (or a failed library call)
    wrong: int = 0          # completed rows the oracles reject
    seed_changes: int = 0   # anchor rows whose bytes differ from the seed commit's
    problems: list[str] = field(default_factory=list)


def check_reference(bellsim, workload, ref: Pass, workdir: Path) -> Verdict:
    verdict = Verdict(operations=workload.operations)
    seed_rows = json.loads(SEED_ROWS.read_text()).get(workload.name, {})
    checked: dict[tuple, tuple[bytes, int, int]] = {}
    for scan in workload.scans:
        points = scan.points()
        blob = ref.artifacts[scan.name]
        same_spec = _without_workers(scan.argv)
        if same_spec in checked and checked[same_spec][0] == blob:
            # Identical bytes of the same spec: the verdict is the same.
            verdict.errors += checked[same_spec][1]
            verdict.wrong += checked[same_spec][2]
            continue
        before = (verdict.errors, verdict.wrong)
        try:
            rows = parse_rows(scan, blob)
        except (ValueError, KeyError) as e:
            rows = []
            verdict.problems.append(f"{scan.name}: unreadable artifact ({e})")
        if len(rows) != len(points):
            verdict.problems.append(f"{scan.name}: {len(rows)} rows, expected {len(points)}")
            verdict.errors += len(points)
            continue
        params = scan.params
        anchors = seed_rows.get(scan.name, {})
        # Sampled counts must also come out the same from a same-seed repeat.
        repeat = _repeat(bellsim, scan, workdir) if scan.subcommand == "sample" else rows
        for row, point, again in zip(rows, points, repeat + [None] * len(rows)):
            key = row_key(scan, row)
            if key in anchors and anchors[key] != row_digest(row):
                verdict.seed_changes += 1
            inputs = {axis: row[axis] for axis, _ in scan.grids}
            if any(float(inputs[axis]) != value for (axis, _), value in zip(scan.grids, point)):
                verdict.problems.append(f"{scan.name}: row inputs {inputs} out of grid order")
                verdict.wrong += 1
            elif row["error"]:
                verdict.errors += 1
            elif row != again or not oracles.check_row(scan.subcommand, params, inputs, row):
                verdict.wrong += 1
        checked[same_spec] = (blob, verdict.errors - before[0], verdict.wrong - before[1])
    for n, result in ref.lhv:
        if isinstance(result, str):
            verdict.errors += 1
        elif not oracles.check_lhv(n, result.value, result.strategy, result.n_strategies):
            verdict.wrong += 1
    _check_worker_counts(workload, ref, verdict)
    return verdict


def _repeat(bellsim, scan, workdir: Path) -> list[dict[str, str]]:
    """The rows of a second run of the scan."""
    out = workdir / f"{scan.name}.repeat.{scan.format}"
    bellsim.cli.main(list(scan.argv) + ["--output", str(out)])
    again = parse_rows(scan, out.read_bytes()) if out.exists() else []
    out.unlink(missing_ok=True)
    return again


def _check_worker_counts(workload, ref: Pass, verdict: Verdict) -> None:
    """Scans that differ only in --workers must write identical artifacts."""
    first: dict[tuple, workloads.Scan] = {}
    for scan in workload.scans:
        other = first.setdefault(_without_workers(scan.argv), scan)
        if ref.artifacts[scan.name] != ref.artifacts[other.name]:
            verdict.problems.append(f"{scan.name} differs from {other.name} (worker count)")
            verdict.errors += len(scan.points())


def _without_workers(argv: tuple[str, ...]) -> tuple[str, ...]:
    if "--workers" not in argv:
        return argv
    at = argv.index("--workers")
    return argv[:at] + argv[at + 2:]


def mismatched_rows(workload, ref: Pass, other: Pass, what: str, verdict: Verdict) -> int:
    """Rows of scans whose artifact differs from the reference pass."""
    count = 0
    for scan in workload.scans:
        if other.artifacts[scan.name] != ref.artifacts[scan.name]:
            verdict.problems.append(f"{scan.name}: artifact differs in {what}")
            count += len(scan.points())
    for (n, a), (_, b) in zip(ref.lhv, other.lhv):
        if repr(a) != repr(b):
            verdict.problems.append(f"lhv_minimum_I({n}) differs in {what}")
            count += 1
    return count


# ---------------------------------------------------------------------------
# Set-up time and memory, each in fresh processes

def setup_sample() -> float:
    """Seconds for a fresh interpreter to import ``bellsim.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    # No timeout: with one, the wait polls in steps of up to 50 ms.
    subprocess.run([sys.executable, "-c", "import bellsim.cli"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def measure_peak_rss_mb(workload_name: str, seed: int) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
         "--seed", str(seed), "--rss-probe"],
        cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S, capture_output=True, text=True)
    return float(done.stdout.strip().splitlines()[-1])


def rss_probe(bellsim, workload, workdir: Path) -> None:
    run_pass(bellsim, workload, workdir)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


# ---------------------------------------------------------------------------
# Runs

@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    attempted: int
    failed: int
    notes: list[str]


def end_to_end(bellsim, workload, seed, seconds, workdir) -> Report:
    peak_rss_mb = measure_peak_rss_mb(workload.name, seed)
    ref = run_pass(bellsim, workload, workdir)
    verdict = check_reference(bellsim, workload, ref, workdir)
    passes, setups, mismatches = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        done = run_pass(bellsim, workload, workdir)
        mismatches += mismatched_rows(workload, ref, done, "a later pass", verdict)
        passes.append(done)
        # Set-up samples spread over the run see the same machine as the passes.
        setups.append(setup_sample())
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
    setup_s = statistics.median(setups)
    attempted = verdict.operations * len(passes)
    errors = verdict.errors * len(passes) + mismatches
    wrong = verdict.wrong * len(passes)
    scaled = [p.ref_seconds for p in passes]
    q1, wall, q3 = statistics.quantiles(scaled, n=4)  # MIN_PASSES >= 2
    raw = statistics.quantiles([p.seconds for p in passes], n=4)
    loop_ms = statistics.median(s for p in passes for s in p.loop_seconds) * 1e3
    metrics = {
        "ref_wall_s": (wall, "s"),
        "ref_rows_per_s": (statistics.median(verdict.operations / s for s in scaled), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1.0 - errors / attempted, "share"),
        "right_share": (1.0 - (errors + wrong) / attempted, "share"),
    }
    notes = [f"passes {len(passes)}, ref_wall_s quartiles {q1:.4f} {wall:.4f} {q3:.4f} s",
             "unscaled wall_s quartiles " + " ".join(f"{x:.4f}" for x in raw) + " s, "
             f"reference loop median {loop_ms:.2f} ms (REF_LOOP_S {REF_LOOP_S * 1e3:.0f} ms)",
             f"error_share {errors / attempted:.6f}, wrong_share {wrong / attempted:.6f}",
             _per_pass(verdict)]
    return Report(metrics, verdict.problems, attempted, errors + wrong, notes)


def _per_pass(verdict: Verdict) -> str:
    return (f"{verdict.errors} errors and {verdict.wrong} wrong of "
            f"{verdict.operations} operations a pass")


def per_layer(bellsim, workload, seconds, workdir) -> Report:
    ref = run_pass(bellsim, workload, workdir)
    verdict = check_reference(bellsim, workload, ref, workdir)
    plain, traced, mismatches = [], [], 0
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_PASSES or time.perf_counter() < deadline:
        done = run_pass(bellsim, workload, workdir)
        mismatches += mismatched_rows(workload, ref, done, "a later pass", verdict)
        plain.append(done)
        tracer = tracing.Tracer()
        tracer.install(bellsim)
        try:
            done = run_pass(bellsim, workload, workdir, tracer.wrap("cli.main", bellsim.cli.main))
        finally:
            tracer.uninstall()
        mismatches += mismatched_rows(workload, ref, done, "a traced pass", verdict)
        traced.append((done, layer_metrics(workload, done, tracer)))
    metrics = {}
    for name, (_, unit) in traced[0][1].items():
        metrics[name] = (statistics.median(m[name][0] for _, m in traced), unit)
    plain_wall = statistics.median(p.seconds for p in plain)
    metrics["trace.overhead_s"] = (
        statistics.median(done.seconds for done, _ in traced) - plain_wall, "s")
    metrics["cli.workers2_speedup"] = (_workers_speedup(workload, plain), "ratio")
    metrics["cli.seed_row_changes"] = (verdict.seed_changes, "count")
    passes = len(plain) + len(traced)
    notes = [f"passes {len(plain)} untraced, {len(traced)} traced; "
             f"untraced wall_s {plain_wall:.4f} s", _per_pass(verdict)]
    return Report(metrics, verdict.problems, verdict.operations * passes,
                  (verdict.errors + verdict.wrong) * passes + mismatches, notes)


def _workers_speedup(workload, plain: list[Pass]) -> float:
    """--workers 1 time over --workers 2 time of the same spec (0 if absent)."""
    names = {s.name for s in workload.scans}
    if not {"unitarity_w1", "unitarity_w2"} <= names:
        return 0.0
    return statistics.median(p.scan_seconds["unitarity_w1"] / p.scan_seconds["unitarity_w2"]
                             for p in plain)


# Functions timed one by one: (calls and seconds) and (self seconds).
TIMED = ("bell.chained_I", "entangle.ideal_joint_distribution",
         "entangle.physical_joint_distribution", "extensions.find_falsifying_N",
         "spectra.integrate_over_spectrum", "interferometer.probability_wavepacket",
         "interferometer.sample_events")
SELF_TIMED = ("bell.chained_I", "entangle.physical_joint_distribution",
              "interferometer.probability_wavepacket")


def layer_metrics(workload, done: Pass, tracer: tracing.Tracer) -> dict:
    stats, counts = tracer.totals()
    empty = tracing.Stats()

    def ratio(a, b):
        return a / b if b else 0.0

    rows = workload.operations - len(workload.lhv_n)
    layer_self = tracer.layer_self_s()
    metrics = {
        "trace.wall_s": (done.seconds, "s"),
        "cli.scan_s": (sum(done.scan_seconds.values()), "s"),
        "cli.rows": (rows, "count"),
        "cli.us_per_row": (ratio(layer_self["cli"], rows) * 1e6, "us"),
        "cli.bytes_out": (sum(len(b) for b in done.artifacts.values()), "bytes"),
    }
    for key in TIMED:
        entry = stats.get(key, empty)
        metrics[f"{key}.calls"] = (entry.calls, "count")
        metrics[f"{key}.s"] = (entry.ns * 1e-9, "s")
    for key in SELF_TIMED:
        metrics[f"{key}.self_s"] = (stats.get(key, empty).self_ns * 1e-9, "s")
    chained_s = metrics["bell.chained_I.s"][0]
    witnesses = metrics["extensions.find_falsifying_N.calls"][0]
    entry = stats.get("measurement.entry", empty)
    metrics.update({
        "bell.terms": (counts["bell.terms"], "count"),
        "bell.chained_I.ns_per_term": (ratio(chained_s, counts["bell.terms"]) * 1e9, "ns"),
        "bell.lhv_minimum_I.s": (stats.get("bell.lhv_minimum_I", empty).ns * 1e-9, "s"),
        "bell.lhv_strategies": (counts["bell.lhv_strategies"], "count"),
        "extensions.closed_form_evals": (counts["extensions.closed_form_evals"], "count"),
        "extensions.evals_per_witness": (ratio(counts["extensions.closed_form_evals"], witnesses),
                                         "count"),
        "spectra.nodes": (counts["spectra.nodes"], "count"),
        "spectra.useful_node_share": (ratio(counts["spectra.final_nodes"], counts["spectra.nodes"]),
                                      "share"),
        "spectra.failures": (counts["spectra.failures"], "count"),
        "interferometer.samples": (counts["interferometer.samples"], "count"),
        "measurement.calls": (entry.calls, "count"),
        "measurement.s": (entry.ns * 1e-9, "s"),
    })
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = (seconds, "s")
    return metrics


# ---------------------------------------------------------------------------

def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true",
                        help="run one untimed pass and print the peak RSS in MB")
    args = parser.parse_args(argv)
    # A terminated run still removes its artifacts and ends its child
    # processes: SystemExit unwinds through the finally blocks below and
    # through subprocess.run, which kills and reaps its child.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        bellsim = import_bellsim()
    except (SetupError, ImportError) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    scratch = ROOT / ".bench_run"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.rss_probe:
            rss_probe(bellsim, workload, workdir)
            return 0
        if args.trace:
            report = per_layer(bellsim, workload, args.seconds, workdir)
        else:
            report = end_to_end(bellsim, workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in report.notes + [f"problem: {p}" for p in report.problems]:
        print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    result = {
        "correct": not report.problems,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
