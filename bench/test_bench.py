"""Checks of the benchmark itself: its oracles flag wrong rows, and its
traced run accounts for no more time than the pass took."""

from __future__ import annotations

import math

import pytest

import oracles
import run
import tracer as tracing
import workloads
from mpmath import mp

PI = math.pi


def _chained_row(n: int) -> dict[str, str]:
    with mp.workdps(oracles.DIGITS):
        value = oracles.chained_value(n, PI)
    return {"theta": repr(PI), "model": "quantum", "i_value": repr(float(value)),
            "i_closed_form": repr(float(value)), "classification": "bounded_nonlocal"}


def _franson_row(phi: float) -> dict[str, str]:
    with mp.workdps(oracles.DIGITS):
        want = oracles.ideal_franson(phi, 1.0)
    return {key: repr(float(value)) for key, value in want.items()}


def _check(subcommand, inputs, row, params=None):
    return oracles.check_row(subcommand, params or {}, inputs, row)


def test_oracle_accepts_exact_rows():
    assert _check("chained", {"n": "1000.0"}, _chained_row(1000))
    assert _check("franson", {"phi": "0.7"}, _franson_row(0.7))


@pytest.mark.parametrize("column,factor", [("i_value", 1 + 1e-8), ("i_closed_form", 1 - 1e-8)])
def test_oracle_flags_perturbed_chained_value(column, factor):
    row = _chained_row(1000)
    row[column] = repr(float(row[column]) * factor)
    assert not _check("chained", {"n": "1000.0"}, row)


def test_oracle_flags_perturbed_probability():
    row = _franson_row(0.7)
    row["p_pm"] = repr(float(row["p_pm"]) + 2e-10)
    assert not _check("franson", {"phi": "0.7"}, row)


def test_oracle_flags_sample_counts_that_do_not_sum_to_n():
    row = {"n_plus": "100", "n_minus": "0", "n_double": "0", "n_null": "0"}
    assert _check("sample", {"phi": "0.0"}, row, {"n": "100"})
    assert not _check("sample", {"phi": "0.0"}, dict(row, n_plus="99"), {"n": "100"})


def test_oracle_flags_witness_off_by_one():
    d = 1e-3
    n = oracles.falsification_witness(d)
    with mp.workdps(oracles.DIGITS):
        bound = [repr(float(1.5 * oracles.chained_value(k, PI))) for k in (n - 1, n)]
        i_value = repr(float(oracles.chained_value(n, PI)))
    row = {"witness_n": str(n), "bound_at_witness": bound[1], "i_at_witness": i_value,
           "bound_at_prev": bound[0]}
    assert _check("extensions", {"d": repr(d)}, row)
    assert not _check("extensions", {"d": repr(d)}, dict(row, witness_n=str(n - 1)))


def test_witness_search_is_exact_at_the_known_anchor():
    # 1.5 I(185055, pi) = 1.0000004e-5 is not below 1e-5; the next N is.
    assert oracles.falsification_witness(1e-5) == 185056


def _small_workload() -> workloads.Workload:
    physical = ("franson",) + workloads.FRANSON_PHYSICAL
    scans = [
        workloads._scan("chained", ("chained",), [workloads._listed("n", [2, 50])]),
        workloads._scan("extensions", ("extensions",), [workloads._listed("d", [0.1, 0.01])]),
        workloads._scan("interf", ("interf",), [workloads._listed("phi", [0.3]),
                                                workloads._listed("dphi", [0.0, 3.0])]),
        workloads._scan("franson", physical, [workloads._listed("tau_b", [1e-9])]),
        workloads._scan("unitarity", ("unitarity",),
                        [workloads._listed("reflection_phase", [0.5, PI / 2]),
                         workloads._turn("phi", 0.0, 50)], ("--workers", "2")),
        workloads._scan("sample", ("sample",), [workloads._listed("phi", [0.1, 1.0])],
                        ("--n", "100", "--seed", "3")),
    ]
    return workloads.Workload(name="small", scans=tuple(scans), lhv_n=(4,))


@pytest.fixture(scope="module")
def bellsim():
    return run.import_bellsim()


def test_traced_pass_matches_untraced_and_self_times_fit_in_wall(bellsim, tmp_path):
    workload = _small_workload()
    plain = run.run_pass(bellsim, workload, tmp_path)
    tracer = tracing.Tracer()
    tracer.install(bellsim)
    try:
        traced = run.run_pass(bellsim, workload, tmp_path,
                              tracer.wrap("cli.main", bellsim.cli.main))
    finally:
        tracer.uninstall()
    assert traced.artifacts == plain.artifacts
    layers = tracer.layer_self_s()
    assert all(seconds >= 0.0 for seconds in layers.values())
    assert sum(layers.values()) <= traced.seconds
    stats, counts = tracer.totals()
    assert stats["bell.chained_I"].calls == 2 and counts["bell.terms"] == 2 * (2 + 50)
    assert counts["bell.lhv_strategies"] == 4 ** 4
    assert counts["spectra.nodes"] >= counts["spectra.final_nodes"] > 0
    assert counts["interferometer.samples"] == 200
    # Uninstalling restores every patched name.
    assert bellsim.bell.chained_I.__module__ == "bellsim.bell"
    assert not hasattr(bellsim.bell.chained_I, "__wrapped__")


def test_reference_check_counts_the_small_workload_clean(bellsim, tmp_path):
    workload = _small_workload()
    verdict = run.check_reference(bellsim, workload,
                                  run.run_pass(bellsim, workload, tmp_path), tmp_path)
    assert verdict.problems == []
    assert verdict.operations == workload.operations
    assert verdict.errors == 0 and verdict.wrong == 0
