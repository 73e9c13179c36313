"""The CLI evaluates rows a grid block at a time; every artifact must equal,
byte for byte, the one built row by row from the public scalar functions,
``repr`` and the ``csv``/``json`` modules."""

import contextlib
import csv
import io
import itertools
import json
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import cli
from bellsim.entangle import ideal_joint_distribution, marginal
from bellsim.interferometer import probability_monochromatic
from bellsim.measurement import (PathAmplitudes, is_valid_quantum_measurement,
                                 mach_zehnder_effective, outcome_distribution)

PI = math.pi
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

ANCHORS = [0.0, -0.0, PI, -PI, 3 * PI, 1e6]
NON_FINITE = [math.nan, math.inf, -math.inf]  # rows that must fail
values = st.one_of(st.sampled_from(ANCHORS + NON_FINITE), st.floats(-4 * PI, 4 * PI))
grids = st.lists(values, min_size=1, max_size=12)
formats = st.sampled_from(["csv", "json"])
# Small blocks put block boundaries inside the grid.
block_rows = st.sampled_from([1, 3, cli._BLOCK_ROWS])


def grid(name, points):
    return ["--grid", f"{name}=" + ",".join(map(repr, points))]


def scan(argv, fmt, rows_per_block):
    out = io.StringIO()
    with mock.patch.object(cli, "_BLOCK_ROWS", rows_per_block), \
            contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--format", fmt])
    return code, out.getvalue()


def reference_row(evaluate, *inputs):
    """The inputs, the outputs (None for a failed row) and the error text."""
    try:
        return inputs, evaluate(*inputs), ""
    except ValueError as e:
        return inputs, None, f"ValueError: {e}"


def csv_cell(value):
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else value


def assert_artifact(code, text, fmt, names, rows):
    width = len(names) - 1 - len(rows[0][0])
    cells = [[*inputs, *(("",) * width if outputs is None else outputs), error]
             for inputs, outputs, error in rows]
    if fmt == "csv":
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([csv_cell(value) for value in row] for row in cells)
        want = want.getvalue()
    else:
        doc = {"rows": [dict(zip(names, row)) for row in cells],
               "spec": json.loads(text)["spec"]}
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert text == want
    assert code == (1 if any(error for _, _, error in rows) else 0)


def interf_reference(phi):
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    p_plus = probability_monochromatic(+1, phi)
    return p_plus, 1.0 - p_plus


def franson_reference(visibility):
    def evaluate(phi):
        d = ideal_joint_distribution(phi, visibility)
        return (phi, visibility, d.p_equal, d.p_differ, d.p_pp, d.p_pm, d.p_mp, d.p_mm,
                marginal(d, "A"), marginal(d, "B"))
    return evaluate


def unitarity_reference(reflection_phase, phi):
    m = mach_zehnder_effective(reflection_phase)
    validation = is_valid_quantum_measurement(m, 1e-10)
    outcome = outcome_distribution(m, PathAmplitudes.balanced(), phi)
    return (validation.residual, validation.valid, outcome.p_plus, outcome.p_minus,
            outcome.total)


@PROPERTY
@given(grids, st.booleans(), formats, block_rows)
def test_monochromatic_interf_rows_match_the_scalar_fringe_law(phis, scan_dphi, fmt,
                                                               rows_per_block):
    # dphi = 0 as a scanned grid or as the default of the unscanned axis
    dphi = [0.0] if scan_dphi else []
    code, text = scan(["interf", *grid("phi", phis), *(grid("dphi", dphi) if dphi else [])],
                      fmt, rows_per_block)
    rows = [reference_row(lambda phi, *_: interf_reference(phi), phi, *dphi) for phi in phis]
    assert_artifact(code, text, fmt, ["phi", *(["dphi"] * len(dphi)), "p_plus", "p_minus",
                                      "error"], rows)


@PROPERTY
@given(grids, st.one_of(st.sampled_from([0.0, 0.9, 1.0, 1.5]), st.floats(0.0, 1.0)),
       formats, block_rows)
def test_ideal_franson_rows_match_the_scalar_joint_law(phis, visibility, fmt, rows_per_block):
    code, text = scan(["franson", *grid("phi", phis), "--visibility", repr(visibility)],
                      fmt, rows_per_block)
    rows = [reference_row(franson_reference(visibility), phi) for phi in phis]
    assert_artifact(code, text, fmt, ["phi", *cli._SUBCOMMANDS["franson"].columns, "error"],
                    rows)


@PROPERTY
@given(grids, grids, st.booleans(), formats, block_rows)
def test_unitarity_rows_match_the_scalar_splitter_model(phases, phis, phase_outer, fmt,
                                                        rows_per_block):
    axes = [("reflection_phase", phases), ("phi", phis)]
    if not phase_outer:
        axes.reverse()
    argv = ["unitarity", *grid(*axes[0]), *grid(*axes[1])]
    code, text = scan(argv, fmt, rows_per_block)
    rows = []
    for point in itertools.product(axes[0][1], axes[1][1]):
        named = dict(zip((axes[0][0], axes[1][0]), point))
        _, outputs, error = reference_row(unitarity_reference, named["reflection_phase"],
                                          named["phi"])
        rows.append((point, outputs, error))
    names = [axes[0][0], axes[1][0], *cli._SUBCOMMANDS["unitarity"].columns, "error"]
    assert_artifact(code, text, fmt, names, rows)
