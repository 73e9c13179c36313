"""The CLI evaluates rows a grid block at a time; every artifact must equal,
byte for byte, the one built row by row from the public scalar functions
(the splitter's port law from its complex expression), ``repr`` and the
``csv``/``json`` modules."""

import cmath
import collections
import contextlib
import csv
import io
import itertools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import cli
from bellsim.entangle import ideal_joint_distribution, marginal
from bellsim.interferometer import (fringe_probabilities, local_detection_distribution,
                                    probability_monochromatic, quantum_detection_distribution,
                                    sample_events, wavepacket_contrast)
from bellsim.measurement import (MeasurementMatrix, PathAmplitudes,
                                 is_valid_quantum_measurement, mach_zehnder_effective,
                                 outcome_probabilities)
from bellsim.spectra import IntegrationError

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


def cmath_outcome(m, amps, phi):
    """The splitter's port probabilities (p_plus, p_minus) at one phase, as
    complex arithmetic gives them: the bit-level oracle of the array law."""
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    long_amp = amps.L * cmath.exp(1j * phi)
    out_plus = m.a11 * long_amp + m.a21 * amps.S
    out_minus = m.a12 * long_amp + m.a22 * amps.S
    return abs(out_plus) * abs(out_plus), abs(out_minus) * abs(out_minus)


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


def assert_artifact(code, text, fmt, names, rows, spec):
    """``spec`` holds the subcommand, its grids (axis -> values) and the
    parameters the JSON spec records."""
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
               "spec": {"format": "json", "output": "-", **spec,
                        "grids": {axis: list(values) for axis, values in spec["grids"].items()}}}
        want = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert text == want
    assert code == (1 if any(error for _, _, error in rows) else 0)


def interf_reference(phi):
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    return probability_monochromatic(+1, phi), probability_monochromatic(-1, phi)


# Phases and bandwidth-delay products at the edges of a wave-packet row:
# phases far beyond a turn, contrasts that do not converge (dphi = 5e-324,
# whose estimate is NaN, and 1e308), a negative contrast (2 pi < dphi <
# 4 pi) and invalid inputs.
WAVE_PHIS = [1e17, -1e17, 1e300, -1.7e308, -0.0, 0.0, PI, *NON_FINITE]
WAVE_DPHIS = [5e-324, 1e-300, 1e-9, 0.0, 0.5, 3.14, 2 * PI, 3 * PI, 700.0, 1e308, -1.0,
              *NON_FINITE]


def wavepacket_reference(phi, dphi, tol):
    """The row's cells and its error text, one point at a time: an input
    outside its domain (phi first), or the contrast's error, or the ports
    (1 +- c cos(phi))/2 as the fringe law at |c|, swapped where c < 0."""
    if not math.isfinite(phi):
        return None, f"ValueError: phi must be finite, got {phi!r}"
    if not 0.0 <= dphi < math.inf:
        return None, f"ValueError: dphi must be finite and >= 0, got {dphi!r}"
    try:
        contrast = wavepacket_contrast(dphi, tol)
    except IntegrationError as e:
        return None, f"IntegrationError: {e}"
    p_plus, p_minus = fringe_probabilities(np.array([phi]), abs(contrast))[:, 0].tolist()
    if contrast < 0.0:
        p_plus, p_minus = p_minus, p_plus
    return [repr(p_plus), repr(p_minus)], ""


def franson_reference(visibility):
    def evaluate(phi):
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        d = ideal_joint_distribution(phi, visibility)
        return (phi, visibility, d.p_equal, d.p_differ, d.p_pp, d.p_pm, d.p_mp, d.p_mm,
                marginal(d, "A"), marginal(d, "B"))
    return evaluate


def unitarity_reference(reflection_phase, phi):
    m = mach_zehnder_effective(reflection_phase)
    validation = is_valid_quantum_measurement(m, 1e-10)
    p_plus, p_minus = cmath_outcome(m, PathAmplitudes.balanced(), phi)
    return validation.residual, validation.valid, p_plus, p_minus, p_plus + p_minus


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
                                      "error"], rows,
                    {"subcommand": "interf",
                     "grids": {"phi": phis, **({"dphi": dphi} if dphi else {})},
                     "params": {"tolerance": 1e-10}})


@PROPERTY
@given(grids, st.one_of(st.sampled_from([0.0, 0.9, 1.0, 1.5]), st.floats(0.0, 1.0)),
       formats, block_rows)
def test_ideal_franson_rows_match_the_scalar_joint_law(phis, visibility, fmt, rows_per_block):
    code, text = scan(["franson", *grid("phi", phis), "--visibility", repr(visibility)],
                      fmt, rows_per_block)
    rows = [reference_row(franson_reference(visibility), phi) for phi in phis]
    assert_artifact(code, text, fmt, ["phi", *cli._SUBCOMMANDS["franson"].columns, "error"],
                    rows, {"subcommand": "franson", "grids": {"phi": phis},
                           "params": {"mode": "ideal", "visibility": visibility}})


@PROPERTY
@given(st.lists(st.tuples(st.one_of(st.sampled_from(WAVE_PHIS), st.floats(-1e3, 1e3)),
                          st.one_of(st.sampled_from(WAVE_DPHIS), st.floats(1e-3, 1e3))),
                min_size=1, max_size=40),
       st.floats(-12.0, -6.0).map(lambda e: 10.0 ** e))
def test_wavepacket_block_rows_equal_the_one_point_law(points, tol):
    """Each row of a block equals the one-point reference bit for bit, or
    carries its error text."""
    phi, dphi = (np.array(axis, dtype=float) for axis in zip(*points))
    spec = cli.ScanSpec("interf", {}, params={"tolerance": tol})
    want = [wavepacket_reference(*point, tol) for point in points]
    (p_plus, p_minus), errors = cli._evaluate(spec, cli._SUBCOMMANDS["interf"],
                                              np.arange(phi.size), {"phi": phi, "dphi": dphi})
    got = [(None if error else [repr(p_plus[i].item()), repr(p_minus[i].item())], error)
           for i, error in enumerate(errors)]
    assert got == want


SAMPLE_MODELS = {"quantum": quantum_detection_distribution, "local": local_detection_distribution}


def sample_reference(model, n, seed, row):
    def evaluate(phi):
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {phi!r}")
        counts = sample_events(SAMPLE_MODELS[model](phi), n, seed, stream=row)
        return counts.n_plus, counts.n_minus, counts.n_double, counts.n_null
    return evaluate


@PROPERTY
@given(grids, st.sampled_from(sorted(SAMPLE_MODELS)), st.integers(1, 10 ** 6),
       st.integers(0, 2 ** 64 - 1), formats, st.sampled_from([1, 3, 7, cli._BLOCK_ROWS]))
def test_sample_rows_match_the_scalar_detection_laws(phis, model, n, seed, fmt, rows_per_block):
    """Each row's counts are those of the scalar detection law at its phase,
    drawn with the row number as the stream, whatever the block size."""
    code, text = scan(["sample", *grid("phi", phis), "--model", model, "--n", str(n),
                       "--seed", str(seed)], fmt, rows_per_block)
    rows = [reference_row(sample_reference(model, n, seed, row), phi)
            for row, phi in enumerate(phis)]
    assert_artifact(code, text, fmt, ["phi", *cli._SUBCOMMANDS["sample"].columns, "error"],
                    rows, {"subcommand": "sample", "grids": {"phi": phis},
                           "params": {"model": model, "n": n, "seed": seed}})


def assert_unitarity_scan(phases, phis, phase_outer, fmt, rows_per_block):
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
    assert_artifact(code, text, fmt, names, rows,
                    {"subcommand": "unitarity", "grids": dict(axes),
                     "params": {"tolerance": 1e-10}})


@PROPERTY
@given(grids, grids, st.booleans(), formats, block_rows)
def test_unitarity_rows_match_the_scalar_splitter_model(phases, phis, phase_outer, fmt,
                                                        rows_per_block):
    assert_unitarity_scan(phases, phis, phase_outer, fmt, rows_per_block)


# A few distinct values, so that reflection phases repeat within a block and
# across block edges; -0.0 next to 0.0 and the point whose p_minus libm pow
# rounds apart from h * h.
FEW = [0.0, -0.0, PI / 2, 0.801322977421273, 6.781800114893231, PI / 4]


@PROPERTY
@given(st.lists(st.sampled_from(FEW + NON_FINITE), min_size=1, max_size=10),
       st.lists(st.sampled_from(FEW + NON_FINITE), min_size=1, max_size=6),
       st.booleans(), formats, st.sampled_from([1, 2, 5, 7, cli._BLOCK_ROWS]))
def test_unitarity_rows_with_repeated_phases(phases, phis, phase_outer, fmt, rows_per_block):
    assert_unitarity_scan(phases, phis, phase_outer, fmt, rows_per_block)


def test_unitarity_blocks_repeat_phases_across_edges():
    phases = [0.0, -0.0, 0.0, 0.801322977421273, math.nan, -0.0, math.inf, PI / 2]
    phis = [6.781800114893231, -math.inf, 0.5, 0.5, math.nan, -0.0]
    for phase_outer, fmt, rows_per_block in itertools.product(
            [True, False], ["csv", "json"], [1, 4, 5, 7, cli._BLOCK_ROWS]):
        assert_unitarity_scan(phases, phis, phase_outer, fmt, rows_per_block)


@pytest.mark.parametrize("phase_outer", [True, False], ids=["phase_outer", "phase_inner"])
def test_unitarity_block_ports_equal_one_port_law_call_per_phase(phase_outer):
    # The block's one array evaluation against one outcome_probabilities
    # call per distinct phase, bit for bit; -0.0 and 0.0 are two phases.
    phases = [0.0, -0.0, PI / 2, 0.801322977421273, PI / 4, -0.0, 3.0]
    phis = [6.781800114893231, 0.0, -0.0, 0.5, PI, 1e3]
    pairs = (itertools.product(phases, phis) if phase_outer
             else ((phase, phi) for phi, phase in itertools.product(phis, phases)))
    phase, phi = np.array(list(pairs)).T
    spec = cli.ScanSpec(subcommand="unitarity", grids={}, params={"tolerance": 1e-10})
    columns, errors = cli._unitarity_rows(spec, np.arange(phase.size),
                                          {"reflection_phase": phase, "phi": phi})
    residual, valid, p_plus, p_minus, total = columns
    bits = phase.view(np.int64)
    for key in set(bits.tolist()):
        group = bits == key
        m = mach_zehnder_effective(phase[group][0].item())
        check = is_valid_quantum_measurement(m, 1e-10)
        p = outcome_probabilities(m, PathAmplitudes.balanced(), phi[group])
        assert residual[group].tolist() == [check.residual] * group.sum()
        assert valid[group].tolist() == [check.valid] * group.sum()
        for got, want in ((p_plus, p[0]), (p_minus, p[1]), (total, p[0] + p[1])):
            assert got[group].tobytes() == want.tobytes()
    assert errors == [""] * phase.size


amplitude = st.floats(-2.0, 2.0)
entries = st.builds(complex, amplitude, amplitude)


@PROPERTY
@given(st.lists(entries, min_size=4, max_size=4), st.floats(0.0, 2 * PI),
       st.lists(st.one_of(st.sampled_from(ANCHORS + FEW), st.floats(-1e3, 1e3)),
                min_size=1, max_size=40))
def test_outcome_probabilities_match_the_complex_expression(matrix, angle, phis):
    m = MeasurementMatrix(*matrix)
    amps = PathAmplitudes(L=cmath.rect(math.cos(0.5 * angle), angle),
                          S=complex(math.sin(0.5 * angle)))
    p_plus, p_minus = outcome_probabilities(m, amps, np.array(phis))
    assert list(zip(p_plus.tolist(), p_minus.tolist())) == [
        cmath_outcome(m, amps, phi) for phi in phis]


def test_outcome_probabilities_square_by_product_at_the_known_point():
    # libm pow(x, 2.0) gives p_minus 0.7249999288339706 here, one ulp below
    # the correctly rounded product.
    m = mach_zehnder_effective(0.801322977421273)
    amps = PathAmplitudes.balanced()
    p = outcome_probabilities(m, amps, np.array([6.781800114893231]))[:, 0].tolist()
    assert p == list(cmath_outcome(m, amps, 6.781800114893231))
    assert p[1] == 0.7249999288339707


EDGE_VALUES = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-7, 0.0, 2.5]


@pytest.mark.parametrize("rows_per_block", [1, 4, 7, cli._BLOCK_ROWS])
def test_json_spec_grids_equal_json_dumps(rows_per_block):
    # Two axes over several blocks: the spec's grid lists are spliced in from
    # the cells the rows were written with.
    phases, phis = EDGE_VALUES, EDGE_VALUES[::-1] + [0.25]
    assert_unitarity_scan(phases, phis, True, "json", rows_per_block)
    code, text = scan(["interf", *grid("phi", EDGE_VALUES), *grid("dphi", [0.0])],
                      "json", rows_per_block)
    doc = {"rows": json.loads(text)["rows"],
           "spec": {"format": "json", "output": "-", "subcommand": "interf",
                    "grids": {"phi": EDGE_VALUES, "dphi": [0.0]},
                    "params": {"tolerance": 1e-10}}}
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_failed_rows_blank_a_copy_of_an_input_column():
    # The phase column has the bits of phi and shares its cells; blanking
    # the failed rows' phase must leave phi written.
    golden = Path(__file__).parent / "golden" / "franson_ideal_invalid_visibility.json"
    code, text = scan(["franson", *grid("phi", [0.0, 1.5]), "--visibility", "1.5"], "json", 1)
    assert code == 1 and text.encode() == golden.read_bytes()
    rows = json.loads(text)["rows"]
    assert [row["phi"] for row in rows] == [0.0, 1.5]
    assert all(row["phase"] == "" and row["error"] for row in rows)


@pytest.mark.parametrize("rows_per_block", [1, 6, 7, cli._BLOCK_ROWS])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_columns_of_runs_are_written_cell_by_cell(fmt, rows_per_block):
    # Long runs of one value in a 1-D axis and its outputs: a run of -0.0
    # next to one of 0.0 must keep its sign, and failed runs their error.
    phis = [0.0] * 6 + [-0.0] * 6 + [math.nan] * 6 + [2.5] * 6 + [-math.inf] * 6 + [0.0] * 6
    code, text = scan(["interf", *grid("phi", phis)], fmt, rows_per_block)
    rows = [reference_row(interf_reference, phi) for phi in phis]
    assert_artifact(code, text, fmt, ["phi", "p_plus", "p_minus", "error"], rows,
                    {"subcommand": "interf", "grids": {"phi": phis},
                     "params": {"tolerance": 1e-10}})


@contextlib.contextmanager
def table_sizes():
    """The size of the table each block of a float column gets and the size
    of the one it hands on to the next, in the calling process; None once
    the column has left it."""
    sizes, table_cells = [], cli._table_cells

    def size(table):
        return None if table is None else table[0].size

    def spy(writer, values, table):
        cells, handed_on = table_cells(writer, values, table)
        sizes.append((size(table), size(handed_on)))
        return cells, handed_on
    with mock.patch.object(cli, "_table_cells", spy):
        yield sizes


def grew(sizes):
    """Whether a block added cells to its column's table."""
    return any(on is not None and on > got for got, on in sizes)


@contextlib.contextmanager
def formatted_values():
    """The bits of each float value handed to ``_Writer.floats`` in the
    calling process; a column that is not all floats is not counted."""
    handed, float_texts = [], cli._float_texts

    def spy(values):
        texts = float_texts(values)
        handed.extend(np.array(values, dtype=float).view(np.int64).tolist())
        return texts
    with mock.patch.object(cli, "_float_texts", spy):
        yield handed


def interf_grid_reference(dphis, phis):
    """The rows of an interf scan over dphi (outer) and phi (inner)."""
    rows = []
    for dphi, phi in itertools.product(dphis, phis):
        cells, error = wavepacket_reference(phi, dphi, 1e-10)
        rows.append(((dphi, phi), None if error else [float(cell) for cell in cells], error))
    return rows


# Phases on the inner axis whose ports repeat out of run order: -0.0 next to
# 0.0, and values outside the domain, whose rows are evaluated at 0.0 and
# then blanked.
REPEATING_PHIS = [0.0, -0.0, 1.0, math.nan, 1.0, math.inf, -math.inf, 0.5] * 3


@pytest.mark.parametrize("rows_per_block", [1, 7, cli._BLOCK_ROWS])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_columns_repeating_out_of_run_order_are_written_cell_by_cell(fmt, rows_per_block):
    # Each distinct value of such a column is formatted once per scan and
    # process; every cell must still be the text of its own value, with the
    # same bytes whether one process or two run the blocks.
    phases = [-0.0, 0.0, math.nan, *np.linspace(0.0, PI, 48).tolist(), math.inf]
    with table_sizes() as sizes:
        assert_unitarity_scan(phases, REPEATING_PHIS, True, fmt, rows_per_block)
    # A one-row block brings only new values: each output column leaves its
    # table at once, and the axes' tables already hold their grids.
    assert grew(sizes) == (rows_per_block > 1)
    argv = ["unitarity", *grid("reflection_phase", phases), *grid("phi", REPEATING_PHIS)]
    assert scan(argv + ["--workers", "2"], fmt, rows_per_block) == scan(argv, fmt,
                                                                         rows_per_block)

    # dphi = 2 pi writes runs of 0.5; the other contrasts repeat each phase's ports.
    dphis = [0.0, 2 * PI, -0.0, math.nan, 0.5, 0.0, math.inf, -math.inf]
    argv = ["interf", *grid("dphi", dphis), *grid("phi", REPEATING_PHIS * 6)]
    with table_sizes() as sizes:
        code, text = scan(argv, fmt, rows_per_block)
    assert grew(sizes) == (rows_per_block > 1)
    assert_artifact(code, text, fmt, ["dphi", "phi", "p_plus", "p_minus", "error"],
                    interf_grid_reference(dphis, REPEATING_PHIS * 6),
                    {"subcommand": "interf", "grids": {"dphi": dphis, "phi": REPEATING_PHIS * 6},
                     "params": {"tolerance": 1e-10}})
    assert scan(argv + ["--workers", "2"], fmt, rows_per_block) == (code, text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_cells_format_each_value_by_its_bits(fmt):
    # Keyed by value, -0.0 would take the cell of 0.0; every NaN is "nan"
    # (or NaN in JSON), whatever its sign and payload.
    writer = cli._Writer(("p",), fmt == "csv")
    values = np.array([0.0, -0.0, math.nan, math.nan, math.inf, -math.inf, 2.5, 5e-324] * 40)
    values[3::8] = np.copysign(math.nan, -1.0)
    values[2::16] = np.array([0x7FF8_0000_0000_0001]).view(float)[0]
    np.random.default_rng(1).shuffle(values)
    cells, table = [], cli._table(writer, np.empty(0))
    for block in np.split(values, 8):
        column, table = cli._table_cells(writer, block, table)
        cells += column
    assert table[0].size == 9
    assert cells == [writer.column([value])[0] for value in values.tolist()]
    # A table of the whole array, as a repeating grid axis starts with.
    assert cli._table_cells(writer, values, cli._table(writer, values)) == (cells, mock.ANY)


def test_table_stays_bounded(monkeypatch):
    # A column whose first block repeats and whose later blocks bring only
    # new values leaves its table at the first such block; one whose blocks
    # each bring a few new values leaves it where it would pass the cap.
    # Either way its size does not grow with the rows.  Each block hands on
    # the tables of phi, p_plus and p_minus, in that order.
    monkeypatch.setattr(cli, "_TABLE_CELLS", 100)
    block, largest = 30, set()
    for later in (12, 48):
        fresh = np.linspace(0.01, 3.0, later * block).tolist()
        # Ten new phases a block, each three times and never twice in a row.
        few_new = [0.1 + 0.001 * (10 * k + j) for k in range(later) for _ in range(3)
                   for j in range(10)]
        for phis in ([0.5, 1.0, 1.5, 2.0, 2.5] * 6 + fresh, few_new):
            with table_sizes() as sizes:
                code, text = scan(["interf", *grid("phi", phis)], "csv", block)
            assert_artifact(code, text, "csv", ["phi", "p_plus", "p_minus", "error"],
                            [reference_row(interf_reference, phi) for phi in phis], {})
            handed_on = [on for _, on in sizes]
            assert handed_on[-3:] == [None, None, None]
            largest.add(max(size or 0 for size in handed_on))
        assert handed_on[:6] == [10, 10, 10, 20, 20, 20]
    assert largest == {5, 100}


def test_a_process_of_one_block_formats_each_distinct_value_once():
    # The table serves the repeats of its one block: seven phases (-0.0
    # apart from 0.0) and three values of each port, the rows outside the
    # domain evaluated at 0.0.
    phis = REPEATING_PHIS * 6
    with formatted_values() as handed:
        code, text = scan(["interf", *grid("phi", phis)], "csv", len(phis))
    assert len(handed) == 7 + 3 + 3
    assert_artifact(code, text, "csv", ["phi", "p_plus", "p_minus", "error"],
                    [reference_row(interf_reference, phi) for phi in phis], {})


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_repeating_axis_is_formatted_once_per_scan(fmt):
    # 1 500 distinct phases on the inner axis of 3 x 1 500 rows: more than
    # two thirds of each block's values are distinct, yet the axis's table,
    # which starts with its whole grid, serves every block and the JSON
    # spec list.  The outputs lie in [0, 1.1] and never take a phase's bits.
    phis = np.linspace(2.0, 3.0, 1500)
    argv = ["unitarity", *grid("reflection_phase", [0.1, 0.2, 0.3]), *grid("phi", phis.tolist())]
    with formatted_values() as handed:
        code, text = scan(argv, fmt, cli._BLOCK_ROWS)
    assert code == 0
    counts = collections.Counter(handed)
    assert [counts[bits] for bits in phis.view(np.int64).tolist()] == [1] * phis.size
    assert scan(argv + ["--workers", "2"], fmt, cli._BLOCK_ROWS) == (code, text)
