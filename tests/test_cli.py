import csv
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest

from bellsim import cli, entangle
from bellsim.bell import quantum_I_closed_form
from bellsim.cli import (ConfigError, ScanSpec, _Writer,
                         load_config, main, run_scan)
from bellsim.interferometer import (InterferometerConfig, probability_wavepacket,
                                    wavepacket_contrast, wavepacket_ports)
from bellsim.measurement import PathAmplitudes, mach_zehnder_effective, outcome_probabilities
from bellsim.spectra import Spectrum
from mp_oracles import mp_port_probabilities

PI = math.pi


def read_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_load_config_minimal(tmp_path):
    doc = {"subcommand": "interf", "grids": {"phi": [0.0, 1.0]}}
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(doc))
    spec = load_config(str(path))
    assert spec.subcommand == "interf"
    assert spec.grids == {"phi": (0.0, 1.0)}
    assert spec.format == "csv" and spec.output == "-"
    assert spec.workers == 1


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"subcommand": "interf", "grids": {"phi": [0]}, "extra": 1}))
    with pytest.raises(ConfigError, match="extra"):
        load_config(str(path))


def test_load_config_rejects_empty_grid(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"subcommand": "interf", "grids": {"phi": []}}))
    with pytest.raises(ConfigError, match="nonempty"):
        load_config(str(path))


def test_load_config_parse_error_reports_position(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text('{"subcommand": "interf",\n  "grids": }')
    with pytest.raises(ConfigError, match=r"line 2"):
        load_config(str(path))


def test_spec_round_trip():
    spec = ScanSpec(subcommand="chained", grids={"n": (2.0, 3.0)},
                    params={"theta": PI, "model": "quantum"},
                    output="out.csv", format="json", workers=2)
    again = ScanSpec.from_dict(spec.to_dict())
    assert again == spec


def test_validation_errors():
    with pytest.raises(ConfigError, match="subcommand"):
        run_scan(ScanSpec(subcommand="nope", grids={"phi": (0.0,)}))
    with pytest.raises(ConfigError, match="does not scan"):
        run_scan(ScanSpec(subcommand="interf", grids={"bogus": (0.0,)}))
    with pytest.raises(ConfigError, match="requires parameter 'seed'"):
        run_scan(ScanSpec(subcommand="sample", grids={"phi": (0.0,)}))
    with pytest.raises(ConfigError, match="requires a 'phi' grid"):
        run_scan(ScanSpec(subcommand="interf", grids={"dphi": (0.0,)}))


def test_interf_scan_endpoints(tmp_path):
    out = tmp_path / "interf.csv"
    code = main(["interf", "--grid", "phi=linspace:0:6.283185307179586:101",
                 "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 101
    assert rows[0]["phi"] == "0.0" and rows[0]["p_plus"] == "1.0"
    assert rows[-1]["p_plus"] == "1.0"
    mid = rows[50]
    assert float(mid["p_plus"]) == pytest.approx(0.0, abs=1e-12)
    for row in rows:
        assert float(row["p_plus"]) + float(row["p_minus"]) == pytest.approx(1.0, abs=1e-12)
        assert row["error"] == ""


def test_interf_wavepacket_grid(tmp_path):
    out = tmp_path / "wp.csv"
    code = main(["interf", "--grid", "phi=0.0", "--grid", "dphi=6.283185307179586",
                 "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert float(rows[0]["p_plus"]) == pytest.approx(0.5, abs=1e-8)


def test_chained_scan_matches_closed_form(tmp_path):
    out = tmp_path / "chained.csv"
    grid = ",".join(str(n) for n in range(2, 65))
    code = main(["chained", "--grid", f"n={grid}", "--theta", str(PI),
                 "--model", "quantum", "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 63
    for row in rows:
        n = int(float(row["n"]))
        assert float(row["i_value"]) == pytest.approx(quantum_I_closed_form(n, PI), abs=1e-12)
        assert float(row["i_value"]) == pytest.approx(float(row["i_closed_form"]), abs=1e-12)
        assert row["classification"] == "bounded_nonlocal"


def test_unitarity_scan(tmp_path):
    out = tmp_path / "unit.csv"
    code = main(["unitarity",
                 "--grid", "reflection_phase=0.7853981633974483,1.5707963267948966",
                 "--grid", "phi=0.7853981633974483", "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    pi_quarter, physical = rows[0], rows[1]
    assert pi_quarter["valid"] == "0"
    assert float(pi_quarter["total"]) == pytest.approx(1.0 + math.sqrt(2) / 2, abs=1e-12)
    assert physical["valid"] == "1"
    assert float(physical["total"]) == pytest.approx(1.0, abs=1e-12)


def test_franson_ideal_scan(tmp_path):
    out = tmp_path / "franson.csv"
    code = main(["franson", "--grid", "phi=0.0,1.5707963267948966,3.141592653589793",
                 "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert [float(r["p_equal"]) for r in rows[:2]] == [1.0, 0.5]
    # cos^2(pi/2) with the rounded math.pi: the mpmath value
    assert float(rows[2]["p_equal"]) == pytest.approx(3.749399456654644e-33, rel=1e-15, abs=0.0)
    assert all(float(r["marginal_a"]) == 0.5 for r in rows)


def test_franson_physical_scan(tmp_path):
    out = tmp_path / "physical.csv"
    code = main(["franson", "--mode", "physical",
                 "--grid", "tau_b=1e-9",
                 "--pump-center", "2.4e15", "--pump-bandwidth", "6283.185307179586",
                 "--offset-bandwidth", "6.283185307179586e12", "--tau-a", "1e-9",
                 "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert float(rows[0]["visibility"]) >= 0.98
    assert float(rows[0]["marginal_a"]) == pytest.approx(0.5, abs=1e-12)


def test_extensions_scan(tmp_path):
    out = tmp_path / "ext.csv"
    code = main(["extensions", "--grid", "d=0.1,0.9", "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert rows[0]["witness_n"] == "19"
    assert rows[1]["witness_n"] == "2"
    assert rows[1]["bound_at_prev"] == ""


def test_row_error_continues_scan_and_exits_one(tmp_path):
    out = tmp_path / "err.csv"
    code = main(["extensions", "--grid", "d=0.9,1e-9,0.5", "--n-cap", "50",
                 "--output", str(out)])
    assert code == 1
    rows = read_rows(out)
    assert len(rows) == 3
    assert rows[0]["error"] == "" and rows[2]["error"] == ""
    assert "FalsificationCapError" in rows[1]["error"]
    assert rows[1]["witness_n"] == ""


def test_a_point_row_that_raises_a_bug_ends_the_scan(tmp_path, monkeypatch, capsys):
    # A KeyError is no row error: it ends the scan, not one row.
    def broken(spec):
        raise KeyError("x")

    monkeypatch.setitem(cli._CHAINED_MODELS, "quantum", broken)
    out = tmp_path / "out.csv"
    assert main(["chained", "--grid", "n=2,3", "--output", str(out)]) == 1
    assert "bellsim: error: KeyError: 'x'" in capsys.readouterr().err
    assert not out.exists()


def _forks(monkeypatch):
    """Record each fork and make it."""
    calls = []
    fork = os.fork

    def recorder():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", recorder)
    return calls


# Three blocks: a --workers scan forks a child wherever two CPUs are usable.
SPLIT_ROWS = 2 * cli._BLOCK_ROWS + 1


def test_sample_determinism_across_runs_and_workers(tmp_path, monkeypatch):
    args = ["sample", "--grid", f"phi=linspace:0:3.141592653589793:{SPLIT_ROWS}",
            "--seed", "123", "--n", "1000", "--model", "local"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    forks = _forks(monkeypatch)
    assert main(args + ["--workers", "4", "--output", str(paths[2])]) == 0
    assert bool(forks) == (cli._usable_cpus() >= 2)
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_json_output_structure(tmp_path):
    out = tmp_path / "out.json"
    code = main(["chained", "--grid", "n=2,3", "--format", "json",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"spec", "rows"}
    assert doc["spec"]["subcommand"] == "chained"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["i_value"] == pytest.approx(2.0 - math.sqrt(2.0), abs=1e-12)


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({
        "subcommand": "chained",
        "grids": {"n": [2, 3, 4]},
        "params": {"theta": PI, "model": "suppressed"},
        "format": "csv",
    }))
    out = tmp_path / "out.csv"
    code = main(["chained", "--config", str(cfg), "--model", "quantum",
                 "--output", str(out)])
    assert code == 0
    rows = read_rows(out)
    assert all(row["model"] == "quantum" for row in rows)


def test_usage_errors_exit_two(tmp_path):
    assert main(["sample", "--grid", "phi=0"]) == 2  # missing seed
    assert main(["interf", "--grid", "nonsense"]) == 2  # malformed grid
    assert main([]) == 2
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"subcommand": "interf", "grids": {"phi": [0]}}))
    assert main(["chained", "--config", str(cfg)]) == 2  # subcommand mismatch


def test_module_entry_point(tmp_path):
    out = tmp_path / "cli.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "bellsim", "interf", "--grid", "phi=0,1",
         "--output", str(out)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert out.read_text().startswith("phi,p_plus,p_minus,error")


def test_json_artifact_does_not_depend_on_workers(tmp_path, monkeypatch):
    # A 1-D grid: a child hands back its rows and its spec.grids cells.
    args = ["franson", "--grid", f"phi=linspace:-3.5:9.5:{SPLIT_ROWS}", "--format", "json",
            "--output", str(tmp_path / "out.json")]
    blobs = []
    forks = _forks(monkeypatch)
    for workers in ("1", "4"):
        assert main(args + ["--workers", workers]) == 0
        blobs.append((tmp_path / "out.json").read_bytes())
    assert bool(forks) == (cli._usable_cpus() >= 2)
    assert blobs[0] == blobs[1]
    assert "workers" not in json.loads(blobs[0])["spec"]


PHYSICAL_PARAMS = {"mode": "physical", "pump_center": 2.4e15, "pump_bandwidth": 6.28e3,
                   "offset_bandwidth": 6.28e12, "tau_a": 1e-9}


@pytest.mark.parametrize("argv, config", [
    (["franson", "--grid", "phi=0", "--coincidence-window", "abc"], None),
    (["interf"], {"subcommand": "interf", "grids": {"phi": [0]}, "workers": "2"}),
    (["interf"], {"subcommand": "interf", "grids": {"phi": [0]}, "params": {"tolerance": "x"}}),
    (["sample"], {"subcommand": "sample", "grids": {"phi": [0]}, "params": {"seed": "1"}}),
    (["franson"], {"subcommand": "franson", "grids": {"phi": [0]},
                   "params": {"visibility": "0.9"}}),
    (["chained"], {"subcommand": "chained", "grids": {"n": [2]}, "params": {"theta": "x"}}),
    (["extensions"], {"subcommand": "extensions", "grids": {"d": [0.5]},
                      "params": {"n_cap": 2.5}}),
    (["sample"], {"subcommand": "sample", "grids": {"phi": [0]},
                  "params": {"seed": 1, "n": True}}),
    (["franson"], {"subcommand": "franson", "grids": {"tau_b": [1e-9]},
                   "params": {**PHYSICAL_PARAMS, "shape": "triangle"}}),
    (["franson"], {"subcommand": "franson", "grids": {"phi": [0]},
                   "params": {"mode": "bogus"}}),
    (["franson", "--grid", "tau_b=1e-9", "--mode", "physical", "--pump-bandwidth", "6.28e3",
      "--offset-bandwidth", "6.28e12", "--tau-a", "1e-9"], None),
    (["chained"], {"subcommand": "chained", "grids": {"n": [2]}, "params": {"model": "nope"}}),
    (["sample"], {"subcommand": "sample", "grids": {"phi": [0]},
                  "params": {"seed": 1, "model": "nope"}}),
    (["interf"], {"subcommand": "interf", "grids": [1]}),
    (["interf"], {"subcommand": "interf", "grids": {"phi": [0]}, "params": [1]}),
    (["interf"], {"subcommand": "interf", "grids": {"phi": {"linspace": ["a", 1, 2]}}}),
    (["interf"], {"subcommand": "interf", "grids": {"phi": {"linspace": 5}}}),
    (["interf"], {"subcommand": "interf", "grids": {"phi": {"linspace": [0, 1, 2.5]}}}),
    (["interf"], {"subcommand": "interf", "grids": {"phi": "12"}}),
    (["interf", "--grid", "phi=linspace:a:1:5"], None),
    (["interf"], {"subcommand": "interf", "grids": {"phi": ["0.5", True]}}),
    (["interf"], {"subcommand": "interf", "grids": {"phi": {"linspace": [0, 1, True]}}}),
    (["chained", "--grid", "n=2", "--model", "pr_box", "--visibility", "0.9"], None),
    (["franson", "--grid", "phi=0,1", "--grid", "tau_b=1e-9,2e-9"], None),
    (["franson"], {"subcommand": "franson", "grids": {"tau_b": [1e-9]},
                   "params": {**PHYSICAL_PARAMS, "visibility": 0.9}}),
    (["chained"], {"subcommand": "chained", "grids": {"n": [2]}, "params": {"seed": 5}}),
    (["franson"], {"subcommand": "franson", "grids": {"phi": [0]},
                   "params": {"tolerance": 0.5}}),
    (["sample"], {"subcommand": "sample", "grids": {"phi": [0]}, "seed": 1}),
    (["sample", "--grid", "phi=0"], None),
    (["interf", "--grid", "phi=0", "--grid", "phi=1"], None),
    (["interf", "--grid", "phi=linspace:0:inf:3"], None),
    (["interf", "--grid", "phi=linspace:-1e308:1e308:3"], None),
    (["interf", "--grid", "phi=linspace:nan:1:2"], None),
    (["interf"], {"subcommand": "interf", "grids": {"phi": {"linspace": [0, math.inf, 3]}}}),
], ids=["coincidence_window", "workers", "tolerance", "seed", "visibility_text",
        "theta_text", "n_cap_fraction", "n_bool", "shape_unknown", "mode_unknown",
        "pump_center_missing", "chained_model_unknown", "sample_model_unknown",
        "grids_list", "params_list", "linspace_text", "linspace_scalar",
        "linspace_fraction", "grid_text", "linspace_flag_text", "grid_value_types",
        "linspace_bool_num", "visibility_for_pr_box", "tau_b_grid_in_ideal_mode",
        "visibility_in_physical_config", "seed_for_chained", "tolerance_for_franson",
        "top_level_seed", "seed_missing", "grid_twice", "linspace_infinite_stop",
        "linspace_infinite_span", "linspace_nan_start", "linspace_infinite_config"])
def test_malformed_option_values_exit_two(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "scan.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 2
    assert "config error" in capsys.readouterr().err


FRANSON_PHYSICAL = ["--mode", "physical", "--pump-center", "2.4e15",
                    "--pump-bandwidth", "6.28e3", "--offset-bandwidth", "6.28e12",
                    "--tau-a", "1e-9"]


@pytest.mark.parametrize("argv", [
    ["interf", "--grid", "phi=nan,inf,-0.0,1e-300"],
    ["interf", "--grid", "phi=0,1", "--grid", "dphi=0,3.14"],
    ["unitarity", "--grid", "reflection_phase=0.5,1.5707963267948966", "--grid", "phi=0,1"],
    ["franson", "--grid", "phi=0,1.5,3.141592653589793"],
    ["franson", "--grid", "tau_b=1e-9,1.0005e-9", *FRANSON_PHYSICAL],
    ["chained", "--grid", "n=2,3,2.5", "--model", "pr_box"],
    ["extensions", "--grid", "d=0.9,1e-9", "--n-cap", "50"],
    ["sample", "--grid", "phi=0,1", "--seed", "5", "--n", "1000"],
], ids=lambda argv: argv[0])
def test_json_artifact_is_the_indented_document(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main(argv + ["--format", "json", "--output", str(out)]) in (0, 1)
    text = out.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def _percent_template_text(names, csv_format, columns):
    """A block as the writer once assembled it, one ``%`` row template per
    format, kept as the oracle of the joined rows."""
    if csv_format:
        order = range(len(names))
        template, separator = ",".join(["%s"] * len(names)) + "\n", ""
    else:
        order = sorted(range(len(names)), key=names.__getitem__)
        template = ("{\n      " + ",\n      ".join(
            json.dumps(names[k]) + ": %s" for k in order) + "\n    }")
        separator = ",\n    "
    return separator.join(map(template.__mod__, zip(*[columns[k] for k in order])))


# One cell of each kind a row may hold: text the CSV format quotes, text
# with the characters of a % template, and every float a JSON writer spells.
ROW_CELLS = {"comma": "a, b", "quote": 'say "hi"', "newline": "x\ny", "percent": "%",
             "format": "%s", "escaped": "%%", "accent": "é", "blank": "", "flag": True,
             "off": False, "count": 7, "nan": math.nan, "inf": math.inf,
             "ninf": -math.inf, "zero": -0.0, "tiny": 5e-324}


def _rotated_rows(cells: dict, size: int) -> list[dict]:
    """``size`` rows over the keys of ``cells``: row i gives the j-th key the
    value of key (i + j) mod len(cells), so every column past one row mixes
    the kinds of cell."""
    names, values = list(cells), list(cells.values())
    return [{name: values[(i + j) % len(values)] for j, name in enumerate(names)}
            for i in range(size)]


def test_json_row_encoder_matches_json_dumps():
    # The column writer of the JSON format, one row per case and two rows at
    # once: each value in a column of its own type and in a mixed column;
    # then blocks of 1, 3 and 1 024 rows of every kind of cell.
    rows = [
        {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "zero": -0.0,
         "tiny": 5e-324, "flag": True, "off": False, "none": None, "count": 7},
        {"accent": "é", "quote": '"', "backslash": "\\", "newline": "\n",
         "error": "ValueError: a, b", "percent": "%s", "escaped": "%%"},
        {"error": ""},
        {"nan": "", "inf": 1.5, "ninf": 2, "zero": None, "tiny": "x",
         "flag": math.nan, "off": "é", "none": -0.0, "count": False},
    ]
    groups = [[row] for row in rows] + [[rows[0], rows[3]]]
    groups += [_rotated_rows({**ROW_CELLS, "none": None}, size) for size in (1, 3, 1024)]
    for group in groups:
        names = tuple(group[0])
        writer = _Writer(names, csv=False)
        columns = [writer.column([row[name] for row in group]) for name in names]
        text = writer.text(columns)
        assert text == _percent_template_text(names, False, columns)
        want = json.dumps({"rows": group}, indent=2, sort_keys=True)
        assert '{\n  "rows": [\n    ' + text + "\n  ]\n}" == want


def test_csv_row_encoder_matches_csv_writer():
    # The column writer of the CSV format against the csv module, in blocks
    # of 1, 3 and 1 024 rows of every kind of cell.  The CSV format writes a
    # bool as 1 or 0 (the unitarity `valid` column), so csv.writer is given
    # its int.
    names = tuple(ROW_CELLS)
    writer = _Writer(names, csv=True)
    for size in (1, 3, 1024):
        rows = _rotated_rows(ROW_CELLS, size)
        columns = [writer.column([row[name] for row in rows]) for name in names]
        text = writer.text(columns)
        assert text == _percent_template_text(names, True, columns)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(
            [int(value) if isinstance(value, bool) else value for value in row.values()]
            for row in rows)
        assert text == out.getvalue()


# Artifacts recorded before the writer was rewritten: a bool column
# (valid), int columns (counts, witness_n), empty cells and quoted errors.
GOLDEN_CSV = [
    (["unitarity", "--grid", "reflection_phase=0.7853981633974483,1.5707963267948966",
      "--grid", "phi=0.5"],
     "reflection_phase,phi,residual,valid,p_plus,p_minus,total,error\n"
     "0.7853981633974483,0.5,0.7071067811865475,0,0.938791280945186,"
     "0.7397127693021013,1.6785040502472874,\n"
     "1.5707963267948966,0.5,6.123233995736765e-17,1,0.9387912809451858,"
     "0.06120871905481365,0.9999999999999994,\n"),
    (["sample", "--grid", "phi=0,3.141592653589793", "--seed", "3", "--n", "1000"],
     "phi,n_plus,n_minus,n_double,n_null,error\n"
     "0.0,1000,0,0,0,\n"
     "3.141592653589793,0,1000,0,0,\n"),
    (["chained", "--grid", "n=2,3,2.5", "--model", "pr_box"],
     "n,theta,model,i_value,i_closed_form,classification,error\n"
     "2.0,3.141592653589793,pr_box,0.0,,maximal_nonlocal,\n"
     "3.0,3.141592653589793,pr_box,0.0,,maximal_nonlocal,\n"
     '2.5,,,,,,"ValueError: n must be an integer, got 2.5"\n'),
    (["extensions", "--grid", "d=0.9,1e-9", "--n-cap", "50"],
     "d,witness_n,bound_at_witness,i_at_witness,bound_at_prev,error\n"
     "0.9,2,0.8786796564403574,0.585786437626905,,\n"
     "1e-09,,,,,FalsificationCapError: no N <= 50 with bound < 1e-09: "
     "bound at the cap is 0.037007972570133225\n"),
    # Physical Franson rows: both shapes, with and without post-selection.
    # Re-recorded when the coherence envelopes became closed forms; the
    # quadrature they replace had a tolerance of 1e-10, and no value moved
    # by more than 9.1e-14.
    (["franson", "--grid", "tau_b=1e-9,1.0005e-9", *FRANSON_PHYSICAL,
      "--shape", "rectangular", "--coincidence-window", "none"],
     "tau_b,phase,visibility,p_equal,p_differ,p_pp,p_pm,p_mp,p_mm,marginal_a,"
     "marginal_b,error\n"
     "1e-09,2400000.0,0.5000022749264349,0.6634605727532595,"
     "0.33653942724674046,0.33158551998711067,0.16826971362337023,"
     "0.16826971362337023,0.33187505276614887,0.4998552336104809,"
     "0.4998552336104809,\n"
     "1.0005e-09,2400600.0,0.31842476519705815,0.4013507745121736,"
     "0.5986492254878264,0.20060460849809092,0.29925062511239,"
     "0.2993986003754364,0.20074616601408268,0.4998552336104809,"
     "0.5000032088735273,\n"),
    (["franson", "--grid", "tau_b=1e-9,1.0005e-9", *FRANSON_PHYSICAL,
      "--shape", "rectangular", "--coincidence-window", "auto"],
     "tau_b,phase,visibility,p_equal,p_differ,p_pp,p_pm,p_mp,p_mm,marginal_a,"
     "marginal_b,error\n"
     "1e-09,2400000.0,0.9999999999983568,0.8269176661590236,"
     "0.17308233384097638,0.4134588330795118,0.08654116692048819,"
     "0.08654116692048819,0.4134588330795118,0.5,0.5,\n"
     "1.0005e-09,2400600.0,0.6369424732040111,0.30262210757885233,"
     "0.6973778924211477,0.15131105378942616,0.34868894621057384,"
     "0.34868894621057384,0.15131105378942616,0.5,0.5,\n"),
    (["franson", "--grid", "tau_b=1e-9,1.0005e-9", *FRANSON_PHYSICAL,
      "--shape", "gaussian", "--coincidence-window", "none"],
     "tau_b,phase,visibility,p_equal,p_differ,p_pp,p_pm,p_mp,p_mm,marginal_a,"
     "marginal_b,error\n"
     "1e-09,2400000.0,0.49999999999822203,0.6634588330791992,"
     "0.3365411669208008,0.3317294165395996,0.1682705834604004,"
     "0.1682705834604004,0.3317294165395996,0.5,0.5,\n"
     "1.0005e-09,2400600.0,0.20552821974057864,0.4363102186585185,"
     "0.5636897813414816,0.21815510932925924,0.2818448906707408,"
     "0.2818448906707408,0.21815510932925924,0.5,0.5,\n"),
    (["franson", "--grid", "tau_b=1e-9,1.0005e-9", *FRANSON_PHYSICAL,
      "--shape", "gaussian", "--coincidence-window", "auto"],
     "tau_b,phase,visibility,p_equal,p_differ,p_pp,p_pm,p_mp,p_mm,marginal_a,"
     "marginal_b,error\n"
     "1e-09,2400000.0,0.9999999999964441,0.8269176661583983,"
     "0.1730823338416017,0.4134588330791992,0.08654116692080085,"
     "0.08654116692080085,0.4134588330791992,0.5,0.5,\n"
     "1.0005e-09,2400600.0,0.4110564394811573,0.37262043731703687,"
     "0.6273795626829631,0.18631021865851843,0.31368978134148157,"
     "0.31368978134148157,0.18631021865851843,0.5,0.5,\n"),
    # Recorded before rows were evaluated a grid block at a time: the
    # monochromatic fringe (dphi = 0) at 0, -0.0, +-pi, 3pi and 1e6 plus a
    # NaN error row, and unitarity with phi as the outer axis.  The fringe
    # rows were re-recorded when both ports took the half-angle forms (each
    # cell within relative 1e-15 of 50-digit mpmath; p_plus at +-pi is
    # cos^2(math.pi / 2), no longer 0.0).
    (["interf", "--grid", "phi=0,1.5707963267948966,3.141592653589793,-0.0,"
      "-3.141592653589793,9.42477796076938,1000000.0,nan"],
     "phi,p_plus,p_minus,error\n"
     "0.0,1.0,0.0,\n"
     "1.5707963267948966,0.5,0.49999999999999994,\n"
     "3.141592653589793,3.749399456654644e-33,1.0,\n"
     "-0.0,1.0,0.0,\n"
     "-3.141592653589793,3.749399456654644e-33,1.0,\n"
     "9.42477796076938,3.374459510989179e-32,1.0,\n"
     "1000000.0,0.9683760637665724,0.03162393623342761,\n"
     'nan,,,"ValueError: phi must be finite, got nan"\n'),
    (["unitarity", "--grid", "phi=0,0.5,3.141592653589793",
      "--grid", "reflection_phase=0.7853981633974483,1.5707963267948966,-0.0"],
     "phi,reflection_phase,residual,valid,p_plus,p_minus,total,error\n"
     "0.0,0.7853981633974483,0.7071067811865475,0,0.9999999999999998,"
     "0.4999999999999999,1.4999999999999996,\n"
     "0.0,1.5707963267948966,6.123233995736765e-17,1,0.9999999999999996,"
     "3.7493994566546427e-33,0.9999999999999996,\n"
     "0.0,-0.0,0.9999999999999998,0,0.9999999999999996,0.9999999999999996,"
     "1.9999999999999991,\n"
     "0.5,0.7853981633974483,0.7071067811865475,0,0.938791280945186,"
     "0.7397127693021013,1.6785040502472874,\n"
     "0.5,1.5707963267948966,6.123233995736765e-17,1,0.9387912809451858,"
     "0.06120871905481365,0.9999999999999994,\n"
     "0.5,-0.0,0.9999999999999998,0,0.938791280945186,0.938791280945186,"
     "1.877582561890372,\n"
     "3.141592653589793,0.7853981633974483,0.7071067811865475,0,"
     "6.162975822039156e-33,0.4999999999999998,0.4999999999999998,\n"
     "3.141592653589793,1.5707963267948966,6.123233995736765e-17,1,"
     "3.7493994566546427e-33,0.9999999999999996,0.9999999999999996,\n"
     "3.141592653589793,-0.0,0.9999999999999998,0,3.7493994566546427e-33,"
     "3.7493994566546427e-33,7.498798913309285e-33,\n"),
]


def _case_id(argv):
    options = [argv[i + 1] for i, flag in enumerate(argv)
               if flag in ("--shape", "--coincidence-window")]
    if argv[0] == "interf" or argv[1:3] == ["--grid", "phi=0,0.5,3.141592653589793"]:
        options.append("phi_first" if argv[0] == "unitarity" else "monochromatic")
    return "-".join([argv[0]] + options)


@pytest.mark.parametrize("argv, expected", GOLDEN_CSV, ids=[_case_id(a) for a, _ in GOLDEN_CSV])
def test_csv_artifact_bytes(tmp_path, argv, expected):
    out = tmp_path / "out.csv"
    main(argv + ["--output", str(out)])
    assert out.read_bytes() == expected.encode()


# JSON artifacts whose spec records every parameter the rows used.  Rows
# were re-recorded when the coherence envelopes became closed forms
# (franson_physical, as for the physical GOLDEN_CSV cases) and when the ideal
# fringe law took its concordance from cos(phi/2) (franson_ideal at pi,
# chained_visibility at n = 2; each value moved by at most 1.1e-16).  The
# two franson_ideal artifacts with failing rows (exit 1) were recorded
# before rows were evaluated a grid block at a time; the NaN and inf rows of
# franson_ideal_non_finite were re-recorded when the phi grid got its domain
# (they read "probability nan outside [0, 1]" and "math domain error").
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_JSON = [
    ("franson_ideal", ["franson", "--grid", "phi=0,1.5,3.141592653589793"], 0),
    ("franson_physical", ["franson", "--grid", "tau_b=1e-9,1.0005e-9", *FRANSON_PHYSICAL], 0),
    ("chained_visibility", ["chained", "--grid", "n=2,3", "--visibility", "0.9"], 0),
    ("sample", ["sample", "--grid", "phi=0,1", "--seed", "5", "--n", "1000"], 0),
    ("franson_ideal_invalid_visibility",
     ["franson", "--grid", "phi=0,1.5", "--visibility", "1.5"], 1),
    ("franson_ideal_non_finite", ["franson", "--grid", "phi=0,nan,inf,1.5"], 1),
]


@pytest.mark.parametrize("name, argv, code", GOLDEN_JSON,
                         ids=[name for name, _, _ in GOLDEN_JSON])
def test_json_artifact_bytes(capsys, name, argv, code):
    assert main(argv + ["--format", "json"]) == code
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


def _values(values) -> str:
    return ",".join(map(repr, values))


# Side-B delays of the physical Franson digests: 0, -0.0 and tau_a itself,
# windows' edges (0.5, 0.6, 1.5, 1.6 ns), a delay far past every coherence
# time (1e200) and one whose carrier phase and envelope arguments overflow
# without a window (1e300: a NaN column, "probability nan outside [0, 1]"),
# three invalid ones, a 1 001-point ps-scale mismatch sweep and a 301-point
# sweep over 0..3 ns; 1 315 rows, so the scan crosses a block edge.
_TAU_B = ([0.0, -0.0, 1e-9, 5e-10, 6e-10, 1.5e-9, 1.6e-9, 2e-9, 1e200, 1e300,
           -1e-9, math.nan, math.inf]
          + [1e-9 * (1.0 + 2e-3 * (k / 500 - 1.0)) for k in range(1001)]
          + [3e-9 * k / 300 for k in range(301)])
# Distances of the extensions digests: the deep benchmark anchors (1e-5 has
# witness 185 056; 1.5e-6 is a cap error), the ends of (0, 1], invalid
# values, and 10^(-k/20) down to 7.9e-7, below the default cap's reach.
_DISTANCES = ([0.1, 1e-3, 1e-4, 3e-5, 1e-5, 1.5e-6, 1.0, 0.0, -1.0, 1.5, math.nan, math.inf]
              + [10.0 ** (-k / 20) for k in range(1, 123)])
# Chain lengths whose 2n terms end exactly on, and one past, 2^14 and 2^16
# terms, and one that spans several batches of either size.
_CHAIN_LENGTHS = [2, 1000, 8192, 8193, 32768, 32769, 100000]
# Distances whose theta = 2.5 witnesses lie past 2^16 (the bound at 65 536
# and the next float up, the bounds at 10^5 and 2 * 10^5, two between) and
# one that the 10^7 cap does not reach.
_FAR_DISTANCES = [0.14916873091879618, 0.1491687309187962, 0.1491596177544986,
                  0.14915095305006212, 0.14915, 0.149144, 0.1491424]

# Phases of the sample digests: 0, pi and the branch edges +-pi/3 and
# +-2pi/3 of the fringe law, each between its two neighbouring floats,
# -0.0, NaN and +-inf (error rows) and a 2 078-point sweep: 2 100 rows, so
# the scan crosses two block edges.
_SAMPLE_PHI = ([y for x in (0.0, PI, PI / 3, -PI / 3, 2 * PI / 3, -2 * PI / 3)
                for y in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]
               + [-0.0, math.nan] + [-3.5 + 13.0 * k / 2077 for k in range(2078)]
               + [math.inf, -math.inf])

# Axes of the unitarity digest.
_REFLECTION_PHASES = ([0.0, -0.0, PI / 2, 0.801322977421273, math.nan]
                      + [k * PI / 95 for k in range(1, 96)])
_UNITARITY_PHI = [6.781800114893231, math.inf] + [0.3 + k * 2 * PI / 197 for k in range(198)]

# Artifacts on stdout by sha256 of their bytes.  The unitarity grid repeats
# each reflection phase over 200 phases, so block edges fall inside a
# phase's run; it holds -0.0 next to 0.0, the unitary pi/2, a NaN phase and
# an infinite phi (error rows), and the point (0.801322977421273,
# 6.781800114893231).  The ideal franson JSON embeds its 20 000 grid values
# in spec.grids.  The interf digest was re-recorded when both fringe ports
# took the half-angle forms (worst cell 3.1e-16 relative to 50-digit mpmath,
# 2.4e-9 before).  The wave-packet interf rows (dphi > 0) were re-recorded
# when they became the fringe law at one contrast per dphi (cells moved by
# at most 1.6e-15; worst cell 8.0e-16 from the 50-digit sinc law, 1.5e-15
# before).  The wave-packet edges were re-recorded when grid values were
# checked against their axes' domains: its 6 rows with both phi and dphi
# invalid name phi, the first axis, where they named dphi.  The physical
# Franson rows for each window kind and shape, and the extensions witnesses
# at theta = pi and 2.5, were recorded before their array and bisection
# paths existed.  franson_physical_none was re-recorded when the physical
# law became total array arithmetic: its one row whose law overflows
# (tau_b = 1e300) reads "probability nan outside [0, 1]", where it read
# "math domain error"; no other cell changed.  The multi-batch chains and
# the far theta = 2.5 witnesses were recorded while a chain batch held 2^16
# terms, before it held 2^14.  The sample digests were recorded while each
# row took its ports from a scalar fringe law of its own.  The unitarity
# digest was re-recorded when each port modulus was squared as an IEEE
# product, not by libm pow: 93 p cells and 42 total cells in 90 of its
# 20 000 rows moved by one ulp, and no residual or valid cell changed.
FULL_SCALE_DIGESTS = [
    ("unitarity",
     ["unitarity", "--grid", "reflection_phase=" + _values(_REFLECTION_PHASES),
      "--grid", "phi=" + _values(_UNITARITY_PHI)],
     1, "33b20da469abd613126e437823752c5ec041948f9db7ef26bc1cb43e0a5cc651"),
    ("franson_ideal_json",
     ["franson", "--grid", "phi=linspace:-3.5:9.5:20000", "--format", "json"],
     0, "a4ae3b53c2dbe252a3cfe41f356cc49b25cfbd31088fa456a0d73bff538ca54d"),
    ("interf_monochromatic",
     ["interf", "--grid", "phi=linspace:-10:10:20000", "--grid", "dphi=0"],
     0, "d787c983ee7843478b533215f8d441ac5d1c744e13058efeac568662dd31844a"),
    ("interf_wavepacket",
     ["interf", "--grid", "phi=linspace:-3.5:9.5:401",
      "--grid", "dphi=0.5,3.14,6.283185307179586,20,200"],
     0, "dfb606f3467069c0f14cd7ec3b195b8c55fe35d0c4914332c8e27fc1d891e5cc"),
    ("interf_wavepacket_edges_json",
     ["interf", "--grid", "phi=" + _values([0.0, -0.0, PI, -PI, 1e-300, 1e3, math.nan, math.inf]),
      "--grid", "dphi=" + _values([0.0, 1e-6, 0.5, 4 * PI, 50.0, 1000.0, -1.0, math.inf,
                                   math.nan]),
      "--tolerance", "1e-12", "--format", "json"],
     1, "c171afdcbbdaf9990d6efdfaab54ce9d51248c9ac7e44b930d4f4aca4427b538"),
    ("franson_physical_none",
     ["franson", "--grid", "tau_b=" + _values(_TAU_B), *FRANSON_PHYSICAL,
      "--coincidence-window", "none"],
     1, "dc1d381fec0eca6e3a4940f6aaf3aebe396227a798ac46191774810cd8b2f8ea"),
    ("franson_physical_auto_json",
     ["franson", "--grid", "tau_b=" + _values(_TAU_B), *FRANSON_PHYSICAL, "--format", "json"],
     1, "3ee3d4d24931c9569f44d33712535cc78a0147a3308a8ce5255c339048bd7aeb"),
    ("franson_physical_fixed",  # ll is dropped beyond 0.6 ns of mismatch
     ["franson", "--grid", "tau_b=" + _values(_TAU_B), *FRANSON_PHYSICAL,
      "--coincidence-window", "6e-10"],
     1, "85e03d2dcd2a561766cced47fc0f84f30d1e908ddd78b80f20d7ae3835f5f395"),
    ("franson_physical_gaussian",
     ["franson", "--grid", "tau_b=" + _values(_TAU_B), *FRANSON_PHYSICAL, "--shape", "gaussian"],
     1, "408bd6c25cc87cfa34060a92ca0edb4ddbcefa3842a61f22258f16692f678277"),
    ("franson_physical_gaussian_none",
     ["franson", "--grid", "tau_b=" + _values(_TAU_B), *FRANSON_PHYSICAL, "--shape", "gaussian",
      "--coincidence-window", "none"],
     1, "907b1bdafd4516c21f3af7b52af1e9454e5077e0b1ce387922a0195b57467c38"),
    ("extensions_pi",
     ["extensions", "--grid", "d=" + _values(_DISTANCES)],
     1, "b0c859236deb273784103a00e01d8bef8de8087940768794586d03d6ff74e616"),
    ("extensions_small_cap_json",
     ["extensions", "--grid", "d=" + _values(_DISTANCES[:40]), "--n-cap", "1000",
      "--format", "json"],
     1, "394422d82d7ee6e903ee3b1b394e070d23091b556836d87213dc42e7acaf3f6f"),
    ("extensions_theta",
     ["extensions", "--grid", "d=" + _values(_DISTANCES[:60]), "--theta", "2.5",
      "--n-cap", "5000"],
     1, "183ec094f01a6bd5ad916c9984625adde802e8fed764de42f113ee42567abe96"),
    ("chained_batches_visibility",
     ["chained", "--grid", "n=" + _values(_CHAIN_LENGTHS), "--visibility", "0.9"],
     0, "d7a274189a9cc21a1c3c371cffa9d07e0aa95358cfb064b9cf4b62eef77a540f"),
    ("chained_batches_pr_box",
     ["chained", "--grid", "n=" + _values(_CHAIN_LENGTHS), "--model", "pr_box"],
     0, "59070150aa51e593a2d5416db0af0f388ee022b7eec412ee6fe0625dc90eb50b"),
    ("extensions_theta_far",
     ["extensions", "--grid", "d=" + _values(_FAR_DISTANCES), "--theta", "2.5",
      "--n-cap", "10000000"],
     1, "69e1123108711c520699467e202c654ac80afcbe516fb0aad3df45e201f1fff5"),
    ("sample_quantum",
     ["sample", "--grid", "phi=" + _values(_SAMPLE_PHI), "--seed", "7", "--n", "1000"],
     1, "b5b7499854efc42f94eb4255bd903a663326998bb6f09a7253a0eb2deb9ae1e4"),
    ("sample_local_json",
     ["sample", "--grid", "phi=" + _values(_SAMPLE_PHI), "--seed", "7", "--n", "1000",
      "--model", "local", "--format", "json"],
     1, "e40583185e56902953ab688dd26aeef0dfc812d71d6fab2c2b5a73c4c8590771"),
]


@pytest.mark.parametrize("name, argv, code, digest", FULL_SCALE_DIGESTS,
                         ids=[name for name, _, _, _ in FULL_SCALE_DIGESTS])
def test_full_scale_artifact_digests(capsys, name, argv, code, digest):
    assert main(argv) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_unitarity_digest_ports_match_mpmath():
    # Every 10th finite point of each digest axis, both ports, against the
    # 40-digit law of the splitter's float entries; the full grid's worst
    # cell is 4.27e-16 from it.
    phases = [r for r in _REFLECTION_PHASES if math.isfinite(r)][::10]
    phis = [phi for phi in _UNITARITY_PHI if math.isfinite(phi)][::10]
    amps = PathAmplitudes.balanced()
    for r in phases:
        m = mach_zehnder_effective(r)
        ports = outcome_probabilities(m, amps, np.array(phis))
        for phi, computed in zip(phis, ports.T.tolist()):
            exact = mp_port_probabilities(m, amps, phi)
            assert all(abs(p - q) <= 2.0 ** -51 for p, q in zip(computed, exact)), (r, phi)


# Runs scans given as JSON [name, argv] pairs on stdin and prints numpy's
# SIMD extensions found and each scan's exit code and stdout digest.
_DIGEST_CHILD = """
import contextlib, hashlib, io, json, sys
import numpy as np
from bellsim.cli import main
digests = {}
for name, argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    digests[name] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
print(json.dumps({"found": found, "digests": digests}))
"""


def _digests_in_child(child_env):
    """Runs every full-scale digest scan and every JSON golden in a fresh
    interpreter with ``child_env`` added to its environment, checks their
    exit codes and digests, and returns the child's process and report."""
    scans = {name: (argv, code, digest) for name, argv, code, digest in FULL_SCALE_DIGESTS}
    for name, argv, code in GOLDEN_JSON:
        digest = hashlib.sha256((GOLDEN / f"{name}.json").read_bytes()).hexdigest()
        scans[f"golden_{name}"] = (argv + ["--format", "json"], code, digest)
    env = {**os.environ, **child_env, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _DIGEST_CHILD], env=env, capture_output=True, text=True,
        input=json.dumps([[name, argv] for name, (argv, _, _) in scans.items()]), check=True)
    report = json.loads(proc.stdout)
    assert report["digests"] == {name: [code, digest] for name, (_, code, digest) in scans.items()}
    return proc, report


def test_digests_do_not_depend_on_the_avx512_dispatch():
    """Every full-scale digest and every JSON golden has the same bytes with
    numpy's AVX-512 kernels disabled: the ufuncs that define artifact bits
    (see the ``bellsim`` package comment) give the same bits at every SIMD
    dispatch level.  The feature names come from numpy's own report, as
    they differ between numpy releases."""
    found = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    group = [name for name in found if name.startswith("AVX512") or name == "X86_V4"]
    if not group:
        pytest.skip(f"numpy dispatches no AVX-512 kernels on this host (found: {found})")
    _, report = _digests_in_child({"NPY_DISABLE_CPU_FEATURES": " ".join(group)})
    assert not set(group) & set(report["found"]), report["found"]


def test_digests_do_not_depend_on_the_openblas_kernel():
    """Every full-scale digest and every JSON golden has the same bytes with
    OpenBLAS on its Haswell kernels, those of an x86 host without AVX-512:
    no BLAS call defines an artifact bit.  The child's OpenBLAS reports the
    kernel it chose on stderr."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if "openblas" not in blas.lower():
        pytest.skip(f"numpy is not linked to OpenBLAS (blas: {blas})")
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip(f"OpenBLAS has no Haswell kernels on {platform.machine()}")
    proc, _ = _digests_in_child({"OPENBLAS_CORETYPE": "Haswell", "OPENBLAS_VERBOSE": "2"})
    assert "Core: Haswell" in proc.stderr, proc.stderr


@pytest.mark.parametrize("subcommand, grids, params, message", [
    ("franson", {"phi": (0.0,)}, {"visibility": "0.9"},
     "'visibility' must be a real number, got '0.9'"),
    ("chained", {"n": (2.0,)}, {"visibility": True},
     "'visibility' must be a real number, got True"),
    ("extensions", {"d": (0.5,)}, {"n_cap": 2.5}, "'n_cap' must be an integer, got 2.5"),
    ("franson", {"tau_b": (1e-9,)}, {**PHYSICAL_PARAMS, "coincidence_window": "abc"},
     "'coincidence_window' must be seconds, 'none' or 'auto', got 'abc'"),
    ("franson", {"phi": (0.0,)}, {"mode": "bogus"},
     r"'mode' must be one of \['ideal', 'physical'\], got 'bogus'"),
    ("chained", {"n": (2.0,)}, {"model": "nope"},
     r"'model' must be one of \['pr_box', 'quantum', 'suppressed'\], got 'nope'"),
    ("franson", {"tau_b": (1e-9,)}, {"mode": "physical"},
     "requires parameter 'pump_center' when mode is 'physical'"),
    ("franson", {"tau_b": (1e-9,)}, {}, "requires a 'phi' grid when mode is 'ideal'"),
    ("franson", {"phi": (0.0,)}, {"bogus": 1}, "does not take parameter 'bogus'"),
    ("chained", {"n": (2.0,)}, {"model": "pr_box", "visibility": 0.9},
     "takes parameter 'visibility' only when model is 'quantum'"),
    ("franson", {"phi": (0.0,), "tau_b": (1e-9,)}, {},
     "takes a 'tau_b' grid only when mode is 'physical'"),
    ("chained", {"n": ("a",)}, {}, "grid 'n': expected a list of real numbers"),
    ("interf", {"phi": (0.0, 1.0), "dphi": (0.5, None)}, {},
     "grid 'dphi': expected a list of real numbers"),
], ids=["real", "real_bool", "int", "window", "mode", "model", "required_param",
        "required_grid", "unknown", "inapplicable_param", "inapplicable_grid",
        "grid_text_chained", "grid_none_interf"])
def test_direct_spec_is_checked_like_flags_and_config(subcommand, grids, params, message):
    with pytest.raises(ConfigError, match=message):
        run_scan(ScanSpec(subcommand=subcommand, grids=grids, params=params))


# A ScanSpec built directly may hold any values; its grids take ints, floats,
# bools and numpy's integer and floating scalars, checked over every value.
@pytest.mark.parametrize("last", [0.5, 2, True, np.float64(0.25), np.int64(2), np.int32(2),
                                  np.float32(0.25)],
                         ids=["float", "int", "bool", "float64", "int64", "int32", "float32"])
def test_direct_spec_grid_takes_real_values(last):
    spec = ScanSpec(subcommand="interf", grids={"phi": (0.0,) * 19_999 + (last,)})
    assert cli.validate_spec(spec) == {"tolerance": 1e-10}


@pytest.mark.parametrize("last", ["0.5", None, 1j, np.complex128(1j), np.bool_(True)],
                         ids=["str", "none", "complex", "complex128", "numpy_bool"])
def test_direct_spec_grid_rejects_other_values(last):
    spec = ScanSpec(subcommand="interf", grids={"phi": (0.0,) * 19_999 + (last,)})
    with pytest.raises(ConfigError) as excinfo:
        cli.validate_spec(spec)
    assert str(excinfo.value) == "grid 'phi': expected a list of real numbers"


@pytest.mark.parametrize("value", ["0.5", None, 1j, True, np.bool_(True)],
                         ids=["str", "none", "complex", "bool", "numpy_bool"])
def test_direct_spec_real_parameter_rejects_other_values(value):
    spec = ScanSpec(subcommand="interf", grids={"phi": (0.0,)}, params={"tolerance": value})
    with pytest.raises(ConfigError) as excinfo:
        cli.validate_spec(spec)
    assert str(excinfo.value) == f"'tolerance' must be a positive real number, got {value!r}"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.float32, np.float64])
def test_numpy_scalars_are_taken_as_the_values_they_hold(capsys, kind, fmt):
    # As grid values and as real parameters, numpy scalars give the artifact
    # of the Python numbers they hold; a floating kind also gives the
    # physical Franson delays and window.
    def artifact(number):
        specs = [ScanSpec(subcommand="chained", grids={"n": (number(2), number(3))},
                          params={"visibility": number(1)}, format=fmt)]
        if issubclass(kind, np.floating):
            params = {**PHYSICAL_PARAMS, "tau_a": number(1e-9),
                      "coincidence_window": number(6e-10)}
            specs.append(ScanSpec(subcommand="franson", grids={"tau_b": (number(1.2e-9),)},
                                  params=params, format=fmt))
        for spec in specs:
            assert run_scan(spec) == 0
        return capsys.readouterr().out

    assert artifact(kind) == artifact(lambda value: kind(value).item())


def test_direct_spec_window_text_is_resolved(capsys):
    spec = ScanSpec(subcommand="franson", grids={"tau_b": (1e-9,)},
                    params={**PHYSICAL_PARAMS, "coincidence_window": "None"}, format="json")
    assert run_scan(spec) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["params"]["coincidence_window"] is None
    assert doc["rows"][0]["error"] == ""


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_interf_rejects_non_finite_phase_per_row(tmp_path, phi):
    out = tmp_path / "out.csv"
    assert main(["interf", "--grid", f"phi=0,{phi!r},1", "--grid", "dphi=3.14",
                 "--output", str(out)]) == 1
    with out.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["error"] for row in rows] == ["", f"ValueError: phi must be finite, got {phi!r}",
                                              ""]
    # the good rows are the wave-packet ports at the contrast of dphi
    contrast = wavepacket_contrast(3.14)
    for row in (rows[0], rows[2]):
        ports = wavepacket_ports(np.array([float(row["phi"])]), contrast)[:, 0].tolist()
        assert [row["p_plus"], row["p_minus"]] == list(map(repr, ports))


def test_config_real_parameters_take_ints_and_keep_them(tmp_path):
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps({"subcommand": "chained", "grids": {"n": [2]},
                               "params": {"theta": 3, "visibility": 1}, "format": "json"}))
    out = tmp_path / "out.json"
    assert main(["chained", "--config", str(cfg), "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["spec"]["params"] == {"model": "quantum", "theta": 3, "visibility": 1}
    assert doc["rows"][0]["theta"] == 3
    assert doc["rows"][0]["i_value"] == pytest.approx(quantum_I_closed_form(2, 3.0), abs=1e-12)


# Each grid axis with a domain, the values of a scan that lies inside it,
# the noun of its error text, and the values outside it to put between them
# (None: NaN, +-inf and OUTSIDE's value for the axis).  A chained n of +inf
# is caught earlier, by the chain budget, so that scan exits 2.
_CHAINED_N = [2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0]
DOMAIN_CASES = [
    (["interf", "--grid", "dphi=0.5"], "phi", None, "finite", None),
    (["interf", "--grid", "phi=0.5"], "dphi", None, "finite and >= 0", None),
    (["unitarity", "--grid", "phi=0.5"], "reflection_phase", None, "finite", None),
    (["unitarity", "--grid", "reflection_phase=0.7"], "phi", None, "finite", None),
    (["franson"], "phi", None, "finite", None),
    (["franson", *FRANSON_PHYSICAL], "tau_b",
     [1e-9, 1.0005e-9, 2e-9, 5e-10, 1.2e-9, 0.0, 3e-9, 9.99e-10], "finite and >= 0", None),
    (["chained"], "n", _CHAINED_N, "an integer", None),
    (["chained"], "n", _CHAINED_N, "an integer", [-math.inf]),
    (["chained"], "n", _CHAINED_N, "an integer", [math.nan]),
    (["sample", "--seed", "3", "--n", "1000"], "phi", None, "finite", None),
]
OUTSIDE = {"dphi": [-1.0], "tau_b": [-1.0], "n": [2.5]}


@pytest.mark.parametrize("argv, axis, inside, noun, outside", DOMAIN_CASES,
                         ids=["interf", "interf_dphi", "unitarity_reflection_phase",
                              "unitarity_phi", "franson", "franson_physical_tau_b", "chained",
                              "chained_n_minus_inf", "chained_n_nan", "sample"])
def test_non_finite_inputs_give_error_rows(tmp_path, argv, axis, inside, noun, outside):
    """Values outside an axis's domain (NaN, +-inf, and -1.0 for a delay or
    2.5 for n, unless the case names its own), put between the values of a
    scan inside it in one block, give error rows with the domain's text;
    every other row keeps the bytes of the scan without them (the sample
    rows keep their streams).  A scan of those values alone, whose row
    function runs at 0.0 in their place, gives the same error rows."""
    inside = inside or [0.0, 0.5, 1.5, 3.0, 4.5, 6.0, 2.0, 9.0]
    if outside is None:
        outside = ([math.nan, -math.inf] + ([] if axis == "n" else [math.inf])
                   + OUTSIDE.get(axis, []))
    mixed = list(inside)
    for k, value in enumerate(outside):
        mixed[2 * k + 1] = value
    texts = {}
    for name, values in (("inside", inside), ("mixed", mixed), ("outside", outside)):
        out = tmp_path / f"{name}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--grid", f"{axis}=" + _values(values), "--output", str(out)])
        assert code == (0 if name == "inside" else 1)
        texts[name] = out.read_text().splitlines()
    assert len(texts["mixed"]) == len(inside) + 1
    assert len(texts["outside"]) == len(outside) + 1
    header = texts["mixed"][0].split(",")
    failed = list(zip(texts["outside"][1:], outside))
    for line, want, value in zip(texts["mixed"][1:], texts["inside"][1:], mixed):
        if value in inside:
            assert line == want
        else:
            failed.append((line, value))
    for line, value in failed:
        row = dict(zip(header, next(csv.reader([line]))))
        assert row["error"] == f"ValueError: {axis} must be {noun}, got {value!r}"
        assert all(cell == "" for name, cell in row.items()
                   if name not in (axis, "phi", "reflection_phase", "dphi", "error"))


def test_every_grid_domain_holds_zero():
    # _evaluate runs a row function at 0.0 in place of a value outside its
    # axis's domain, so 0.0 must lie inside every domain
    for name, sub in cli._SUBCOMMANDS.items():
        for axis in sub.grids:
            if axis.domain is not None:
                assert axis.domain.holds(np.array([0.0, -0.0])).all(), (name, axis.name)


@pytest.mark.parametrize("argv, message", [
    (["chained", "--grid", "n=2,3", "--theta", "nan"],
     "ValueError: theta must be finite and >= 0, got nan"),
    (["chained", "--grid", "n=2,3", "--theta", "inf"],
     "ValueError: theta must be finite and >= 0, got inf"),
    (["extensions", "--grid", "d=0.1,0.01", "--theta", "nan"],
     "ValueError: theta must be finite and >= 0, got nan"),
    (["extensions", "--grid", "d=0.1,0.01", "--theta", "inf"],
     "ValueError: theta must be finite and >= 0, got inf"),
], ids=["chained_nan", "chained_inf", "extensions_nan", "extensions_inf"])
def test_non_finite_theta_gives_error_rows_without_warnings(tmp_path, argv, message):
    out = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv + ["--output", str(out)]) == 1
    with out.open(newline="") as fh:
        assert [row["error"] for row in csv.DictReader(fh)] == [message] * 2


@pytest.mark.parametrize("argv", [["chained", "--grid", "n=2,20"],
                                  ["extensions", "--grid", "d=0.1,0.9"]],
                         ids=["chained", "extensions"])
def test_negative_theta_gives_error_rows(tmp_path, argv):
    # both subcommands take theta in the domain of ChainedConfig
    out = tmp_path / "out.csv"
    assert main(argv + ["--theta", "-3", "--output", str(out)]) == 1
    with out.open(newline="") as fh:
        errors = [row["error"] for row in csv.DictReader(fh)]
    assert errors == ["ValueError: theta must be finite and >= 0, got -3.0"] * 2


def _with_row(monkeypatch, subcommand, row):
    monkeypatch.setitem(cli._SUBCOMMANDS, subcommand,
                        replace(cli._SUBCOMMANDS[subcommand], row=row))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_that_raises_outside_rows_leaves_no_file(tmp_path, monkeypatch, capsys, fmt):
    # The first block is written; the second raises what no row error is.
    real = cli._SUBCOMMANDS["interf"].row

    def row(spec, rows, points):
        if rows[0]:
            raise RuntimeError("lost the grid")
        return real(spec, rows, points)

    _with_row(monkeypatch, "interf", row)
    out = tmp_path / "out.csv"
    grid = f"phi=linspace:0:1:{cli._BLOCK_ROWS + 1}"
    assert main(["interf", "--grid", grid, "--format", fmt, "--output", str(out)]) == 1
    assert not out.exists()
    assert "bellsim: error: RuntimeError: lost the grid" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["missing_directory", "directory"])
def test_unwritable_output_fails_before_any_row_runs(tmp_path, monkeypatch, capsys, where):
    calls = []
    _with_row(monkeypatch, "interf", lambda *args: calls.append(args))
    out = tmp_path / "missing" / "out.csv" if where == "missing_directory" else tmp_path
    assert main(["interf", "--grid", "phi=0", "--output", str(out)]) == 1
    assert calls == []
    assert "bellsim: error:" in capsys.readouterr().err
    assert tmp_path.is_dir()


@pytest.mark.parametrize("argv", [
    ["chained", "--grid", "n=2,3", "--seed", "5"],
    ["chained", "--grid", "n=2,3", "--tolerance", "0.5"],
    ["franson", "--grid", "phi=0", "--tolerance", "0.5"],
    ["extensions", "--grid", "d=0.5", "--seed", "1"],
    ["interf", "--grid", "phi=0", "--seed", "1"],
    ["sample", "--grid", "phi=0", "--seed", "1", "--tolerance", "1e-9"],
], ids=lambda argv: "-".join((argv[0], argv[-2][2:])))
def test_scan_parameters_are_flags_only_where_rows_read_them(capsys, argv):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_json_spec_records_every_parameter_the_rows_used(capsys):
    pi_quarter = ["unitarity", "--grid", "reflection_phase=0.7853981633974483",
                  "--grid", "phi=0", "--format", "json"]
    assert main(pi_quarter) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["params"] == {"tolerance": 1e-10}
    assert doc["rows"][0]["valid"] is False
    # the tolerance reaches the row: the pi/4 residual sqrt(2)/2 passes at 1
    assert main(pi_quarter + ["--tolerance", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["params"] == {"tolerance": 1.0}
    assert doc["rows"][0]["valid"] is True
    assert main(["sample", "--grid", "phi=0", "--seed", "9", "--format", "json"]) == 0
    params = json.loads(capsys.readouterr().out)["spec"]["params"]
    assert params == {"model": "quantum", "n": 1_000_000, "seed": 9}


def test_grid_over_the_row_budget_exits_two_before_any_row_runs(tmp_path, monkeypatch,
                                                                capsys):
    calls = []
    _with_row(monkeypatch, "interf", lambda *args: calls.append(args))
    out = tmp_path / "out.csv"
    argv = ["interf", "--grid", "phi=linspace:0:1:4000", "--grid", "dphi=linspace:0:1:2501"]
    assert main(argv + ["--output", str(out)]) == 2
    assert "the grids give 10004000 rows; a scan may have at most 10000000" in (
        capsys.readouterr().err)
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("how", ["flag", "config"])
def test_linspace_over_the_row_budget_is_rejected_before_it_is_built(
        tmp_path, monkeypatch, capsys, how):
    def linspace(*args, **kwargs):
        raise AssertionError("np.linspace ran")

    monkeypatch.setattr(cli.np, "linspace", linspace)
    num = cli._MAX_ROWS + 1
    if how == "flag":
        argv = ["interf", "--grid", f"phi=linspace:0:1:{num}"]
    else:
        config = tmp_path / "scan.json"
        config.write_text(json.dumps({"subcommand": "interf",
                                      "grids": {"phi": {"linspace": [0, 1, num]}}}))
        argv = ["interf", "--config", str(config)]
    assert main(argv) == 2
    assert f"linspace num must be at most 10000000, got {num}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["chained", "--grid", "n=2,10000001"], "grid 'n' values must be at most 10000000, "
                                            "got 10000001.0"),
    (["chained", "--grid", "n=inf"], "grid 'n' values must be at most 10000000, got inf"),
    (["chained", "--grid", "n=nan,2,3e7,2e7"], "grid 'n' values must be at most 10000000, "
                                               "got 30000000.0"),
    (["extensions", "--grid", "d=0.5", "--n-cap", "10000001"],
     "'n_cap' must be at most 10000000, got 10000001"),
], ids=["chained_n", "chained_inf", "chained_first_over", "extensions_n_cap"])
def test_chain_over_the_chain_budget_exits_two(tmp_path, monkeypatch, capsys, argv, message):
    _with_row(monkeypatch, argv[0], lambda *args: pytest.fail("a row ran"))
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [2 ** 63, 10 ** 20])
def test_sample_size_beyond_a_c_long_exits_two(tmp_path, monkeypatch, capsys, n):
    # numpy's multinomial takes n as a C long; a larger n used to fail with
    # an OverflowError in the first row, after the header was written.
    _with_row(monkeypatch, "sample", lambda *args: pytest.fail("a row ran"))
    out = tmp_path / "out.csv"
    argv = ["sample", "--grid", "phi=0,1", "--seed", "1", "--n", str(n), "--output", str(out)]
    assert main(argv) == 2
    assert f"'n' must be at most 9223372036854775807, got {n}" in capsys.readouterr().err
    assert not out.exists()


def test_sample_size_at_its_limit_runs(capsys):
    assert main(["sample", "--grid", "phi=0.5", "--seed", "1", "--n", str(2 ** 63 - 1)]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert sum(map(int, row[1:5])) == 2 ** 63 - 1 and row[5] == ""


def test_budgets_admit_scans_at_their_limits():
    cli.validate_spec(ScanSpec(subcommand="chained", grids={"n": (2.0, 1e7)}))
    cli.validate_spec(ScanSpec(subcommand="extensions", grids={"d": (0.5,)},
                               params={"n_cap": cli._MAX_CHAIN}))
    # 10^7 rows as a product of short grids (nothing of that size is built)
    cli.validate_spec(ScanSpec(subcommand="unitarity",
                               grids={"reflection_phase": (0.0,) * 4000, "phi": (0.0,) * 2500}))


@pytest.mark.parametrize("subcommand, grids", [
    ("unitarity", {"reflection_phase": (1, 0.5), "phi": (0, True, 2.5)}),
    ("chained", {"n": (2, 3.0, 4)}),
], ids=["repeating_axes", "one_axis"])
def test_json_spec_writes_directly_given_grid_values_as_json_does(capsys, subcommand, grids):
    # A ScanSpec built directly may hold ints and bools, which json writes as
    # such; the rows take them as floats.
    assert run_scan(ScanSpec(subcommand=subcommand, grids=grids, format="json")) == 0
    text = capsys.readouterr().out
    doc = json.loads(text)
    spec = {"format": "json", "output": "-", "params": doc["spec"]["params"],
            "subcommand": subcommand, "grids": {name: list(v) for name, v in grids.items()}}
    assert text == json.dumps({"rows": doc["rows"], "spec": spec}, indent=2, sort_keys=True) + "\n"
    assert all(isinstance(row[name], float) for row in doc["rows"] for name in grids)


def test_wavepacket_quadrature_stays_within_its_memory_bound():
    """Rows of one dphi whose contrast spends the node budget (dphi = 1e5)
    share one quadrature: the traced peak of the block holds its
    full-budget node arrays and stays within 4 MiB."""
    phi = np.linspace(0.0, 6.0, 35)
    points = {"phi": phi, "dphi": np.full(phi.size, 1e5)}
    spec = ScanSpec(subcommand="interf", grids={}, params={"tolerance": 1e-10})
    cli._interf_rows(spec, np.arange(1), {axis: values[:1] for axis, values in points.items()})
    tracemalloc.start()  # after numpy's first-call allocations
    try:
        _, errors = cli._interf_rows(spec, np.arange(phi.size), points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(error.startswith("IntegrationError") and "after 65536 nodes" in error
               for error in errors)
    assert 8 * 2 ** 16 <= peak <= 4 * 2 ** 20


@pytest.mark.parametrize("argv, error", [
    (["--coincidence-window", "-1"], "coincidence window must be finite and >= 0, got -1.0"),
    (["--offset-center", "2e15"],
     "offset 2000000000000000.0 must satisfy |offset| < pump/2 = 1200000000000000.0: "
     "a down-converted frequency would be negative"),
    (["--tau-a", "-1"], "tau_a must be finite and >= 0, got -1.0"),
    (["--pump-bandwidth", "-1"], "bandwidth must be positive and finite, got -1.0"),
], ids=["window", "offset_center", "tau_a", "pump_bandwidth"])
def test_fixed_parameter_failure_runs_the_physical_law_once_per_block(tmp_path, argv, error):
    """A fixed parameter outside its domain fails every row: each block of a
    3 000-row scan builds both spectra once and calls the law once (none
    when a spectrum is invalid), and every row carries the same text."""
    out = tmp_path / "out.csv"
    with mock.patch.object(cli, "_franson_spectra", wraps=cli._franson_spectra) as spectra, \
            mock.patch.object(entangle, "physical_joint_probabilities",
                              wraps=entangle.physical_joint_probabilities) as law:
        assert main(["franson", *FRANSON_PHYSICAL, *argv, "--grid",
                     "tau_b=linspace:1e-9:2e-9:3000", "--output", str(out)]) == 1
    assert spectra.call_count == 3
    assert law.call_count == (0 if argv[0] == "--pump-bandwidth" else 3)
    with out.open(newline="") as f:
        errors = [row["error"] for row in csv.DictReader(f)]
    assert len(errors) == 3000 and set(errors) == {f"ValueError: {error}"}


def test_physical_rows_that_overflow_take_the_probability_check_text(tmp_path):
    """Without a window the carrier phase and the envelope arguments overflow
    at tau_b = 1e300: the law runs once for the block and those rows are NaN
    columns, which read the probability check's text; every other row, 1e200
    (finite carriers) included, equals the one-point law
    physical_joint_distribution bit for bit."""
    tau_b = [1e-9 * (1.0 + 1e-4 * k) for k in range(40)]
    tau_b[3] = tau_b[30] = 1e300
    tau_b[17] = 1e200  # finite carriers, no error
    out = tmp_path / "out.csv"
    spec = ScanSpec(subcommand="franson", grids={"tau_b": tuple(tau_b)},
                    params={**PHYSICAL_PARAMS, "coincidence_window": None}, output=str(out))
    with mock.patch.object(entangle, "physical_joint_probabilities",
                           wraps=entangle.physical_joint_probabilities) as law:
        assert run_scan(spec) == 1
    assert law.call_count == 1
    pump = Spectrum("rectangular", 2.4e15, 6.28e3)
    offset = Spectrum("rectangular", 0.0, 6.28e12, signed=True)
    with out.open(newline="") as f:
        rows = list(csv.DictReader(f))
    for row, t in zip(rows, tau_b):
        if t == 1e300:
            assert row["error"] == "ValueError: probability nan outside [0, 1]"
            continue
        result = entangle.physical_joint_distribution(
            entangle.FransonConfig(pump, offset, tau_a=1e-9, tau_b=t))
        d = result.distribution
        want = (result.mean_phase, result.visibility, d.p_equal, d.p_differ, *d.as_tuple(),
                entangle.marginal(d, "A"), entangle.marginal(d, "B"))
        assert [row[c] for c in cli._SUBCOMMANDS["franson"].columns] == list(map(repr, want))
        assert row["error"] == ""


@pytest.mark.parametrize("visibility, cells", [(1, {"1"}), (1.0, {"1.0"}), (0.25, {"0.25"})])
def test_ideal_franson_visibility_column(tmp_path, visibility, cells):
    """A float visibility is one constant array per block, written once; an
    int from a config keeps its int cells."""
    spec = ScanSpec(subcommand="franson", grids={"phi": (0.0, 1.0, 2.0)},
                    params={"visibility": visibility})
    columns, _ = cli._franson_rows(replace(spec, params=cli.validate_spec(spec)),
                                   np.arange(3), {"phi": np.array([0.0, 1.0, 2.0])})
    assert isinstance(columns[1], np.ndarray) == isinstance(visibility, float)
    out = tmp_path / "out.csv"
    assert run_scan(replace(spec, output=str(out))) == 0
    assert {row["visibility"] for row in read_rows(out)} == cells


def _interf_rows_of(argv, tmp_path):
    out = tmp_path / "interf.csv"
    assert main(["interf", *argv, "--output", str(out)]) == 0
    return read_rows(out)


def test_wavepacket_rows_match_the_sinc_law(tmp_path):
    """Rows with dphi > 0 of the interf_wavepacket digest and at phases far
    beyond a turn are within 1e-15 of (1 +- sinc(dphi/2) cos(phi))/2 to 50
    digits, at the exact binary inputs.  No phase is shifted by whole turns,
    so phi = -1.7e308 keeps its fringe."""
    digest = {name: argv for name, argv, _, _ in FULL_SCALE_DIGESTS}["interf_wavepacket"]
    rows = (_interf_rows_of(digest[1:], tmp_path)
            + _interf_rows_of(["--grid", "phi=1e17,-1e17,1e300,-1.7e308",
                               "--grid", "dphi=0.5,3.14,20"], tmp_path))
    assert len(rows) == 2005 + 12
    with mpmath.workdps(50):
        for row in rows:
            phi, dphi = mpmath.mpf(float(row["phi"])), mpmath.mpf(float(row["dphi"]))
            p_plus = (1 + mpmath.sinc(dphi / 2) * mpmath.cos(phi)) / 2
            assert abs(float(row["p_plus"]) - p_plus) <= 1e-15, row
            assert abs(float(row["p_minus"]) - (1 - p_plus)) <= 1e-15, row


@pytest.mark.parametrize("dphi", [1e-9, 0.5, 3.14, 2 * PI, 20.0, 200.0])
def test_wavepacket_rows_equal_probability_wavepacket_at_the_shifted_center(tmp_path, dphi):
    """A row is the one-point law probability_wavepacket of a rectangular
    spectrum at unit delay whose center is phi shifted by whole turns to
    keep the support positive, to within 3e-15 for |phi| <= 10."""
    for row in _interf_rows_of(["--grid", "phi=linspace:-10:10:201",
                                "--grid", f"dphi={dphi!r}"], tmp_path):
        phi = float(row["phi"])
        turns = math.ceil((dphi / 2.0 - phi) / (2.0 * PI)) + 1
        cfg = InterferometerConfig(1.0, Spectrum("rectangular", phi + turns * 2.0 * PI, dphi))
        assert abs(float(row["p_plus"]) - probability_wavepacket(+1, cfg)) <= 3e-15
        assert abs(float(row["p_minus"]) - probability_wavepacket(-1, cfg)) <= 3e-15


def test_parser_is_built_once_and_calls_do_not_leak(tmp_path, capsys):
    assert cli._build_parser() is cli._build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.csv"
    assert main(["interf", "--grid", "phi=0,1", "--grid", "dphi=0.5", "--tolerance", "1e-8",
                 "--format", "json", "--output", str(first)]) == 0
    assert json.loads(first.read_text())["spec"]["params"] == {"tolerance": 1e-8}
    # No grid, parameter or option of the first call reaches the second.
    assert main(["interf", "--grid", "phi=2", "--output", str(second)]) == 0
    assert second.read_text().splitlines()[0] == "phi,p_plus,p_minus,error"
    assert main(["interf", "--grid", "phi=2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["grids"] == {"phi": [2.0]}
    assert doc["spec"]["params"] == {"tolerance": 1e-10}
    # A config error after good calls still exits 2, and --help still exits 0.
    assert main(["interf", "--grid", "phi=0", "--grid", "phi=1"]) == 2
    assert "grid 'phi' is given twice" in capsys.readouterr().err
    assert main(["chained", "--grid", "n=2", "--tolerance", "1e-8"]) == 2
    capsys.readouterr()
    assert main(["interf", "--help"]) == 0
    assert "--tolerance" in capsys.readouterr().out
    assert main(["sample", "--grid", "phi=0", "--seed", "1", "--n", "10"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "phi,n_plus,n_minus,n_double,n_null,error"
