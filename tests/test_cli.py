import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bellsim.bell import quantum_I_closed_form
from bellsim.cli import (ConfigError, ScanSpec, _json_row, _wavepacket_probabilities,
                         load_config, main, run_scan)

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


def test_sample_determinism_across_runs_and_workers(tmp_path):
    args = ["sample", "--grid", "phi=linspace:0:3.141592653589793:9",
            "--seed", "123", "--n", "100000", "--model", "local"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(args + ["--output", str(paths[0])]) == 0
    assert main(args + ["--output", str(paths[1])]) == 0
    assert main(args + ["--workers", "4", "--output", str(paths[2])]) == 0
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


def test_json_artifact_does_not_depend_on_workers(tmp_path):
    args = ["chained", "--grid", "n=2,3,4", "--format", "json",
            "--output", str(tmp_path / "out.json")]
    blobs = []
    for workers in ("1", "4"):
        assert main(args + ["--workers", workers]) == 0
        blobs.append((tmp_path / "out.json").read_bytes())
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
], ids=["coincidence_window", "workers", "tolerance", "seed", "visibility_text",
        "theta_text", "n_cap_fraction", "n_bool", "shape_unknown", "mode_unknown",
        "pump_center_missing", "chained_model_unknown", "sample_model_unknown",
        "grids_list", "params_list", "linspace_text", "linspace_scalar",
        "linspace_fraction", "grid_text", "linspace_flag_text", "grid_value_types",
        "linspace_bool_num", "visibility_for_pr_box", "tau_b_grid_in_ideal_mode",
        "visibility_in_physical_config", "seed_for_chained", "tolerance_for_franson",
        "top_level_seed", "seed_missing", "grid_twice"])
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


def test_json_row_encoder_matches_json_dumps():
    rows = [
        {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "zero": -0.0,
         "tiny": 5e-324, "flag": True, "off": False, "none": None, "count": 7},
        {"accent": "é", "quote": '"', "backslash": "\\", "newline": "\n",
         "error": "ValueError: a, b"},
        {"error": ""},
    ]
    for row in rows:
        want = json.dumps({"rows": [row]}, indent=2, sort_keys=True)
        assert '{\n  "rows": [\n    ' + _json_row(row) + "\n  ]\n}" == want


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
]


def _case_id(argv):
    options = [argv[i + 1] for i, flag in enumerate(argv)
               if flag in ("--shape", "--coincidence-window")]
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
# chained_visibility at n = 2; each value moved by at most 1.1e-16).
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_JSON = [
    ("franson_ideal", ["franson", "--grid", "phi=0,1.5,3.141592653589793"]),
    ("franson_physical", ["franson", "--grid", "tau_b=1e-9,1.0005e-9", *FRANSON_PHYSICAL]),
    ("chained_visibility", ["chained", "--grid", "n=2,3", "--visibility", "0.9"]),
    ("sample", ["sample", "--grid", "phi=0,1", "--seed", "5", "--n", "1000"]),
]


@pytest.mark.parametrize("name, argv", GOLDEN_JSON, ids=[name for name, _ in GOLDEN_JSON])
def test_json_artifact_bytes(capsys, name, argv):
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / f"{name}.json").read_bytes()


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
], ids=["real", "real_bool", "int", "window", "mode", "model", "required_param",
        "required_grid", "unknown", "inapplicable_param", "inapplicable_grid"])
def test_direct_spec_is_checked_like_flags_and_config(subcommand, grids, params, message):
    with pytest.raises(ConfigError, match=message):
        run_scan(ScanSpec(subcommand=subcommand, grids=grids, params=params))


def test_direct_spec_window_text_is_resolved(capsys):
    spec = ScanSpec(subcommand="franson", grids={"tau_b": (1e-9,)},
                    params={**PHYSICAL_PARAMS, "coincidence_window": "None"}, format="json")
    assert run_scan(spec) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spec"]["params"]["coincidence_window"] is None
    assert doc["rows"][0]["error"] == ""


@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_interf_rejects_non_finite_phase_per_row(tmp_path, phi):
    with pytest.raises(ValueError, match="phi must be finite"):
        _wavepacket_probabilities(phi, 3.14, 1e-10)
    out = tmp_path / "out.csv"
    assert main(["interf", "--grid", f"phi=0,{phi!r},1", "--grid", "dphi=3.14",
                 "--output", str(out)]) == 1
    rows = read_rows(out)
    assert [row["error"] == "" for row in rows] == [True, False, True]
    assert "phi must be finite" in rows[1]["error"]


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


@pytest.mark.parametrize("argv, message", [
    (["franson", "--grid", "phi=nan"], "ValueError: probability nan outside [0, 1]"),
    (["chained", "--grid", "n=3", "--theta", "nan"], "ValueError: probability nan outside [0, 1]"),
    (["interf", "--grid", "phi=nan"], "ValueError: phi must be finite, got nan"),
    (["interf", "--grid", "phi=0", "--grid", "dphi=inf"],
     "ValueError: dphi must be finite and >= 0, got inf"),
], ids=["franson", "chained", "interf", "interf_dphi"])
def test_non_finite_inputs_give_error_rows(tmp_path, argv, message):
    out = tmp_path / "out.csv"
    assert main(argv + ["--output", str(out)]) == 1
    with out.open(newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["error"] == message
    assert all(value == "" for name, value in row.items()
               if name not in ("phi", "n", "dphi", "error"))


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
