"""Parameter-scan command line front end.

Subcommands: ``interf``, ``unitarity``, ``franson``, ``chained``,
``extensions``, ``sample``.  Each scan takes one or more named value grids,
evaluates one row per grid point (cartesian product, declaration order),
and writes CSV or JSON.  Scans are configured by flags, by a JSON config
document, or both (flags win).  Rows run one after another in grid order on
the calling thread; ``--workers`` is still accepted and validated (>= 1) but
changes nothing, and the JSON artifact leaves it out of its ``spec``.
Outputs are byte-identical for identical spec and seed: rows are pure
functions of the grid point (plus a per-row stream index for sampling).

Exit codes: 0 success, 1 any row failed numerically (the row's ``error``
column carries the diagnostic and the scan continues), 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bell, entangle, extensions, interferometer, measurement
from .spectra import IntegrationError, Spectrum

USAGE_ERROR = 2
ROW_ERROR = 1

_TWO_PI = 2.0 * math.pi


class ConfigError(ValueError):
    pass


@dataclass
class ScanSpec:
    subcommand: str
    grids: dict[str, tuple[float, ...]]
    params: dict = field(default_factory=dict)
    output: str = "-"
    format: str = "csv"
    seed: int | None = None
    tolerance: float = 1e-10
    workers: int = 1

    def to_dict(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "grids": {name: list(values) for name, values in self.grids.items()},
            "params": dict(self.params),
            "output": self.output,
            "format": self.format,
            "seed": self.seed,
            "tolerance": self.tolerance,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScanSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        allowed = {"subcommand", "grids", "params", "output", "format",
                   "seed", "tolerance", "workers"}
        for key in data:
            if key not in allowed:
                raise ConfigError(f"unknown config key: {key!r}")
        if "subcommand" not in data:
            raise ConfigError("config is missing 'subcommand'")
        grids = {}
        for name, value in (data.get("grids") or {}).items():
            grids[name] = _resolve_grid(name, value)
        return cls(
            subcommand=data["subcommand"],
            grids=grids,
            params=dict(data.get("params") or {}),
            output=data.get("output", "-"),
            format=data.get("format", "csv"),
            seed=data.get("seed"),
            tolerance=data.get("tolerance", 1e-10),
            workers=data.get("workers", 1),
        )


def _resolve_grid(name: str, value) -> tuple[float, ...]:
    """A grid is a nonempty list of numbers or {"linspace": [start, stop, num]}."""
    if isinstance(value, dict):
        extra = set(value) - {"linspace"}
        if extra:
            raise ConfigError(f"grid {name!r}: unknown key {sorted(extra)[0]!r}")
        if "linspace" not in value:
            raise ConfigError(f"grid {name!r}: expected a 'linspace' entry")
        spec = value["linspace"]
        if len(spec) != 3:
            raise ConfigError(f"grid {name!r}: linspace needs [start, stop, num]")
        start, stop, num = float(spec[0]), float(spec[1]), int(spec[2])
        if num < 1:
            raise ConfigError(f"grid {name!r}: linspace num must be >= 1")
        return tuple(float(x) for x in np.linspace(start, stop, num))
    try:
        values = tuple(float(x) for x in value)
    except (TypeError, ValueError):
        raise ConfigError(f"grid {name!r}: expected a list of numbers") from None
    if not values:
        raise ConfigError(f"grid {name!r} is empty; grids must be nonempty")
    return values


def load_config(path: str) -> ScanSpec:
    """Parse a JSON scan document, rejecting unknown keys."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(
            f"config {path!r}: parse error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from None
    return ScanSpec.from_dict(data)


# ---------------------------------------------------------------------------
# Subcommand definitions

@dataclass(frozen=True)
class _Subcommand:
    name: str
    grid_axes: tuple[str, ...]           # allowed grid names
    required_axes: tuple[str, ...]
    param_names: tuple[str, ...]
    defaults: dict
    output_columns: Callable[[ScanSpec], tuple[str, ...]]
    # row(spec, index, point) -> dict of output column values
    row: Callable[[ScanSpec, int, dict], dict]


def _wavepacket_probabilities(phi: float, dphi: float, tol: float) -> tuple[float, float]:
    """Fringe probabilities at center phase phi and bandwidth-delay product dphi.

    Realized with a unit delay and a rectangular spectrum whose center is
    phi shifted by whole turns to keep the support positive.
    """
    if dphi < 0.0:
        raise ValueError(f"dphi must be >= 0, got {dphi!r}")
    if dphi == 0.0:
        p_plus = interferometer.probability_monochromatic(+1, phi)
        return p_plus, 1.0 - p_plus
    turns = math.ceil((dphi / 2.0 - phi) / _TWO_PI) + 1
    cfg = interferometer.InterferometerConfig(
        path_delay_tau=1.0,
        source=Spectrum(shape="rectangular", center=phi + turns * _TWO_PI, bandwidth=dphi),
    )
    p_plus = interferometer.probability_wavepacket(+1, cfg, tol)
    return p_plus, 1.0 - p_plus


def _row_interf(spec: ScanSpec, index: int, point: dict) -> dict:
    p_plus, p_minus = _wavepacket_probabilities(
        point["phi"], point.get("dphi", 0.0), spec.tolerance
    )
    return {"p_plus": p_plus, "p_minus": p_minus}


def _row_unitarity(spec: ScanSpec, index: int, point: dict) -> dict:
    m = measurement.mach_zehnder_effective(point["reflection_phase"])
    validation = measurement.is_valid_quantum_measurement(m, spec.tolerance)
    outcome = measurement.outcome_distribution(
        m, measurement.PathAmplitudes.balanced(), point["phi"]
    )
    return {
        "residual": validation.residual,
        "valid": validation.valid,
        "p_plus": outcome.p_plus,
        "p_minus": outcome.p_minus,
        "total": outcome.total,
    }


def _franson_physical_config(spec: ScanSpec, tau_b: float) -> entangle.FransonConfig:
    p = spec.params
    window = p.get("coincidence_window", "auto")
    if window == "auto":
        window = 0.5 * min(p["tau_a"], tau_b)
    elif window is not None:
        window = float(window)
    return entangle.FransonConfig(
        pump=Spectrum(shape=p.get("shape", "rectangular"),
                      center=p["pump_center"], bandwidth=p["pump_bandwidth"]),
        photon_offset=Spectrum(shape=p.get("shape", "rectangular"),
                               center=p.get("offset_center", 0.0),
                               bandwidth=p["offset_bandwidth"], signed=True),
        tau_a=p["tau_a"],
        tau_b=tau_b,
        coincidence_window=window,
    )


def _row_franson(spec: ScanSpec, index: int, point: dict) -> dict:
    mode = spec.params.get("mode", "ideal")
    if mode == "ideal":
        dist = entangle.ideal_joint_distribution(
            point["phi"], spec.params.get("visibility", 1.0)
        )
        phase, visibility = point["phi"], spec.params.get("visibility", 1.0)
    else:
        result = entangle.physical_joint_distribution(
            _franson_physical_config(spec, point["tau_b"]), spec.tolerance
        )
        dist, phase, visibility = result.distribution, result.mean_phase, result.visibility
    return {
        "phase": phase,
        "visibility": visibility,
        "p_equal": dist.p_equal,
        "p_differ": dist.p_differ,
        "p_pp": dist.p_pp,
        "p_pm": dist.p_pm,
        "p_mp": dist.p_mp,
        "p_mm": dist.p_mm,
        "marginal_a": entangle.marginal(dist, "A"),
        "marginal_b": entangle.marginal(dist, "B"),
    }


def _franson_columns(spec: ScanSpec) -> tuple[str, ...]:
    return ("phase", "visibility", "p_equal", "p_differ", "p_pp", "p_pm",
            "p_mp", "p_mm", "marginal_a", "marginal_b")


_CHAINED_MODELS = {
    "quantum": lambda spec: bell.quantum_model(spec.params.get("visibility", 1.0)),
    "pr_box": lambda spec: bell.pr_box_model(),
    "suppressed": lambda spec: bell.suppressed_nonlocality_model(),
}


def _row_chained(spec: ScanSpec, index: int, point: dict) -> dict:
    n = point["n"]
    if n != int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    theta = spec.params.get("theta", math.pi)
    model_name = spec.params.get("model", "quantum")
    model = _CHAINED_MODELS[model_name](spec)
    result = bell.chained_I(model, bell.ChainedConfig(n=n, theta=theta))
    closed = bell.quantum_I_closed_form(n, theta) if model_name == "quantum" else ""
    return {
        "theta": theta,
        "model": model_name,
        "i_value": result.i_value,
        "i_closed_form": closed,
        "classification": result.classification.value,
    }


def _row_extensions(spec: ScanSpec, index: int, point: dict) -> dict:
    witness = extensions.find_falsifying_N(
        point["d"],
        theta=spec.params.get("theta", math.pi),
        n_cap=int(spec.params.get("n_cap", 1_000_000)),
    )
    return {
        "witness_n": witness.n,
        "bound_at_witness": witness.bound,
        "i_at_witness": witness.i_value,
        "bound_at_prev": "" if witness.previous_bound is None else witness.previous_bound,
    }


_SAMPLE_MODELS = {
    "quantum": interferometer.quantum_detection_distribution,
    "local": interferometer.local_detection_distribution,
}


def _row_sample(spec: ScanSpec, index: int, point: dict) -> dict:
    dist = _SAMPLE_MODELS[spec.params.get("model", "quantum")](point["phi"])
    counts = interferometer.sample_events(
        dist, int(spec.params.get("n", 1_000_000)), spec.seed, stream=index
    )
    return {
        "n_plus": counts.n_plus,
        "n_minus": counts.n_minus,
        "n_double": counts.n_double,
        "n_null": counts.n_null,
    }


_SUBCOMMANDS: dict[str, _Subcommand] = {
    "interf": _Subcommand(
        name="interf",
        grid_axes=("phi", "dphi"), required_axes=("phi",),
        param_names=(), defaults={},
        output_columns=lambda spec: ("p_plus", "p_minus"),
        row=_row_interf,
    ),
    "unitarity": _Subcommand(
        name="unitarity",
        grid_axes=("reflection_phase", "phi"),
        required_axes=("reflection_phase", "phi"),
        param_names=(), defaults={},
        output_columns=lambda spec: ("residual", "valid", "p_plus", "p_minus", "total"),
        row=_row_unitarity,
    ),
    "franson": _Subcommand(
        name="franson",
        grid_axes=("phi", "tau_b"), required_axes=(),
        param_names=("mode", "visibility", "pump_center", "pump_bandwidth",
                     "offset_center", "offset_bandwidth", "tau_a",
                     "coincidence_window", "shape"),
        defaults={"mode": "ideal"},
        output_columns=_franson_columns,
        row=_row_franson,
    ),
    "chained": _Subcommand(
        name="chained",
        grid_axes=("n",), required_axes=("n",),
        param_names=("theta", "model", "visibility"),
        defaults={"theta": math.pi, "model": "quantum"},
        output_columns=lambda spec: ("theta", "model", "i_value",
                                     "i_closed_form", "classification"),
        row=_row_chained,
    ),
    "extensions": _Subcommand(
        name="extensions",
        grid_axes=("d",), required_axes=("d",),
        param_names=("theta", "n_cap"),
        defaults={"theta": math.pi, "n_cap": 1_000_000},
        output_columns=lambda spec: ("witness_n", "bound_at_witness",
                                     "i_at_witness", "bound_at_prev"),
        row=_row_extensions,
    ),
    "sample": _Subcommand(
        name="sample",
        grid_axes=("phi",), required_axes=("phi",),
        param_names=("n", "model"),
        defaults={"n": 1_000_000, "model": "quantum"},
        output_columns=lambda spec: ("n_plus", "n_minus", "n_double", "n_null"),
        row=_row_sample,
    ),
}


def validate_spec(spec: ScanSpec) -> None:
    if spec.subcommand not in _SUBCOMMANDS:
        raise ConfigError(
            f"unknown subcommand {spec.subcommand!r}; "
            f"expected one of {sorted(_SUBCOMMANDS)}"
        )
    sub = _SUBCOMMANDS[spec.subcommand]
    if spec.format not in ("csv", "json"):
        raise ConfigError(f"unknown format {spec.format!r}; expected 'csv' or 'json'")
    if not spec.grids:
        raise ConfigError("at least one grid is required")
    for name, values in spec.grids.items():
        if name not in sub.grid_axes:
            raise ConfigError(
                f"subcommand {sub.name!r} does not scan {name!r}; "
                f"allowed grids: {list(sub.grid_axes)}"
            )
        if not values:
            raise ConfigError(f"grid {name!r} is empty; grids must be nonempty")
    for name in sub.required_axes:
        if name not in spec.grids:
            raise ConfigError(f"subcommand {sub.name!r} requires a {name!r} grid")
    for name in spec.params:
        if name not in sub.param_names:
            raise ConfigError(
                f"subcommand {sub.name!r} does not take parameter {name!r}; "
                f"allowed: {list(sub.param_names)}"
            )
    if spec.subcommand == "franson":
        mode = spec.params.get("mode", "ideal")
        if mode not in ("ideal", "physical"):
            raise ConfigError(f"franson mode must be 'ideal' or 'physical', got {mode!r}")
        needed = ("phi",) if mode == "ideal" else ("tau_b",)
        for name in needed:
            if name not in spec.grids:
                raise ConfigError(f"franson mode {mode!r} requires a {name!r} grid")
        if mode == "physical":
            for p in ("pump_center", "pump_bandwidth", "offset_bandwidth", "tau_a"):
                if p not in spec.params:
                    raise ConfigError(f"franson physical mode requires parameter {p!r}")
    if spec.subcommand == "chained":
        model = spec.params.get("model", "quantum")
        if model not in _CHAINED_MODELS:
            raise ConfigError(
                f"unknown chained model {model!r}; expected one of {sorted(_CHAINED_MODELS)}"
            )
    if spec.subcommand == "sample":
        if spec.seed is None:
            raise ConfigError("subcommand 'sample' requires a seed")
        model = spec.params.get("model", "quantum")
        if model not in _SAMPLE_MODELS:
            raise ConfigError(
                f"unknown sample model {model!r}; expected one of {sorted(_SAMPLE_MODELS)}"
            )
    if isinstance(spec.tolerance, bool) or not isinstance(spec.tolerance, (int, float)):
        raise ConfigError(f"tolerance must be a real number, got {spec.tolerance!r}")
    if not spec.tolerance > 0.0:
        raise ConfigError(f"tolerance must be positive, got {spec.tolerance!r}")
    if not _is_int(spec.workers) or spec.workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {spec.workers!r}")
    if spec.seed is not None and not (_is_int(spec.seed) and 0 <= spec.seed < 2 ** 64):
        raise ConfigError(f"seed must be a non-negative 64-bit integer, got {spec.seed!r}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


# Cell writers by exact type; every other type (bool, numpy scalars,
# strings) goes through _format_cell, the one place that knows the quoting.
_CELL_FORMATS = {float: float.__repr__, int: int.__repr__}

# One row of the JSON artifact at its depth in the indent=2 document.  With
# indent=None the encoder runs in C; the item separator supplies the line
# breaks and indentation that indent=2 would.
_ROW_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))


def _json_row(row: dict) -> str:
    return "{\n      " + _ROW_ENCODER.encode(row)[1:-1] + "\n    }"


def run_scan(spec: ScanSpec) -> int:
    """Execute the scan and write its artifact; returns the exit status.

    Rows run in grid order on the calling thread and are formatted as they
    complete; ``spec.workers`` does not change how they run.
    """
    validate_spec(spec)
    sub = _SUBCOMMANDS[spec.subcommand]
    params = dict(sub.defaults)
    params.update(spec.params)
    spec = ScanSpec(**{**spec.to_dict(), "params": params,
                       "grids": spec.grids})

    input_names = tuple(spec.grids)
    output_names = tuple(sub.output_columns(spec))
    columns = input_names + output_names + ("error",)
    blank = dict.fromkeys(output_names, "")
    csv = spec.format == "csv"
    cell = _CELL_FORMATS.get
    parts = [",".join(columns) + "\n"] if csv else []
    failed = False
    for index, values in enumerate(itertools.product(*spec.grids.values())):
        point = dict(zip(input_names, values))
        try:
            outputs, error = sub.row(spec, index, point), ""
        except (ValueError, KeyError, IntegrationError,
                extensions.FalsificationCapError) as e:
            outputs, error = blank, f"{type(e).__name__}: {e}"
            failed = True
        row = {**point, **outputs, "error": error}
        if csv:
            parts.append(",".join([cell(type(v), _format_cell)(v)
                                   for v in map(row.__getitem__, columns)]) + "\n")
        else:
            parts.append(_json_row(row))

    if csv:
        text = "".join(parts)
    else:
        # The worker count stays out of the artifact, which must not depend
        # on it.  Spliced so that text == json.dumps({"spec": doc_spec,
        # "rows": rows}, indent=2, sort_keys=True) + "\n"; rows are never
        # empty because every grid is nonempty.
        doc_spec = spec.to_dict()
        del doc_spec["workers"]
        spec_text = json.dumps(doc_spec, indent=2, sort_keys=True)
        text = ('{\n  "rows": [\n    ' + ",\n    ".join(parts) + "\n  ],\n"
                '  "spec": ' + spec_text.replace("\n", "\n  ") + "\n}\n")

    if spec.output == "-":
        sys.stdout.write(text)
    else:
        with open(spec.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return ROW_ERROR if failed else 0


# ---------------------------------------------------------------------------
# Argument parsing

def _parse_grid_option(text: str) -> tuple[str, tuple[float, ...]]:
    if "=" not in text:
        raise ConfigError(f"grid option must look like name=v1,v2,... got {text!r}")
    name, _, values = text.partition("=")
    name = name.strip()
    values = values.strip()
    if values.startswith("linspace:"):
        parts = values.split(":")[1:]
        if len(parts) != 3:
            raise ConfigError(f"grid {name!r}: expected linspace:start:stop:num")
        return name, _resolve_grid(name, {"linspace": parts})
    try:
        return name, _resolve_grid(name, values.split(","))
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(f"grid {name!r}: could not parse values {values!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Parameter scans over interference, unitarity, two-photon "
                    "correlation, chained-inequality, and falsification models.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON scan document; flags override it")
    common.add_argument("--grid", action="append", default=[], metavar="NAME=V1,V2,...",
                        help="value grid (repeatable); also NAME=linspace:start:stop:num")
    common.add_argument("--output", help="output path, '-' for stdout (default)")
    common.add_argument("--format", choices=["csv", "json"], help="output format")
    common.add_argument("--tolerance", type=float, help="numeric tolerance")
    common.add_argument("--workers", type=int,
                        help="accepted for compatibility (>= 1); rows always run "
                             "in grid order on one thread")
    common.add_argument("--seed", type=int, help="RNG seed (required for sample)")

    sub = parser.add_subparsers(dest="subcommand")

    sub.add_parser("interf", parents=[common],
                   help="fringe probabilities over phase (and bandwidth-delay) grids")
    sub.add_parser("unitarity", parents=[common],
                   help="cross-term residual and port probabilities of "
                        "reflection-phase splitter models")

    franson = sub.add_parser("franson", parents=[common],
                             help="two-photon joint distributions, ideal or spectral")
    franson.add_argument("--mode", choices=["ideal", "physical"])
    franson.add_argument("--visibility", type=float)
    franson.add_argument("--pump-center", type=float, dest="pump_center")
    franson.add_argument("--pump-bandwidth", type=float, dest="pump_bandwidth")
    franson.add_argument("--offset-center", type=float, dest="offset_center")
    franson.add_argument("--offset-bandwidth", type=float, dest="offset_bandwidth")
    franson.add_argument("--tau-a", type=float, dest="tau_a")
    franson.add_argument("--coincidence-window", dest="coincidence_window",
                         help="seconds, 'none' to disable post-selection, "
                              "'auto' (default) for half the smaller delay")
    franson.add_argument("--shape", choices=["rectangular", "gaussian"])

    chained = sub.add_parser("chained", parents=[common],
                             help="chained inequality values over a settings-count grid")
    chained.add_argument("--theta", type=float)
    chained.add_argument("--model", choices=sorted(_CHAINED_MODELS))
    chained.add_argument("--visibility", type=float)

    ext = sub.add_parser("extensions", parents=[common],
                         help="falsifying chain length for statistical distances")
    ext.add_argument("--theta", type=float)
    ext.add_argument("--n-cap", type=int, dest="n_cap")

    sample = sub.add_parser("sample", parents=[common],
                            help="seeded multinomial detection counts over a phase grid")
    sample.add_argument("--n", type=int)
    sample.add_argument("--model", choices=sorted(_SAMPLE_MODELS))

    return parser


_PARAM_FLAGS = {
    "franson": ("mode", "visibility", "pump_center", "pump_bandwidth",
                "offset_center", "offset_bandwidth", "tau_a",
                "coincidence_window", "shape"),
    "chained": ("theta", "model", "visibility"),
    "extensions": ("theta", "n_cap"),
    "sample": ("n", "model"),
}


def _spec_from_args(args: argparse.Namespace) -> ScanSpec:
    if args.config:
        spec = load_config(args.config)
        if spec.subcommand != args.subcommand:
            raise ConfigError(
                f"config is for subcommand {spec.subcommand!r}, "
                f"but {args.subcommand!r} was invoked"
            )
    else:
        spec = ScanSpec(subcommand=args.subcommand, grids={})
    for option in args.grid:
        name, values = _parse_grid_option(option)
        spec.grids[name] = values
    for attr in ("output", "format", "tolerance", "workers", "seed"):
        value = getattr(args, attr, None)
        if value is not None:
            setattr(spec, attr, value)
    for name in _PARAM_FLAGS.get(args.subcommand, ()):
        value = getattr(args, name, None)
        if value is not None:
            spec.params[name] = value
    window = spec.params.get("coincidence_window")
    if isinstance(window, str) and window not in ("auto",):
        try:
            spec.params["coincidence_window"] = (
                None if window.lower() == "none" else float(window)
            )
        except ValueError:
            raise ConfigError(
                f"coincidence_window must be seconds, 'none' or 'auto', got {window!r}"
            ) from None
    return spec


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else USAGE_ERROR
    if not args.subcommand:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        spec = _spec_from_args(args)
        return run_scan(spec)
    except ConfigError as e:
        print(f"bellsim: config error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as e:  # runtime failure outside row evaluation
        print(f"bellsim: error: {type(e).__name__}: {e}", file=sys.stderr)
        return ROW_ERROR


if __name__ == "__main__":
    sys.exit(main())
