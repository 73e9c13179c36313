"""Parameter-scan command line front end.

Subcommands: ``interf``, ``unitarity``, ``franson``, ``chained``,
``extensions``, ``sample``.  Each scan takes one or more named value grids,
evaluates one row per grid point (cartesian product, declaration order),
and writes CSV or JSON.  Scans are configured by flags, by a JSON config
document, or both (flags win).

Every parameter is declared once, as a ``_Param`` entry: scan parameters
and grid axes in ``_SUBCOMMANDS``, common options on their ``ScanSpec``
field.  A parameter sits in the table of each subcommand whose rows read
it: ``tolerance`` belongs to ``interf`` (the wave-packet quadrature) and
``unitarity`` (the unitarity check), and ``seed`` is required by
``sample``.  The argparse parser, the copy of flags into the spec, the
defaults and :func:`validate_spec` derive from the entries, so flags,
config documents and ``ScanSpec`` objects are checked alike: a wrongly
typed config value, or a parameter or grid given where it does not apply,
exits 2.  The JSON artifact's ``spec.params`` records every parameter
value the rows used, defaults included.

Rows run one after another in grid order on the calling thread;
``--workers`` is still accepted and validated (>= 1) but changes nothing,
and the JSON artifact leaves it out of its ``spec``.  Outputs are
byte-identical for identical spec and seed: rows are pure functions of the
grid point (plus a per-row stream index for sampling).

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
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from . import bell, entangle, extensions, interferometer, measurement
from .spectra import IntegrationError, Spectrum

USAGE_ERROR = 2
ROW_ERROR = 1

_TWO_PI = 2.0 * math.pi
_REQUIRED = object()  # default of a parameter that must be given where it applies


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _where(test: Callable[[object], bool]) -> Callable[[object], object]:
    def accept(value):
        if not test(value):
            raise ValueError(value)
        return value
    return accept


def _window(value):
    """Seconds, ``None`` or 'none' (no post-selection), or 'auto'."""
    if isinstance(value, str) and value != "auto":
        value = None if value.lower() == "none" else float(value)
    if value is None or value == "auto" or _is_real(value):
        return value
    raise TypeError(value)


@dataclass(frozen=True)
class _Kind:
    noun: str                           # "<name> must be <noun>"
    parse: Callable[[str], object]      # argparse type of the flag
    accept: Callable[[object], object]  # checked value; raises TypeError/ValueError


_REAL = _Kind("a real number", float, _where(_is_real))
_INT = _Kind("an integer", int, _where(_is_int))
_TEXT = _Kind("a string", str, _where(lambda v: isinstance(v, str)))
_WINDOW = _Kind("seconds, 'none' or 'auto'", str, _window)
_TOLERANCE = _Kind("a positive real number", float, _where(lambda v: _is_real(v) and v > 0.0))
_WORKERS = _Kind("an integer >= 1", int, _where(lambda v: _is_int(v) and v >= 1))
_SEED = _Kind("a non-negative 64-bit integer", int,
              _where(lambda v: _is_int(v) and 0 <= v < 2 ** 64))


@dataclass(frozen=True)
class _Param:
    """One parameter or grid axis.

    Without a default it is required wherever it applies; ``when`` =
    (parameter, value) limits it to one mode or model, and giving it
    anywhere else is an error.
    """

    name: str
    kind: _Kind = _REAL
    help: str | None = None
    default: object = _REQUIRED
    choices: tuple = ()
    when: tuple = ()

    def check(self, value):
        try:
            value = self.kind.accept(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{self.name!r} must be {self.kind.noun}, got {value!r}") from None
        if self.choices and value not in self.choices:
            raise ConfigError(
                f"{self.name!r} must be one of {list(self.choices)}, got {value!r}")
        return value

    def applies(self, params: dict) -> bool:
        return not self.when or params.get(self.when[0]) == self.when[1]

    @property
    def condition(self) -> str:
        return f" when {self.when[0]} is {self.when[1]!r}" if self.when else ""

    def missing(self, subcommand: str, what: str) -> ConfigError:
        return ConfigError(f"subcommand {subcommand!r} requires {what}{self.condition}")

    def inapplicable(self, subcommand: str, what: str) -> ConfigError:
        return ConfigError(f"subcommand {subcommand!r} takes {what} only{self.condition}")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--" + self.name.replace("_", "-"), type=self.kind.parse,
                            choices=self.choices or None, help=self.help)


def _option(default, kind: _Kind, help: str, choices: tuple = ()):
    """A ScanSpec field that is also an option of every subcommand."""
    return field(default=default, metadata={"kind": kind, "help": help, "choices": choices})


@dataclass
class ScanSpec:
    subcommand: str
    grids: dict[str, tuple[float, ...]]
    params: dict = field(default_factory=dict)
    output: str = _option("-", _TEXT, "output path, '-' for stdout (default)")
    format: str = _option("csv", _TEXT, "output format", ("csv", "json"))
    workers: int = _option(1, _WORKERS, "accepted for compatibility (>= 1); rows always "
                                        "run in grid order on one thread")

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["grids"] = {name: list(values) for name, values in self.grids.items()}
        data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ScanSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be an object, got {type(data).__name__}")
        allowed = {f.name for f in fields(cls)}
        for key in data:
            if key not in allowed:
                raise ConfigError(f"unknown config key: {key!r}")
        if "subcommand" not in data:
            raise ConfigError("config is missing 'subcommand'")
        grids, params = data.get("grids") or {}, data.get("params") or {}
        if not isinstance(grids, dict) or not isinstance(params, dict):
            raise ConfigError("config 'grids' and 'params' must be objects")
        grids = {name: _resolve_grid(name, value) for name, value in grids.items()}
        return cls(**{**data, "grids": grids, "params": dict(params)})


# The common options, in flag order.
_OPTIONS = tuple(_Param(f.name, default=f.default, **f.metadata)
                 for f in fields(ScanSpec) if f.metadata)


def _resolve_grid(name: str, value) -> tuple[float, ...]:
    """A grid is a nonempty list of real numbers or {"linspace": [start, stop,
    num]} with real start and stop and an integer num >= 1."""
    if isinstance(value, dict):
        extra = set(value) - {"linspace"}
        if extra:
            raise ConfigError(f"grid {name!r}: unknown key {sorted(extra)[0]!r}")
        if "linspace" not in value:
            raise ConfigError(f"grid {name!r}: expected a 'linspace' entry")
        linspace = value["linspace"]
        if not (isinstance(linspace, (list, tuple)) and len(linspace) == 3
                and _is_real(linspace[0]) and _is_real(linspace[1])):
            raise ConfigError(f"grid {name!r}: linspace needs [start, stop, num]")
        start, stop, num = linspace
        if not (_is_int(num) and num >= 1):
            raise ConfigError(f"grid {name!r}: linspace num must be an integer >= 1")
    elif not (isinstance(value, (list, tuple)) and all(_is_real(x) for x in value)):
        raise ConfigError(f"grid {name!r}: expected a list of real numbers")
    elif not value:
        raise ConfigError(f"grid {name!r} is empty; grids must be nonempty")
    try:
        if isinstance(value, dict):
            value = np.linspace(float(start), float(stop), num)
        return tuple(float(x) for x in value)
    except OverflowError:
        raise ConfigError(f"grid {name!r}: a value is out of float range") from None


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
    help: str
    grids: tuple[_Param, ...]        # the axes it may scan
    params: tuple[_Param, ...]       # a `when` gate precedes the entries it gates
    columns: tuple[str, ...]         # output columns after the grid values
    # row(spec, index, point) -> the output values, in column order
    row: Callable[[ScanSpec, int, dict], tuple]


def _wavepacket_probabilities(phi: float, dphi: float, tol: float) -> tuple[float, float]:
    """Fringe probabilities at center phase phi and bandwidth-delay product dphi.

    Realized with a unit delay and a rectangular spectrum whose center is
    phi shifted by whole turns to keep the support positive.
    """
    if not 0.0 <= dphi < math.inf:
        raise ValueError(f"dphi must be finite and >= 0, got {dphi!r}")
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
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


def _row_interf(spec: ScanSpec, index: int, point: dict) -> tuple:
    return _wavepacket_probabilities(point["phi"], point["dphi"], spec.params["tolerance"])


def _row_unitarity(spec: ScanSpec, index: int, point: dict) -> tuple:
    m = measurement.mach_zehnder_effective(point["reflection_phase"])
    validation = measurement.is_valid_quantum_measurement(m, spec.params["tolerance"])
    outcome = measurement.outcome_distribution(
        m, measurement.PathAmplitudes.balanced(), point["phi"]
    )
    return (validation.residual, validation.valid, outcome.p_plus, outcome.p_minus,
            outcome.total)


def _franson_physical_config(spec: ScanSpec, tau_b: float) -> entangle.FransonConfig:
    p = spec.params
    window = p["coincidence_window"]
    if window == "auto":
        window = 0.5 * min(p["tau_a"], tau_b)
    return entangle.FransonConfig(
        pump=Spectrum(shape=p["shape"], center=p["pump_center"],
                      bandwidth=p["pump_bandwidth"]),
        photon_offset=Spectrum(shape=p["shape"], center=p["offset_center"],
                               bandwidth=p["offset_bandwidth"], signed=True),
        tau_a=p["tau_a"],
        tau_b=tau_b,
        coincidence_window=window,
    )


def _row_franson(spec: ScanSpec, index: int, point: dict) -> tuple:
    if spec.params["mode"] == "ideal":
        phase, visibility = point["phi"], spec.params["visibility"]
        dist = entangle.ideal_joint_distribution(phase, visibility)
    else:
        result = entangle.physical_joint_distribution(
            _franson_physical_config(spec, point["tau_b"])
        )
        dist, phase, visibility = result.distribution, result.mean_phase, result.visibility
    return (phase, visibility, dist.p_equal, dist.p_differ, dist.p_pp, dist.p_pm,
            dist.p_mp, dist.p_mm, entangle.marginal(dist, "A"), entangle.marginal(dist, "B"))


_CHAINED_MODELS = {
    "quantum": lambda spec: bell.quantum_model(spec.params["visibility"]),
    "pr_box": lambda spec: bell.pr_box_model(),
    "suppressed": lambda spec: bell.suppressed_nonlocality_model(),
}


def _row_chained(spec: ScanSpec, index: int, point: dict) -> tuple:
    n = point["n"]
    if n != int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    n = int(n)
    theta = spec.params["theta"]
    model_name = spec.params["model"]
    model = _CHAINED_MODELS[model_name](spec)
    result = bell.chained_I(model, bell.ChainedConfig(n=n, theta=theta))
    closed = bell.quantum_I_closed_form(n, theta) if model_name == "quantum" else ""
    return theta, model_name, result.i_value, closed, result.classification.value


def _row_extensions(spec: ScanSpec, index: int, point: dict) -> tuple:
    witness = extensions.find_falsifying_N(
        point["d"], theta=spec.params["theta"], n_cap=spec.params["n_cap"]
    )
    previous = "" if witness.previous_bound is None else witness.previous_bound
    return witness.n, witness.bound, witness.i_value, previous


_SAMPLE_MODELS = {
    "quantum": interferometer.quantum_detection_distribution,
    "local": interferometer.local_detection_distribution,
}


def _row_sample(spec: ScanSpec, index: int, point: dict) -> tuple:
    dist = _SAMPLE_MODELS[spec.params["model"]](point["phi"])
    counts = interferometer.sample_events(dist, spec.params["n"], spec.params["seed"],
                                          stream=index)
    return counts.n_plus, counts.n_minus, counts.n_double, counts.n_null


_IDEAL = ("mode", "ideal")
_PHYSICAL = ("mode", "physical")

_SUBCOMMANDS: dict[str, _Subcommand] = {
    "interf": _Subcommand(
        help="fringe probabilities over phase (and bandwidth-delay) grids",
        grids=(_Param("phi"), _Param("dphi", default=0.0)),
        params=(_Param("tolerance", _TOLERANCE, "tolerance of the wave-packet quadrature "
                       "(rows with dphi > 0)", 1e-10),),
        columns=("p_plus", "p_minus"),
        row=_row_interf,
    ),
    "unitarity": _Subcommand(
        help="cross-term residual and port probabilities of "
             "reflection-phase splitter models",
        grids=(_Param("reflection_phase"), _Param("phi")),
        params=(_Param("tolerance", _TOLERANCE, "tolerance of the unitarity check", 1e-10),),
        columns=("residual", "valid", "p_plus", "p_minus", "total"),
        row=_row_unitarity,
    ),
    "franson": _Subcommand(
        help="two-photon joint distributions, ideal or spectral",
        grids=(_Param("phi", when=_IDEAL), _Param("tau_b", when=_PHYSICAL)),
        params=(
            _Param("mode", _TEXT, "ideal fringe law or the four-path spectral model",
                   "ideal", ("ideal", "physical")),
            _Param("visibility", _REAL, "visibility of the ideal fringe", 1.0, when=_IDEAL),
            _Param("pump_center", _REAL, "pump center frequency, rad/s", when=_PHYSICAL),
            _Param("pump_bandwidth", _REAL, "pump bandwidth, rad/s", when=_PHYSICAL),
            _Param("offset_center", _REAL, "center of the photons' frequency offset, rad/s",
                   0.0, when=_PHYSICAL),
            _Param("offset_bandwidth", _REAL, "bandwidth of the frequency offset, rad/s",
                   when=_PHYSICAL),
            _Param("tau_a", _REAL, "side A's long-arm delay, s", when=_PHYSICAL),
            _Param("coincidence_window", _WINDOW,
                   "seconds, 'none' to disable post-selection, "
                   "'auto' (default) for half the smaller delay", "auto", when=_PHYSICAL),
            _Param("shape", _TEXT, "shape of both spectra", "rectangular",
                   ("rectangular", "gaussian"), when=_PHYSICAL),
        ),
        columns=("phase", "visibility", "p_equal", "p_differ", "p_pp", "p_pm",
                 "p_mp", "p_mm", "marginal_a", "marginal_b"),
        row=_row_franson,
    ),
    "chained": _Subcommand(
        help="chained inequality values over a settings-count grid",
        grids=(_Param("n"),),
        params=(
            _Param("theta", _REAL, "total phase spread over the chain, rad", math.pi),
            _Param("model", _TEXT, "correlation model", "quantum",
                   tuple(sorted(_CHAINED_MODELS))),
            _Param("visibility", _REAL, "visibility of the quantum model", 1.0,
                   when=("model", "quantum")),
        ),
        columns=("theta", "model", "i_value", "i_closed_form", "classification"),
        row=_row_chained,
    ),
    "extensions": _Subcommand(
        help="falsifying chain length for statistical distances",
        grids=(_Param("d"),),
        params=(
            _Param("theta", _REAL, "total phase spread over the chain, rad", math.pi),
            _Param("n_cap", _INT, "longest chain searched", 1_000_000),
        ),
        columns=("witness_n", "bound_at_witness", "i_at_witness", "bound_at_prev"),
        row=_row_extensions,
    ),
    "sample": _Subcommand(
        help="seeded multinomial detection counts over a phase grid",
        grids=(_Param("phi"),),
        params=(
            _Param("n", _INT, "runs per phase", 1_000_000),
            _Param("model", _TEXT, "detection model", "quantum", tuple(sorted(_SAMPLE_MODELS))),
            _Param("seed", _SEED, "RNG seed (required)"),
        ),
        columns=("n_plus", "n_minus", "n_double", "n_null"),
        row=_row_sample,
    ),
}


def validate_spec(spec: ScanSpec) -> dict:
    """Check ``spec`` against the tables; return the parameters its rows use:
    the given values plus the default of every parameter that applies."""
    sub = _SUBCOMMANDS.get(spec.subcommand)
    if sub is None:
        raise ConfigError(
            f"unknown subcommand {spec.subcommand!r}; "
            f"expected one of {sorted(_SUBCOMMANDS)}"
        )
    for option in _OPTIONS:
        option.check(getattr(spec, option.name))
    if not spec.grids:
        raise ConfigError("at least one grid is required")
    axes = [axis.name for axis in sub.grids]
    for name, values in spec.grids.items():
        if name not in axes:
            raise ConfigError(
                f"subcommand {spec.subcommand!r} does not scan {name!r}; "
                f"allowed grids: {axes}"
            )
        if not values:
            raise ConfigError(f"grid {name!r} is empty; grids must be nonempty")
    names = [param.name for param in sub.params]
    for name in spec.params:
        if name not in names:
            raise ConfigError(
                f"subcommand {spec.subcommand!r} does not take parameter {name!r}; "
                f"allowed: {names}"
            )
    params = {}
    for param in sub.params:
        applies = param.applies(params)
        if param.name in spec.params:
            if not applies:
                raise param.inapplicable(spec.subcommand, f"parameter {param.name!r}")
            params[param.name] = param.check(spec.params[param.name])
        elif applies:
            if param.default is _REQUIRED:
                raise param.missing(spec.subcommand, f"parameter {param.name!r}")
            params[param.name] = param.default
    for axis in sub.grids:
        scanned = axis.name in spec.grids
        if not axis.applies(params):
            if scanned:
                raise axis.inapplicable(spec.subcommand, f"a {axis.name!r} grid")
        elif not scanned and axis.default is _REQUIRED:
            raise axis.missing(spec.subcommand, f"a {axis.name!r} grid")
    return params


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
    spec = replace(spec, params=validate_spec(spec))
    sub = _SUBCOMMANDS[spec.subcommand]

    input_names = tuple(spec.grids)
    # An axis with a default that is not scanned is fixed at its default.
    fixed = {axis.name: axis.default for axis in sub.grids
             if axis.name not in spec.grids and axis.default is not _REQUIRED}
    columns = input_names + sub.columns + ("error",)
    blank = ("",) * len(sub.columns)
    csv = spec.format == "csv"
    cell = _CELL_FORMATS.get
    parts = [",".join(columns) + "\n"] if csv else []
    failed = False
    for index, values in enumerate(itertools.product(*spec.grids.values())):
        try:
            point = dict(zip(input_names, values), **fixed)
            outputs, error = sub.row(spec, index, point), ""
        except (ValueError, KeyError, IntegrationError,
                extensions.FalsificationCapError) as e:
            outputs, error = blank, f"{type(e).__name__}: {e}"
            failed = True
        cells = (*values, *outputs, error)
        if csv:
            parts.append(",".join([cell(type(v), _format_cell)(v) for v in cells]) + "\n")
        else:
            parts.append(_json_row(dict(zip(columns, cells))))

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
        try:
            linspace = [float(parts[0]), float(parts[1]), int(parts[2])]
        except ValueError:
            raise ConfigError(f"grid {name!r}: linspace needs [start, stop, num]") from None
        return name, _resolve_grid(name, {"linspace": linspace})
    try:
        grid = [float(x) for x in values.split(",")]
    except ValueError:
        raise ConfigError(f"grid {name!r}: expected a list of numbers") from None
    return name, _resolve_grid(name, grid)


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
    for option in _OPTIONS:
        option.add_to(common)
    subparsers = parser.add_subparsers(dest="subcommand")
    for name, sub in _SUBCOMMANDS.items():
        sub_parser = subparsers.add_parser(name, parents=[common], help=sub.help)
        for param in sub.params:
            param.add_to(sub_parser)
    return parser


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
    grids = {}
    for option in args.grid:
        name, values = _parse_grid_option(option)
        if name in grids:
            raise ConfigError(f"grid {name!r} is given twice")
        grids[name] = values
    spec.grids.update(grids)
    for option in _OPTIONS:
        value = getattr(args, option.name)
        if value is not None:
            setattr(spec, option.name, value)
    for param in _SUBCOMMANDS[args.subcommand].params:
        value = getattr(args, param.name)
        if value is not None:
            spec.params[param.name] = value
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
