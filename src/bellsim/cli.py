"""Parameter-scan command line front end.

Subcommands: ``interf``, ``unitarity``, ``franson``, ``chained``,
``extensions``, ``sample``.  Each scan takes one or more named value grids,
evaluates one row per grid point (cartesian product, declaration order),
and writes CSV or JSON.  Scans are configured by flags, by a JSON config
document, or both (flags win).

Every parameter is declared once, as a ``_Param`` entry: scan parameters
and grid axes in ``_SUBCOMMANDS``, common options on their ``ScanSpec``
field.  A parameter sits in the table of each subcommand whose rows read
it: ``tolerance`` belongs to ``interf`` (the wave-packet contrast) and
``unitarity`` (the unitarity check), and ``seed`` is required by
``sample``.  The argparse parser, the copy of flags into the spec, the
defaults and :func:`validate_spec` derive from the entries, so flags,
config documents and ``ScanSpec`` objects are checked alike: a wrongly
typed config value, or a parameter or grid given where it does not apply,
exits 2.  The JSON artifact's ``spec.params`` records every parameter
value the rows used, defaults included.  The parser is built once per
process and shared by every :func:`main` call; a parse does not change it.

Rows run in grid order, a block of up to ``_BLOCK_ROWS`` grid points at a
time.  Each grid axis's entry has a domain
(finite, finite and >= 0, or an integer), checked over the block as one
array: a row with a value outside it is an error row, "ValueError: <axis>
must be <noun>, got <value>", naming the first such axis in table order.
The subcommand's row function runs once on the whole block, as one float
array per axis with the row numbers, and returns output columns plus one
error text per row.  It never sees a value outside a domain: it is
replaced by 0.0 and its row's result dropped.  ``interf``, ``unitarity``
and both Franson modes are array laws over the block.  A Franson law runs
once per block: if it raises, at a fixed parameter outside its domain,
every row takes that error, and a row whose physical law overflows is a
NaN column that takes the probability check's text.  ``sample`` takes its block's fringe
ports from one array call and draws each row's counts from them;
``chained`` and ``extensions`` call the library once per row.

Each block is formatted by column and written before the next one runs, so
no artifact is held in memory whole.  A float ``repr`` is most of a cheap
row's cost, so cells that repeat are formatted once, by two rules.  Each
float column keeps, per process, a table of the cells of the values
formatted so far, keyed by their bits (-0.0 apart from 0.0, NaNs of any
payload apart): a block formats only the distinct values its table lacks.
A grid axis whose values repeat over the rows starts with a table of its
whole grid, formatted once per scan, which it never leaves; any other
column starts empty and leaves its table for the rest of the scan at a
block that brings more than two thirds new values or would take it past
``_TABLE_CELLS`` cells.  And an output float column with the bits of a
column already formatted in the block takes that column's cells.  At seed
1, the benchmark's ``deep`` pass hands 9 865 values to the float formatter
and its ``wide_grid`` pass 255 128.  A row is
joined from its cells and the fixed text around them (a JSON row's keys and
indentation, a CSV row's commas) by one ``"".join`` per row, the same code
for both formats.  A JSON artifact's ``spec.grids`` lists are written
from the same cells.  Budgets reject a scan of more than ``_MAX_ROWS`` grid
points, or a chain (``chained`` ``n``, ``extensions`` ``n_cap``) longer than
``_MAX_CHAIN``, with exit 2 before any grid is built.  The output file is
opened before any row runs; a scan that raises outside row evaluation, in
any process, exits 1 and removes the partly written file.

``--workers N`` splits a scan's blocks into up to N contiguous ranges, each
run by one process: the calling process runs the first, and ``os.fork()``ed
children run the others, each writing its text into an unnamed temporary
file that the caller copies into the artifact in range order, a chunk at a
time.  Processes, not threads: float ``repr``, most of a cheap row's cost,
holds the interpreter lock.  N is capped by the scan's blocks and by the
CPUs this process may run on; at one, or where the platform has no
``os.fork``, every block runs in the calling process, through the same block
loop.  From Python 3.12 on, ``fork()`` in a process with other threads
(numpy's BLAS threads may count) issues a DeprecationWarning.  Outputs are
byte-identical for identical spec and seed, whatever N: rows are pure
functions of the grid point (plus a per-row stream index for sampling), and
the JSON artifact leaves N out of its ``spec``.

Exit codes: 0 success, 1 any row failed numerically (the row's ``error``
column carries the diagnostic and the scan continues) or the scan failed
outside row evaluation, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import repeat
from typing import Callable

import numpy as np

from . import bell, entangle, extensions, interferometer, measurement, probability
from .spectra import IntegrationError, Spectrum

USAGE_ERROR = 2
ROW_ERROR = 1

_REQUIRED = object()  # default of a parameter that must be given where it applies

# Budgets of one scan, checked before any grid is built or any row runs: its
# grid points, and the settings of a chained row or the longest chain an
# extensions row may search.
_MAX_ROWS = 10 ** 7
_MAX_CHAIN = 10 ** 7


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    """A Python or numpy integer; neither bool type is one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


# The types of a real value in a ScanSpec built directly: numpy's integer
# and floating scalars count as Python's do.  A bool is a real grid value but
# no real parameter.
_REALS = (int, float, np.integer, np.floating)


def _is_real(value) -> bool:
    return isinstance(value, _REALS) and not isinstance(value, bool)


def _plain(value):
    """A numpy scalar as the Python value it holds; any other value as is."""
    return value.item() if isinstance(value, np.generic) else value


def _where(test: Callable[[object], bool]) -> Callable[[object], object]:
    def accept(value):
        if not test(value):
            raise ValueError(value)
        return _plain(value)
    return accept


def _window(value):
    """Seconds, ``None`` or 'none' (no post-selection), or 'auto'."""
    if isinstance(value, str) and value != "auto":
        value = None if value.lower() == "none" else float(value)
    if value is None or value == "auto" or _is_real(value):
        return _plain(value)
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
class _Domain:
    """The values a grid axis's rows take; a row with any other value is an
    error row, "ValueError: <axis> must be <noun>, got <value>"."""

    noun: str
    holds: Callable[[np.ndarray], np.ndarray]  # mask of the values inside


_FINITE = _Domain("finite", np.isfinite)
_DELAY = _Domain("finite and >= 0", lambda v: (v >= 0.0) & (v < math.inf))
_WHOLE = _Domain("an integer", lambda v: np.isfinite(v) & (np.trunc(v) == v))


@dataclass(frozen=True)
class _Param:
    """One parameter or grid axis.

    Without a default it is required wherever it applies; ``when`` =
    (parameter, value) limits it to one mode or model, and giving it
    anywhere else is an error.  A value above ``most`` is rejected.  A grid
    axis's ``domain`` makes each row with a value outside it an error row.
    """

    name: str
    kind: _Kind = _REAL
    help: str | None = None
    default: object = _REQUIRED
    choices: tuple = ()
    when: tuple = ()
    most: float | None = None
    domain: _Domain | None = None

    def check(self, value):
        try:
            value = self.kind.accept(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{self.name!r} must be {self.kind.noun}, got {value!r}") from None
        if self.choices and value not in self.choices:
            raise ConfigError(
                f"{self.name!r} must be one of {list(self.choices)}, got {value!r}")
        self.check_most(repr(self.name), value)
        return value

    def check_most(self, what: str, value) -> None:
        if self.most is not None and value > self.most:
            raise ConfigError(f"{what} must be at most {self.most}, got {value!r}")

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
    workers: int = _option(1, _WORKERS, "processes that run the scan's blocks (>= 1), at "
                                        "most one per block and per usable CPU; the "
                                        "artifact is the same for every count")

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
    num]} with finite start and stop, a finite span stop - start and an
    integer num >= 1."""
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
        if num > _MAX_ROWS:
            raise ConfigError(f"grid {name!r}: linspace num must be at most {_MAX_ROWS}, "
                              f"got {num}")
    elif not (isinstance(value, (list, tuple)) and all(_is_real(x) for x in value)):
        raise ConfigError(f"grid {name!r}: expected a list of real numbers")
    elif not value:
        raise ConfigError(f"grid {name!r} is empty; grids must be nonempty")
    try:
        if isinstance(value, dict):
            start, stop = float(start), float(stop)
            # a NaN or infinite start or stop makes the span NaN or infinite too
            if not math.isfinite(stop - start):
                raise ConfigError(f"grid {name!r}: linspace start, stop and stop - start "
                                  f"must be finite, got {start!r} and {stop!r}")
            return tuple(np.linspace(start, stop, num).tolist())
        return tuple(map(float, value))
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
    # row(spec, rows, points) evaluates grid points of a block: `rows` holds
    # their row numbers and `points` one float array per axis, each value
    # inside its axis's domain.  It returns the output columns, each with
    # one value per point, and one error text per point; the output cells of
    # a row with an error are left blank.
    row: Callable[[ScanSpec, np.ndarray, dict], tuple[list, list[str]]]


# What a failed point row raises: its error column says so and the scan goes
# on.  Any other exception is a fault of the program and ends the scan.
_ROW_ERRORS = (ValueError, extensions.FalsificationCapError)


def _error_text(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def _pointwise(point_row):
    """The block row function that calls ``point_row(spec, row, point)`` at
    every grid point, with its row number and its value per axis; the
    returned output values go into the columns, a row error into the error
    column instead."""
    def rows_of(spec: ScanSpec, rows: np.ndarray, points: dict) -> tuple[list, list[str]]:
        # NaN stands in for the cells of failed rows, which are written blank.
        columns = [[math.nan] * rows.size for _ in _SUBCOMMANDS[spec.subcommand].columns]
        errors = [""] * rows.size
        values = {axis: array.tolist() for axis, array in points.items()}
        for i, row in enumerate(rows.tolist()):
            try:
                cells = point_row(spec, row, {axis: v[i] for axis, v in values.items()})
            except _ROW_ERRORS as e:
                errors[i] = _error_text(e)
            else:
                for column, cell in zip(columns, cells):
                    column[i] = cell
        return columns, errors
    return rows_of


def _interf_rows(spec: ScanSpec, rows: np.ndarray, points: dict) -> tuple[list, list[str]]:
    """Each distinct dphi of the block takes its contrast once and its rows
    the ports of ``interferometer.wavepacket_ports`` as one array; a
    contrast that does not converge is the error of each of its rows."""
    phi, dphi = points["phi"], points["dphi"]
    p = np.full((2, phi.size), math.nan)
    errors = [""] * phi.size
    # Float keys: -0.0 joins 0.0, whose contrast is the same 1.0.
    for value in set(dphi.tolist()):
        group = dphi == value
        try:
            contrast = interferometer.wavepacket_contrast(value, spec.params["tolerance"])
        except IntegrationError as e:
            for i in np.flatnonzero(group).tolist():
                errors[i] = _error_text(e)
            continue
        p[:, group] = interferometer.wavepacket_ports(phi[group], contrast)
    return list(p), errors


def _unitarity_rows(spec: ScanSpec, rows: np.ndarray, points: dict) -> tuple[list, list[str]]:
    """Each distinct reflection phase of the block builds and checks its
    matrix once; the block's ports are one array evaluation of the port law,
    each row measured by its phase's matrix."""
    phase = points["reflection_phase"]
    bits = phase.view(np.int64)
    distinct = _distinct(bits)
    which = np.searchsorted(distinct, bits)
    matrices = [measurement.mach_zehnder_effective(value)
                for value in distinct.view(float).tolist()]
    checks = [measurement.is_valid_quantum_measurement(m, spec.params["tolerance"])
              for m in matrices]
    residual = np.array([check.residual for check in checks])[which]
    valid = np.array([check.valid for check in checks])[which]
    p = measurement.outcome_probabilities_by_point(
        matrices, which, measurement.PathAmplitudes.balanced(), points["phi"])
    return [residual, valid, p[0], p[1], p[0] + p[1]], [""] * phase.size


def _franson_spectra(spec: ScanSpec) -> tuple[Spectrum, Spectrum]:
    p = spec.params
    return (Spectrum(shape=p["shape"], center=p["pump_center"], bandwidth=p["pump_bandwidth"]),
            Spectrum(shape=p["shape"], center=p["offset_center"],
                     bandwidth=p["offset_bandwidth"], signed=True))


def _franson_rows(spec: ScanSpec, rows: np.ndarray, points: dict) -> tuple[list, list[str]]:
    """Both modes take their law of the block from one call: the ideal fringe
    law at the phases, or the physical four-path law at the delays, with the
    window each row's ``auto`` implies.  A law that raises (a fixed parameter
    outside its domain) gives every row its error; a column that is not a
    distribution (a physical row whose law overflows to NaN) gives its row
    the text of ``check_distribution``."""
    p, size = spec.params, rows.size
    try:
        if p["mode"] == "physical":
            tau_b, window = points["tau_b"], p["coincidence_window"]
            if window == "auto":
                window = 0.5 * np.minimum(p["tau_a"], tau_b)
            elif window is not None:
                window = np.full(size, float(window))
            law = entangle.physical_joint_probabilities(*_franson_spectra(spec), p["tau_a"],
                                                        tau_b, window)
            phase, visibility, probabilities = law.mean_phase, law.visibility, law.probabilities
        else:
            phase, visibility = points["phi"], p["visibility"]
            probabilities = entangle.ideal_joint_probabilities(phase, visibility)
            # A float is written once per block; an int from a config keeps its cells.
            visibility = (np.full(size, visibility) if isinstance(visibility, float)
                          else [visibility] * size)
    except ValueError as e:
        # The cells of the error rows are written blank, whatever they hold.
        phase = visibility = np.zeros(size)
        probabilities, errors = np.zeros((4, size)), [_error_text(e)] * size
    else:
        errors = [""] * size
        for i in np.flatnonzero(~probability.valid_columns(probabilities)).tolist():
            try:
                probability.check_distribution(probabilities[:, i].tolist(),
                                               "joint probabilities")
            except ValueError as e:
                errors[i] = _error_text(e)
    pp, pm, mp, mm = probabilities
    return [phase, visibility, pp + mm, pm + mp, pp, pm, mp, mm, pp + pm, pp + mp], errors


_CHAINED_MODELS = {
    "quantum": lambda spec: bell.quantum_model(spec.params["visibility"]),
    "pr_box": lambda spec: bell.pr_box_model(),
    "suppressed": lambda spec: bell.suppressed_nonlocality_model(),
}


def _row_chained(spec: ScanSpec, index: int, point: dict) -> tuple:
    n = int(point["n"])
    theta = spec.params["theta"]
    model_name = spec.params["model"]
    model = _CHAINED_MODELS[model_name](spec)
    i_value = bell.chained_I(model, bell.ChainedConfig(n=n, theta=theta))
    closed = bell.quantum_I_closed_form(n, theta) if model_name == "quantum" else ""
    return theta, model_name, i_value, closed, bell.classify(i_value).value


def _row_extensions(spec: ScanSpec, index: int, point: dict) -> tuple:
    witness = extensions.find_falsifying_N(
        point["d"], theta=spec.params["theta"], n_cap=spec.params["n_cap"]
    )
    previous = "" if witness.previous_bound is None else witness.previous_bound
    return witness.n, witness.bound, witness.i_value, previous


# Each model's detection law of a row's two fringe ports (p, q).
_SAMPLE_MODELS = {
    "quantum": interferometer._quantum_detection,
    "local": interferometer._local_detection,
}


def _row_sample(spec: ScanSpec, index: int, point: dict) -> tuple:
    dist = _SAMPLE_MODELS[spec.params["model"]](point["p"], point["q"])
    counts = interferometer.sample_events(dist, spec.params["n"], spec.params["seed"],
                                          stream=index)
    return counts.n_plus, counts.n_minus, counts.n_double, counts.n_null


def _sample_rows(spec: ScanSpec, rows: np.ndarray, points: dict) -> tuple[list, list[str]]:
    """The block's ports from one ``fringe_probabilities`` call; each row
    draws its counts from its model's law of them, its row number the stream."""
    p, q = interferometer.fringe_probabilities(points["phi"])
    return _pointwise(_row_sample)(spec, rows, {"p": p, "q": q})


_IDEAL = ("mode", "ideal")
_PHYSICAL = ("mode", "physical")

_SUBCOMMANDS: dict[str, _Subcommand] = {
    "interf": _Subcommand(
        help="fringe probabilities over phase (and bandwidth-delay) grids",
        grids=(_Param("phi", domain=_FINITE), _Param("dphi", default=0.0, domain=_DELAY)),
        params=(_Param("tolerance", _TOLERANCE, "tolerance of the wave-packet quadrature "
                       "(rows with dphi > 0)", 1e-10),),
        columns=("p_plus", "p_minus"),
        row=_interf_rows,
    ),
    "unitarity": _Subcommand(
        help="cross-term residual and port probabilities of "
             "reflection-phase splitter models",
        grids=(_Param("reflection_phase", domain=_FINITE), _Param("phi", domain=_FINITE)),
        params=(_Param("tolerance", _TOLERANCE, "tolerance of the unitarity check", 1e-10),),
        columns=("residual", "valid", "p_plus", "p_minus", "total"),
        row=_unitarity_rows,
    ),
    "franson": _Subcommand(
        help="two-photon joint distributions, ideal or spectral",
        grids=(_Param("phi", when=_IDEAL, domain=_FINITE),
               _Param("tau_b", when=_PHYSICAL, domain=_DELAY)),
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
        row=_franson_rows,
    ),
    "chained": _Subcommand(
        help="chained inequality values over a settings-count grid",
        grids=(_Param("n", most=_MAX_CHAIN, domain=_WHOLE),),
        params=(
            _Param("theta", _REAL, "total phase spread over the chain, rad", math.pi),
            _Param("model", _TEXT, "correlation model", "quantum",
                   tuple(sorted(_CHAINED_MODELS))),
            _Param("visibility", _REAL, "visibility of the quantum model", 1.0,
                   when=("model", "quantum")),
        ),
        columns=("theta", "model", "i_value", "i_closed_form", "classification"),
        row=_pointwise(_row_chained),
    ),
    "extensions": _Subcommand(
        help="falsifying chain length for statistical distances",
        grids=(_Param("d"),),
        params=(
            _Param("theta", _REAL, "total phase spread over the chain, rad", math.pi),
            _Param("n_cap", _INT, "longest chain searched", 1_000_000, most=_MAX_CHAIN),
        ),
        columns=("witness_n", "bound_at_witness", "i_at_witness", "bound_at_prev"),
        row=_pointwise(_row_extensions),
    ),
    "sample": _Subcommand(
        help="seeded multinomial detection counts over a phase grid",
        grids=(_Param("phi", domain=_FINITE),),
        params=(
            # numpy's multinomial takes n as a C long
            _Param("n", _INT, "runs per phase", 1_000_000, most=2 ** 63 - 1),
            _Param("model", _TEXT, "detection model", "quantum", tuple(sorted(_SAMPLE_MODELS))),
            _Param("seed", _SEED, "RNG seed (required)"),
        ),
        columns=("n_plus", "n_minus", "n_double", "n_null"),
        row=_sample_rows,
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
        # A ScanSpec built directly may hold ints, bools and numpy scalars,
        # which rows take as floats.
        if not all(map(isinstance, values, repeat(_REALS))):
            raise ConfigError(f"grid {name!r}: expected a list of real numbers")
    rows = math.prod(len(values) for values in spec.grids.values())
    if rows > _MAX_ROWS:
        raise ConfigError(f"the grids give {rows} rows; a scan may have at most {_MAX_ROWS}")
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
        elif scanned and axis.most is not None:
            values = spec.grids[axis.name]
            over = np.flatnonzero(np.asarray(values) > axis.most)
            if over.size:
                axis.check_most(f"grid {axis.name!r} values", values[over[0]])
    return params


def _evaluate(spec: ScanSpec, sub: _Subcommand, rows: np.ndarray,
              points: dict) -> tuple[list, list[str]]:
    """Output columns and error texts of the block's grid points.

    The row function runs once on the whole block and never sees a value
    outside a domain: it is replaced by 0.0, which every domain holds, and
    its row's result dropped.  That row is an error row, whose text names
    the first such axis in table order; its cells are written blank."""
    texts = {}
    for axis in sub.grids:
        if axis.domain is not None and axis.name in points:
            values = points[axis.name]
            outside = ~axis.domain.holds(values)
            if outside.any():
                for i in np.flatnonzero(outside).tolist():
                    texts.setdefault(i, f"ValueError: {axis.name} must be "
                                        f"{axis.domain.noun}, got {values[i].item()!r}")
                points = {**points, axis.name: np.where(outside, 0.0, values)}
    columns, errors = sub.row(spec, rows, points)
    if texts:
        errors = [texts.get(i, error) for i, error in enumerate(errors)]
    return columns, errors


# ---------------------------------------------------------------------------
# Output

# Grid points per block: a block is evaluated, formatted and written before
# the next one runs.
_BLOCK_ROWS = 1024

_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _csv_text(value) -> str:
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _float_texts(values) -> list[str]:
    """The ``repr`` of each value of a float array or list; a TypeError at a
    value that is not a float."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return list(map(float.__repr__, values))


def _json_floats(values) -> list[str]:
    texts = _float_texts(values)
    # Every value is a float once formatted, so numpy tests them all at once.
    if not np.isfinite(values).all():
        texts = [_JSON_NON_FINITE.get(text, text) for text in texts]
    return texts


def _distinct(bits: np.ndarray) -> np.ndarray:
    """The distinct values of an int64 array, sorted.  Of a float array's
    bits, they tell -0.0 from 0.0 and NaNs of any payload apart.  (A sort:
    np.unique's first call imports numpy.ma, about 2 MB.)"""
    ordered = np.sort(bits)
    keep = np.ones(ordered.size, dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


class _Writer:
    """Formats rows by column: CSV lines, or the rows of the indent=2 JSON
    document, whose keys are sorted.

    A row is its cells in ``order`` with fixed text around them, the
    ``pieces``: before the first cell, between two cells and after the last
    (the key and indentation of each JSON cell, a comma between two CSV
    cells).  :meth:`text` joins each row of a block from its pieces and
    cells, and the rows with ``separator``.
    """

    def __init__(self, names: tuple[str, ...], csv: bool):
        if csv:
            self.floats = _float_texts
            # Cell writers by exact type (bool is not int here); any other
            # value is written as quoted text.
            self.cells = {float: float.__repr__, int: int.__repr__,
                          bool: lambda value: "1" if value else "0"}
            self.other = _csv_text
            self.blank = ""
            self.order = tuple(range(len(names)))
            self.pieces = ("",) + (",",) * (len(names) - 1) + ("\n",)
            self.separator = ""
        else:
            self.floats = _json_floats
            self.cells = {float: lambda value: _json_floats([value])[0], int: int.__repr__}
            self.other = json.dumps
            self.blank = '""'
            self.order = tuple(sorted(range(len(names)), key=names.__getitem__))
            # One row at its depth in the document, as indent=2 writes it.
            keys = ["\n      " + json.dumps(names[k]) + ": " for k in self.order]
            self.pieces = ("{" + keys[0], *("," + key for key in keys[1:]), "\n    }")
            self.separator = ",\n    "

    def column(self, values) -> list[str]:
        """The cells of one column of values: a list or an array."""
        if isinstance(values, np.ndarray):
            if values.dtype == bool:
                cells = [self.cells.get(bool, self.other)(flag) for flag in (False, True)]
                return list(map(cells.__getitem__, values.tolist()))
            values = values.tolist()
        try:
            return self.floats(values)
        except TypeError:  # not every value is a float
            cell = self.cells.get
            return [cell(type(value), self.other)(value) for value in values]

    def text(self, columns: list[list[str]]) -> str:
        """The rows of the given cell columns, joined by the row separator:
        each row is one ``"".join`` of its pieces and cells, zipped in C."""
        parts = []
        for piece, k in zip(self.pieces, self.order):
            parts += repeat(piece), columns[k]
        parts.append(repeat(self.pieces[-1]))
        return self.separator.join(map("".join, zip(*parts)))


# The most cells one float column's table holds in one process, but for a
# grid axis's table, which holds its whole grid.
_TABLE_CELLS = 4096


def _table(writer: _Writer, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cell table of a float array: the sorted bits of its distinct
    values (see :func:`_distinct`) beside an object array of their cells."""
    keys = _distinct(values.view(np.int64))
    return keys, np.array(writer.floats(keys.view(float)), dtype=object)


def _table_cells(writer: _Writer, values: np.ndarray,
                 table: tuple | None) -> tuple[list[str], tuple | None]:
    """The cells of one block of a float column, and the column's table for
    its next block in this process (None once the column has left it).

    A block formats only the distinct values the table lacks, and looks
    every cell up by its bits.  A block that brings more than two thirds new
    values, or would take the table past ``_TABLE_CELLS``, is formatted
    value by value, and the column leaves its table for the rest of the
    scan.  A block with no new value never leaves it."""
    if table is None:
        return writer.floats(values), None
    keys, cells = table
    bits = values.view(np.int64)
    new = _distinct(bits)
    if keys.size:
        new = new[keys[np.minimum(np.searchsorted(keys, new), keys.size - 1)] != new]
    if new.size:
        if 3 * new.size > 2 * bits.size or keys.size + new.size > _TABLE_CELLS:
            return writer.floats(values), None
        at = np.searchsorted(keys, new)
        keys = np.insert(keys, at, new)
        cells = np.insert(cells, at, writer.floats(new.view(float)))
    return cells[np.searchsorted(keys, bits)].tolist(), (keys, cells)


# The grids entry of the indented JSON spec text when the grids are {}.
_SPEC_GRIDS = '\n    "grids": {}'
_SPEC_CELL = ",\n        "  # between two cells of a grid list in the JSON spec


def _json_tail(spec: ScanSpec, grid_cells: dict[str, list[str]]) -> list[str]:
    """The text after the last JSON row: the spec as json.dumps(indent=2,
    sort_keys=True) writes it one level down, with the list of each grid
    spliced in from ``grid_cells`` (pieces of cells joined by _SPEC_CELL)."""
    # The worker count stays out of the artifact, which must not depend on it.
    doc_spec = {**spec.to_dict(), "grids": {}}
    del doc_spec["workers"]
    text = json.dumps(doc_spec, indent=2, sort_keys=True).replace("\n", "\n  ")
    before, _, after = text.partition(_SPEC_GRIDS)
    # Written part by part: a grid list is joined once and never copied.
    parts = ['\n  ],\n  "spec": ', before, '\n    "grids": {']
    for k, name in enumerate(sorted(grid_cells)):
        parts += [",\n      " if k else "\n      ", json.dumps(name), ": [\n        ",
                  _SPEC_CELL.join(grid_cells[name]), "\n      ]"]
    return parts + ["\n    }", after, "\n}\n"]


def run_scan(spec: ScanSpec) -> int:
    """Execute the scan and write its artifact; returns the exit status.

    Rows run in grid order, ``_BLOCK_ROWS`` grid points at a time: the
    subcommand's row function evaluates a block, and the block is formatted
    by column and written before the next one runs, so the artifact is never
    held in memory whole.  Each float column's cells come from its table
    in this process (:func:`_table_cells`), which a grid axis whose values
    repeat over the rows fills with its whole grid before the first block,
    unless the column has the bits of a column already formatted in the
    block, whose cells it reuses.  A JSON artifact's
    ``spec.grids`` lists are written from the same cells, so its text equals
    ``json.dumps({"spec": ..., "rows": ...}, indent=2, sort_keys=True)``.

    The blocks are split into :func:`_processes` contiguous ranges.  With
    one, the calling process runs every block; with more, it runs the first
    range and forked children the others (:func:`bellsim._workers.run`).
    Every process runs the same block loop, so the artifact has the same
    bytes for every ``spec.workers``.  The output file is opened before any
    row runs, so an unwritable path fails first.  If the scan raises outside
    row evaluation, in any process, the partly written file is removed
    (what went to stdout stays written) and the error of the earliest block
    that raised is raised.
    """
    spec = replace(spec, params=validate_spec(spec))
    sub = _SUBCOMMANDS[spec.subcommand]

    grids = [np.array(values, dtype=float) for values in spec.grids.values()]
    shape = tuple(grid.size for grid in grids)
    rows = math.prod(shape)
    # An axis with a default that is not scanned is fixed at its default.
    fixed = {axis.name: axis.default for axis in sub.grids
             if axis.name not in spec.grids and axis.default is not _REQUIRED}
    names = tuple(spec.grids) + sub.columns + ("error",)
    writer = _Writer(names, spec.format == "csv")
    # Each axis's table: an axis whose values repeat over the rows starts
    # with its whole grid, formatted once per scan and never left; an axis
    # that gives each row its own value starts empty, as an output column does.
    empty = _table(writer, np.empty(0))
    axis_tables = [_table(writer, grid) if grid.size < rows else empty for grid in grids]
    # JSON spec.grids lists as pieces of joined cells.  A 1-D axis's pieces
    # are added as the blocks format its cells.  Values that are not all
    # floats (possible in a ScanSpec built directly) are written as given.
    spec_cells, block_pieces = {}, {}
    if spec.format == "json":
        for (name, values), grid, table in zip(spec.grids.items(), grids, axis_tables):
            if set(map(type, values)) != {float}:
                spec_cells[name] = writer.column(list(map(_plain, values)))
            elif grid.size == rows:
                spec_cells[name] = block_pieces[name] = []
            else:
                spec_cells[name] = _table_cells(writer, grid, table)[0]
        head = '{\n  "rows": [\n    '
    else:
        head = ",".join(names) + "\n"

    def write_blocks(first: int, stop: int, write: Callable[[str], object],
                     pieces: dict[str, list[str]]) -> bool:
        """Evaluate blocks ``first`` to ``stop - 1`` in grid order and pass
        each block's text to ``write``; a 1-D axis's JSON spec cells go to
        its list in ``pieces``.  Returns whether any row failed."""
        failed = False
        # One table per column in this process, the grid axes' first.
        tables = axis_tables + [empty] * len(sub.columns)
        for start in range(first * _BLOCK_ROWS, min(stop * _BLOCK_ROWS, rows), _BLOCK_ROWS):
            block = np.arange(start, min(start + _BLOCK_ROWS, rows))
            index = np.unravel_index(block, shape)
            inputs = [grid[i] for grid, i in zip(grids, index)]
            points = dict(zip(spec.grids, inputs))
            points.update((name, np.full(block.size, value)) for name, value in fixed.items())
            outputs, errors = _evaluate(spec, sub, block, points)
            failures = [i for i, error in enumerate(errors) if error] if any(errors) else []
            # The cells of the block's float columns by their bits, which
            # tell -0.0 from 0.0; failed rows are blanked on a copy.
            cells, formatted = [], {}
            for k, values in enumerate(inputs + outputs):
                if isinstance(values, np.ndarray) and values.dtype == float:
                    column = formatted.get(values.tobytes())
                    if column is None:
                        column, tables[k] = _table_cells(writer, values, tables[k])
                        formatted[values.tobytes()] = column
                else:
                    column = writer.column(values)
                if failures and k >= len(inputs):
                    column = list(column)
                    for i in failures:
                        column[i] = writer.blank
                cells.append(column)
            for name, column in zip(spec.grids, cells):
                if name in pieces:
                    pieces[name].append(_SPEC_CELL.join(column))
            cells.append(writer.column(errors) if failures else [writer.blank] * len(errors))
            write((writer.separator if start else "") + writer.text(cells))
            failed = failed or bool(failures)
        return failed

    blocks = -(-rows // _BLOCK_ROWS)
    count = _processes(spec.workers, blocks)
    to_file = spec.output != "-"
    out = open(spec.output, "w", encoding="utf-8", newline="\n") if to_file else sys.stdout
    try:
        out.write(head)
        if count == 1:
            failed = write_blocks(0, blocks, out.write, block_pieces)
        else:
            # Imported here, so that a scan in one process never compiles it.
            from . import _workers
            failed = _workers.run(write_blocks, blocks, count, out, block_pieces)
        if spec.format == "json":
            out.writelines(_json_tail(spec, spec_cells))
        if to_file:
            out.close()
    except BaseException:
        if to_file:
            out.close()
            os.remove(spec.output)
        raise
    return ROW_ERROR if failed else 0


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _processes(workers: int, blocks: int) -> int:
    """The processes a scan of ``blocks`` blocks runs in: one per worker,
    but no more than its blocks or the CPUs this process may run on, and
    only the calling one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return min(workers, blocks, _usable_cpus())


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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it reads only the tables, and a
    parse leaves it as it was (``--grid`` appends to a copy of its default)."""
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
