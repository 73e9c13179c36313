"""A scan's blocks split over forked processes (``--workers N``): every
artifact has the bytes of the one-process scan for every N, a failure in
any process keeps the one-process contract, and no child outlives the
call.  No test here starts more than two real children."""

import hashlib
import json
import math
import os
import signal
import subprocess
import sys

import pytest

from bellsim import cli
from bellsim.cli import main
from bellsim.spectra import IntegrationError
from test_cli import FULL_SCALE_DIGESTS, GOLDEN, GOLDEN_JSON, _forks, _with_row

BLOCK = cli._BLOCK_ROWS


def run(argv):
    """``main(argv)``'s exit status, after checking that it left no child."""
    code = main(argv)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code


@pytest.fixture
def cpus(monkeypatch):
    """Let the scans use as many processes as they ask for, whatever the
    host's CPUs, so that three-process splits run on two CPUs too."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 3)


def _blocks(argv) -> int:
    spec = cli._spec_from_args(cli._build_parser().parse_args(argv))
    return -(-math.prod(map(len, spec.grids.values())) // BLOCK)


# Every full-scale scan of more than one block, and the JSON goldens.
SCANS = ([(name, argv, code, digest) for name, argv, code, digest in FULL_SCALE_DIGESTS
          if _blocks(argv) > 1]
         + [(f"golden_{name}", argv + ["--format", "json"], code,
             hashlib.sha256((GOLDEN / f"{name}.json").read_bytes()).hexdigest())
            for name, argv, code in GOLDEN_JSON])


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name, argv, code, digest", SCANS, ids=[scan[0] for scan in SCANS])
def test_digests_for_every_worker_count(tmp_path, capsys, cpus, name, argv, code, digest,
                                        workers, to_file):
    out = tmp_path / "out"
    argv = argv + ["--workers", str(workers)] + (["--output", str(out)] if to_file else [])
    assert run(argv) == code
    if to_file:
        # A JSON spec records the path the digest's stdout scan writes as "-".
        text = out.read_text().replace(f'"output": {json.dumps(str(out))}', '"output": "-"')
    else:
        text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _bytes(argv, tmp_path, workers, want_code):
    out = tmp_path / "out"  # one path: a JSON spec records it
    assert run(argv + ["--workers", str(workers), "--output", str(out)]) == want_code
    return out.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [BLOCK * 2, BLOCK * 2 + 1, BLOCK * 3, BLOCK * 3 + 1])
def test_grids_at_and_past_block_multiples(tmp_path, cpus, rows, fmt):
    # A 1-D axis: its JSON spec cells come back from the children too.
    argv = ["franson", "--grid", f"phi=linspace:-3.5:9.5:{rows}", "--format", fmt]
    one = _bytes(argv, tmp_path, 1, 0)
    assert _bytes(argv, tmp_path, 2, 0) == one
    assert _bytes(argv, tmp_path, 3, 0) == one


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("nan_rows", [[BLOCK - 1], [BLOCK], [BLOCK - 1, BLOCK]],
                         ids=["parent", "child", "both"])
def test_error_rows_on_either_side_of_a_range_boundary(tmp_path, cpus, nan_rows, fmt):
    phis = [0.001 * k for k in range(2 * BLOCK)]
    for row in nan_rows:
        phis[row] = math.nan
    argv = ["interf", "--grid", "phi=" + ",".join(map(repr, phis)), "--format", fmt]
    assert _bytes(argv, tmp_path, 2, 1) == _bytes(argv, tmp_path, 1, 1)


def _raising_row(monkeypatch, error, when):
    real = cli._SUBCOMMANDS["interf"].row

    def row(spec, rows, points):
        if when(rows[0]):
            raise error
        return real(spec, rows, points)

    _with_row(monkeypatch, "interf", row)


@pytest.mark.parametrize("error", [
    RuntimeError("lost the grid"),
    # Its __init__ takes more than the message, so it does not unpickle.
    IntegrationError(0.5, 1e-3, 64, 1e-9),
], ids=["runtime", "unpicklable"])
@pytest.mark.parametrize("where", [lambda row: row >= BLOCK, lambda row: row == 0,
                                   lambda row: True], ids=["child", "parent", "both"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_an_error_outside_rows_in_any_process_keeps_the_serial_contract(
        tmp_path, monkeypatch, capsys, cpus, error, where, fmt):
    _raising_row(monkeypatch, error, where)
    out = tmp_path / "out"
    argv = ["interf", "--grid", f"phi=linspace:0:1:{2 * BLOCK}", "--format", fmt,
            "--output", str(out)]
    messages = []
    for workers in ("1", "2"):
        assert run(argv + ["--workers", workers]) == 1
        assert not out.exists()
        messages.append(capsys.readouterr().err)
    assert messages[0] == messages[1] == f"bellsim: error: {cli._error_text(error)}\n"


def test_stdout_keeps_the_blocks_before_the_failing_one(monkeypatch, capsys, cpus):
    # The child runs blocks 2 and 3 and raises in block 3: the caller still
    # writes the child's block 2, as one process would have.
    _raising_row(monkeypatch, RuntimeError("lost the grid"), lambda row: row >= 3 * BLOCK)
    argv = ["interf", "--grid", f"phi=linspace:0:1:{4 * BLOCK}"]
    written = []
    for workers in ("1", "2"):
        assert run(argv + ["--workers", workers]) == 1
        written.append(capsys.readouterr().out)
    assert written[0] == written[1] and written[0].count("\n") == 1 + 3 * BLOCK


def test_a_child_that_dies_fails_the_scan(tmp_path, monkeypatch, capsys, cpus):
    real = cli._SUBCOMMANDS["interf"].row

    def row(spec, rows, points):
        if rows[0]:
            os.kill(os.getpid(), 9)
        return real(spec, rows, points)

    _with_row(monkeypatch, "interf", row)
    out = tmp_path / "out"
    argv = ["interf", "--grid", f"phi=linspace:0:1:{2 * BLOCK}", "--output", str(out)]
    assert run(argv + ["--workers", "2"]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "bellsim: error: ChildProcessError: a scan process ended with status -9 "
        "and no result\n")


@pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
def test_an_interrupted_scan_kills_and_reaps_its_children(tmp_path, monkeypatch, cpus,
                                                          interrupt):
    # The child blocks on a pipe that nobody writes until the test closes
    # it; the caller's own block is interrupted.  Only a kill ends the child
    # before the caller returns.
    read, write = os.pipe()

    def row(spec, rows, points):
        if rows[0]:
            os.close(write)
            os.read(read, 1)
        raise interrupt()

    def give_up(signum, frame):
        raise TimeoutError("the blocked child was never killed")

    _with_row(monkeypatch, "interf", row)
    out = tmp_path / "out"
    before = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(60)  # a failure here must not hang the suite
    try:
        with pytest.raises(interrupt):
            main(["interf", "--grid", f"phi=linspace:0:1:{2 * BLOCK}", "--workers", "2",
                  "--output", str(out)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, before)
        os.close(read)
        os.close(write)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not out.exists()


@pytest.mark.parametrize("workers, rows, usable, processes", [
    (8, 3 * BLOCK, 8, 3),      # one process per block
    (8, 3 * BLOCK, 2, 2),      # one per usable CPU
    (2, 3 * BLOCK, 8, 2),      # one per worker
    (8, 2 * BLOCK + 1, 1, 1),  # one CPU: in-process
    (8, BLOCK, 8, 1),          # one block: in-process
    (1, 3 * BLOCK, 8, 1),
])
def test_processes_are_capped_by_blocks_and_cpus(tmp_path, monkeypatch, workers, rows, usable,
                                                 processes):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: usable)
    calls = _forks(monkeypatch)
    argv = ["interf", "--grid", f"phi=linspace:0:1:{rows}"]
    split = _bytes(argv, tmp_path, workers, 0)
    assert len(calls) == processes - 1
    assert split == _bytes(argv, tmp_path, 1, 0)


def test_a_platform_without_fork_runs_every_block_in_process(tmp_path, monkeypatch, cpus):
    argv = ["franson", "--grid", f"phi=linspace:0:1:{3 * BLOCK}", "--format", "json"]
    one = _bytes(argv, tmp_path, 1, 0)
    monkeypatch.delattr(os, "fork")
    assert _bytes(argv, tmp_path, 3, 0) == one


# Runs a three-block scan at --workers 1, then 2, in a fresh interpreter and
# prints whether bellsim._workers was imported after the import of the CLI
# and after each scan, and the CPUs the scans could use.
_IMPORT_CHILD = """
import contextlib, io, json, sys
from bellsim import cli
seen = ["bellsim._workers" in sys.modules]
argv = ["interf", "--grid", f"phi=linspace:0:1:{3 * cli._BLOCK_ROWS}"]
for workers in ("1", "2"):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--workers", workers])
    seen.append([code, "bellsim._workers" in sys.modules])
print(json.dumps({"seen": seen, "cpus": cli._usable_cpus()}))
"""


def test_only_a_scan_that_forks_imports_the_worker_module():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_CHILD], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["seen"] == [False, [0, False], [0, report["cpus"] >= 2]]
