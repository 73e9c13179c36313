"""A scan's block ranges run in forked processes (``--workers N``).

:func:`run` runs the first range of blocks in the calling process and
every other range in an ``os.fork()``ed child.  A child hands its result
back through an unnamed temporary file: 8 bytes giving the offset where its
text ends (0 until it is done), its text in UTF-8, and a pickle of whether
a row failed, its JSON spec pieces and the exception its blocks raised.
The caller copies each child's text into the artifact in range order, a
chunk at a time, so no process holds another's whole text.

Only ``bellsim.cli.run_scan`` imports this module, and only for a scan that
forks, so a scan in one process never compiles it.
"""

from __future__ import annotations

import codecs
import os
import pickle
import signal
import tempfile
from typing import Callable

# Bytes of a child's text that the calling process holds at a time.
_CHUNK = 1 << 16


def run(write_blocks: Callable, blocks: int, count: int, out,
        pieces: dict[str, list[str]]) -> bool:
    """Run ``blocks`` blocks in ``count`` contiguous ranges, each by
    ``write_blocks(first, stop, write, pieces)``: the calling process runs
    the first and writes to ``out``, a forked child each other range; then
    each child's text goes to ``out`` and its pieces to ``pieces``, in
    range order.  Returns whether any row failed.

    A range that raises outside row evaluation raises here, after the text
    its blocks wrote before it; the earliest such range wins.  On any
    exception, ``KeyboardInterrupt`` and ``SystemExit`` included, every
    child not yet reaped is killed and reaped.
    """
    bounds = [blocks * k // count for k in range(count + 1)]
    children = []  # (pid, file) of each child not yet reaped, in range order
    try:
        for first, stop in zip(bounds[1:-1], bounds[2:]):
            children.append(_start(write_blocks, first, stop, pieces))
        failed = write_blocks(bounds[0], bounds[1], out.write, pieces)
        while children:
            pid, file = children[0]
            with file:
                status = os.waitpid(pid, 0)[1]
                del children[0]
                failed = _join(file, status, out, pieces) or failed
        return failed
    except BaseException:
        _kill(children)
        raise


def _start(write_blocks: Callable, first: int, stop: int,
           pieces: dict[str, list[str]]) -> tuple[int, object]:
    """Fork a child that runs blocks ``first`` to ``stop - 1`` into a new
    unnamed temporary file; return its pid and the file.  The child leaves
    by ``os._exit``, never returning here and never flushing what the
    caller buffered.  An exception that does not survive pickling goes back
    as its type name and text."""
    file = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except BaseException:
        file.close()
        raise
    if pid:
        return pid, file
    status = 1
    try:
        own = {name: [] for name in pieces}
        failed, error = False, None
        file.write(bytes(8))
        try:
            failed = write_blocks(first, stop, lambda text: file.write(text.encode()), own)
        except BaseException as e:
            error = e
            try:
                pickle.loads(pickle.dumps(e))
            except Exception:  # e.g. an __init__ that takes more than the message
                error = type(e).__name__, str(e)
        end = file.tell()
        pickle.dump((failed, own, error), file)
        file.seek(0)
        file.write(end.to_bytes(8, "little"))
        file.flush()
        status = 0
    finally:
        os._exit(status)


def _join(file, status: int, out, pieces: dict[str, list[str]]) -> bool:
    """Copy the text of a reaped child's file to ``out`` a chunk at a time,
    add its pieces to ``pieces`` and return whether any of its rows failed;
    raise the exception its blocks raised."""
    file.seek(0)
    end = int.from_bytes(file.read(8), "little")
    if not end:
        raise ChildProcessError(f"a scan process ended with status "
                                f"{os.waitstatus_to_exitcode(status)} and no result")
    decode = codecs.getincrementaldecoder("utf-8")().decode
    for offset in range(8, end, _CHUNK):
        out.write(decode(file.read(min(_CHUNK, end - offset))))
    out.write(decode(b"", final=True))
    failed, own, error = pickle.load(file)
    if isinstance(error, tuple):
        error = type(error[0], (Exception,), {})(error[1])
    if error is not None:
        raise error
    for name, texts in own.items():
        pieces[name] += texts
    return failed


def _kill(children: list) -> None:
    """Kill and reap each child of ``children`` and close its file."""
    for pid, file in children:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.waitpid(pid, 0)
        file.close()
