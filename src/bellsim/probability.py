"""The one validity check behind every probability table of the package.

A distribution is accepted when each entry lies in [0, 1] up to 1e-15 and
the entries, added left to right, sum to 1 up to 1e-12; a NaN entry fails
both tests.  A batch of distributions (one per column) is checked with the
same bounds and the same order of additions, and rejected with the message
the scalar check gives for its first invalid column.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

ENTRY_TOL = 1e-15
SUM_TOL = 1e-12
_LOW = -ENTRY_TOL
_HIGH = 1.0 + ENTRY_TOL


def check_distribution(entries: Sequence[float], what: str = "probabilities") -> None:
    """Raise ValueError unless ``entries`` is a probability distribution."""
    for p in entries:
        if not _LOW <= p <= _HIGH:
            raise ValueError(f"probability {p!r} outside [0, 1]")
    total = 0
    for p in entries:  # not sum(), which compensates float sums from Python 3.12 on
        total += p
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"{what} sum to {total!r}, not 1")


def _sum_errors(p: np.ndarray) -> np.ndarray:
    """|column sum - 1| for each column of the 2-D array ``p``, its rows
    added top to bottom: the order :func:`check_distribution` adds a
    column's entries in."""
    total = p[0].copy()
    for row in p[1:]:
        total += row
    total -= 1.0
    return np.abs(total, out=total)


def valid_columns(p: np.ndarray) -> np.ndarray:
    """Mask of the columns of the 2-D array ``p`` that
    :func:`check_distribution` accepts."""
    good = _sum_errors(p) <= SUM_TOL
    # a NaN entry makes its column's min and max NaN, which fail both tests
    good &= p.min(axis=0) >= _LOW
    good &= p.max(axis=0) <= _HIGH
    return good


def check_batch(p: np.ndarray, what: str = "probabilities") -> None:
    """Raise ValueError unless every column of the 2-D array ``p`` is a
    distribution; the message is that of the first invalid column."""
    good = valid_columns(p)
    if not good.all():
        check_distribution(p[:, int(np.argmin(good))].tolist(), what)
