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
    total = sum(entries)
    if not abs(total - 1.0) <= SUM_TOL:
        raise ValueError(f"{what} sum to {total!r}, not 1")


def check_batch(p: np.ndarray, what: str = "probabilities") -> None:
    """Raise ValueError unless every column of the 2-D array ``p`` is a
    distribution; the message is that of the first invalid column."""
    total = p[0].copy()
    for row in p[1:]:
        total += row
    good = (np.abs(total - 1.0) <= SUM_TOL) & np.all((p >= _LOW) & (p <= _HIGH), axis=0)
    if not good.all():
        check_distribution(p[:, int(np.argmin(good))].tolist(), what)
