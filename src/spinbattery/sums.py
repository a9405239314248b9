"""Exactly rounded, order-free reductions of per-mode terms.

Every sum here is ``math.fsum``'s (Shewchuk, DCG 18, 305 (1997)): the float
nearest the exact sum, so its bits depend neither on the order of the terms
nor on how a grid of times is split.  The window candidates of a sweep row
are summed this way (``quench._exact_energy``); the phase-block kernel,
which every engine runs, reduces by matrix-vector products instead (see
``quench._phase_block_sum``).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["compensated_sum", "compensated_sum_axis0"]


def compensated_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of a 1-D array, so independent of its order."""
    return math.fsum(np.asarray(values, dtype=float))


def compensated_sum_axis0(values: np.ndarray) -> np.ndarray:
    """Exactly rounded sum of each column of a (n, m) array, so independent of the row order."""
    arr = np.asarray(values, dtype=float)
    return np.array([math.fsum(memoryview(column)) for column in arr.T], dtype=float)
