"""Order-fixed, reproducible reductions of per-mode terms.

Scalar mode sums are exactly rounded, and the XY time kernel
(``quench.energy_at_times``) adds its mode rows in ascending-q order into a
running compensated pair, so results are bitwise stable across runs and
across any splitting of times or of mode tiles that feeds the rows in order.
(The Ising time kernel reduces by matrix-vector products; see
``quench._phase_block_sum``.)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["compensated_sum", "compensated_sum_axis0", "add_rows"]


def compensated_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of a 1-D array, so independent of its order."""
    return math.fsum(np.asarray(values, dtype=float))


def compensated_sum_axis0(values: np.ndarray) -> np.ndarray:
    """Compensated sum of a (n, m) array along axis 0, in row order (:func:`add_rows`)."""
    arr = np.asarray(values, dtype=float)
    total, comp = np.zeros((2, arr.shape[1]))
    add_rows(arr, total, comp)
    return total + comp


def add_rows(rows: np.ndarray, total: np.ndarray, comp: np.ndarray) -> None:
    """Add the rows of a (n, m) array, in order, into the pair (total, comp) in place.

    ``total + comp`` is then the compensated sum of every row added so far.
    Each addition's exact rounding error comes from Knuth's branch-free
    TwoSum and is accumulated apart; the result is bitwise that of
    Neumaier's branching form, which yields the same exact errors.
    """
    t, bb, err = np.empty((3, total.size))
    for row in rows:
        np.add(total, row, out=t)
        np.subtract(t, total, out=bb)
        np.subtract(total, np.subtract(t, bb, out=err), out=err)  # total - (t - bb)
        err += np.subtract(row, bb, out=bb)  # + (row - bb)
        comp += err
        np.copyto(total, t)
