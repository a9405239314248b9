"""Order-fixed, reproducible reductions of per-mode terms.

Scalar mode sums are exactly rounded, and the XY time kernel
(``quench.energy_at_times``) adds its mode rows, each a mode's two chains, in
ascending-q order into a running compensated pair, so results are bitwise
stable across runs and across any splitting of times or of mode tiles that
feeds the rows in order.
(The Ising time kernel reduces by matrix-vector products; see
``quench._phase_block_sum``.)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["compensated_sum", "compensated_sum_axis0", "add_rows"]

# add_rows adds a tile of at most this many rows one row at a time: on wide
# rows that makes fewer passes over memory than the whole-tile form.
ROW_BY_ROW = 2


def compensated_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of a 1-D array, so independent of its order."""
    return math.fsum(np.asarray(values, dtype=float))


def compensated_sum_axis0(values: np.ndarray) -> np.ndarray:
    """Compensated sum of a (n, m) array along axis 0, in row order (:func:`add_rows`)."""
    arr = np.asarray(values, dtype=float)
    total, comp = np.zeros((2, arr.shape[1]))
    add_rows(arr, total, comp)
    return total + comp


def add_rows(rows: np.ndarray, total: np.ndarray, comp: np.ndarray, work=None) -> None:
    """Add the rows of a (k, m) array, in order, into the pair (total, comp) in place.

    ``total + comp`` is then the compensated sum of every row added so far.
    Each addition's exact rounding error comes from Knuth's branch-free
    TwoSum and is accumulated apart; the result is bitwise that of
    Neumaier's branching form, which yields the same exact errors.  Up to
    ROW_BY_ROW rows are added one by one (eight passes over m floats each).
    A taller tile is added at once, in k + 9 numpy calls rather than 8k: its
    prefix sums, row by row, in a (k + 1, m) buffer, the TwoSum errors of all
    its rows, and one reduction of [comp; errors] along axis 0, which numpy
    does in row order (one column it would sum pairwise, so that one is
    accumulated).  Both give the bits of adding row after row.  ``work``, a
    (3, >= k + 1, m) float array, holds the buffers, so a caller adding many
    tiles allocates them once.
    """
    k = len(rows)
    if work is None:
        work = np.empty((3, k + 1, total.size))
    if k <= ROW_BY_ROW:
        t, bb, err = work[:, 0]
        for row in rows:
            np.add(total, row, out=t)
            np.subtract(t, total, out=bb)
            np.subtract(total, np.subtract(t, bb, out=err), out=err)  # total - (t - bb)
            err += np.subtract(row, bb, out=bb)  # + (row - bb)
            comp += err
            np.copyto(total, t)
        return
    prefix, errors, bb = work[0, : k + 1], work[1, : k + 1], work[2, :k]
    prefix[0] = total
    for i in range(k):
        np.add(prefix[i], rows[i], out=prefix[i + 1])
    before, after, err = prefix[:-1], prefix[1:], errors[1:]
    np.subtract(after, before, out=bb)
    np.subtract(before, np.subtract(after, bb, out=err), out=err)  # total - (t - bb)
    err += np.subtract(rows, bb, out=bb)  # + (row - bb)
    errors[0] = comp
    if total.size > 1:
        np.add.reduce(errors, axis=0, out=comp)
    else:  # numpy sums one column pairwise; an accumulation keeps the row order
        np.copyto(comp, np.add.accumulate(errors, axis=0, out=errors)[k])
    np.copyto(total, prefix[k])
