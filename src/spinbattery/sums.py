"""Order-fixed, reproducible reductions of per-mode terms.

Scalar mode sums are exactly rounded, and the XY time kernel
(``quench.energy_at_times``) reduces its mode sums in ascending-q order with
an error-free transformation, so results are bitwise stable across runs and
across any parallel work splitting that feeds per-mode terms in order.  (The
Ising time kernel reduces by matrix-vector products; see
``quench._phase_block_sum``.)
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["compensated_sum", "compensated_sum_axis0"]


def compensated_sum(values: np.ndarray) -> float:
    """Exactly rounded sum of a 1-D array, so independent of its order."""
    return math.fsum(np.asarray(values, dtype=float))


def compensated_sum_axis0(values: np.ndarray) -> np.ndarray:
    """Compensated sum of a (n, m) array along axis 0, in row order.

    Each addition's exact rounding error comes from Knuth's branch-free
    TwoSum and is accumulated apart; the result is bitwise that of
    Neumaier's branching form, which yields the same exact errors.
    Vectorized over columns so traces over many time points stay cheap.
    """
    arr = np.asarray(values, dtype=float)
    total = np.zeros(arr.shape[1], dtype=float)
    comp = np.zeros(arr.shape[1], dtype=float)
    for row in arr:
        t = total + row
        bb = t - total
        comp += (total - (t - bb)) + (row - bb)
        total = t
    return total + comp
