from fractions import Fraction

import numpy as np
import pytest

from spinbattery.sums import compensated_sum, compensated_sum_axis0


def _exact(values):
    """Each column's ``Fraction`` sum, rounded to a float once: the judge."""
    return np.array([float(sum(map(Fraction, column), Fraction(0))) for column in values.T])


def _neumaier(values):
    """Neumaier's branching compensated sum along axis 0.  It is exactly
    rounded on most inputs, not all, and judges ``quench._exact_energy`` on
    the tied Fig-3 window."""
    total = np.zeros(values.shape[1])
    comp = np.zeros(values.shape[1])
    for row in values:
        t = total + row
        big = np.abs(total) >= np.abs(row)
        comp += np.where(big, (total - t) + row, (row - t) + total)
        total = t
    return total + comp


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _mixed(rng, rows, cols):
    # each row spans 1e-5 ... 1e12 with random signs; every fifth row is
    # scaled by a further 1e15
    values = rng.choice([-1.0, 1.0], (rows, cols)) * 10.0 ** rng.uniform(-5, 12, (rows, cols))
    values[::5] *= 1e15
    return values


@pytest.mark.parametrize("seed", range(20))
def test_mixed_magnitudes_are_exactly_rounded(seed):
    values = _mixed(np.random.default_rng(seed), 300, 64)
    assert _same_bits(compensated_sum_axis0(values), _exact(values))


@pytest.mark.parametrize("seed", range(10))
def test_permuting_the_rows_keeps_every_bit(seed):
    rng = np.random.default_rng(seed)
    values = _mixed(rng, 200, 32)
    values[1::7] = -values[::7][: len(values[1::7])]  # exact cancellations
    expected = compensated_sum_axis0(values)
    for _ in range(5):
        assert _same_bits(compensated_sum_axis0(values[rng.permutation(len(values))]), expected)


def test_cancellation_recovers_the_small_terms():
    big = np.array([1e16, 1e300, -3.0, 2.0**60])
    values = np.array([big, [1.0, 1.0, 1e-16, 1.0], -big, [0.5, -2.0, 3.0, 3.0]])
    out = compensated_sum_axis0(values)
    assert _same_bits(out, _exact(values))
    assert out.tolist() == [1.5, -1.0, 3.0 + 1e-16, 4.0]


def test_a_near_half_ulp_sum_is_rounded_once():
    # 1 + 2^-53 + 2^-105 lies just above the midpoint of 1 and its successor;
    # rounding the first two terms first gives 1, the exact sum rounds up
    values = np.array([[1.0], [2.0**-53], [2.0**-105]])
    assert compensated_sum_axis0(values).tolist() == [1.0 + 2.0**-52] == _exact(values).tolist()


def test_zero_rows_and_signed_zeros():
    values = np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    assert _same_bits(compensated_sum_axis0(values), _exact(values))
    empty = np.zeros((0, 3))
    assert _same_bits(compensated_sum_axis0(empty), _exact(empty))
    assert compensated_sum_axis0(np.zeros((4, 0))).shape == (0,)


def test_subnormals():
    rng = np.random.default_rng(7)
    tiny = np.finfo(float).smallest_subnormal
    values = rng.integers(-(2**40), 2**40, (50, 64)) * tiny
    values[10] = 2.0 * np.finfo(float).tiny
    values[20] = -values[10]
    assert _same_bits(compensated_sum_axis0(values), _exact(values))


def test_the_scalar_sum_is_the_column_sum():
    values = _mixed(np.random.default_rng(3), 500, 1)
    assert compensated_sum(values[:, 0]) == compensated_sum_axis0(values)[0] == _exact(values)[0]


def test_rows_of_mode_energies():
    # 300 mode rows of a short grid, each a mode's energy at 256 times
    values = _mixed(np.random.default_rng(99), 300, 256) * 1e-12
    assert _same_bits(compensated_sum_axis0(values), _exact(values))
