import numpy as np
import pytest

from spinbattery.sums import add_rows, compensated_sum_axis0


def _neumaier(values):
    """Neumaier's branching compensated sum along axis 0: the reference."""
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
def test_mixed_magnitudes_match_neumaier(seed):
    values = _mixed(np.random.default_rng(seed), 300, 257)
    assert _same_bits(compensated_sum_axis0(values), _neumaier(values))


def test_cancellation_recovers_the_small_terms():
    big = np.array([1e16, 1e300, -3.0, 2.0**60])
    values = np.array([big, [1.0, 1.0, 1e-16, 1.0], -big, [0.5, -2.0, 3.0, 3.0]])
    out = compensated_sum_axis0(values)
    assert _same_bits(out, _neumaier(values))
    assert out.tolist() == [1.5, -1.0, 3.0 + 1e-16, 4.0]


def test_zero_rows_and_signed_zeros():
    values = np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    assert _same_bits(compensated_sum_axis0(values), _neumaier(values))
    empty = np.zeros((0, 3))
    assert _same_bits(compensated_sum_axis0(empty), _neumaier(empty))


def test_subnormals():
    rng = np.random.default_rng(7)
    tiny = np.finfo(float).smallest_subnormal
    values = rng.integers(-(2**40), 2**40, (50, 64)) * tiny
    values[10] = 2.0 * np.finfo(float).tiny
    values[20] = -values[10]
    assert _same_bits(compensated_sum_axis0(values), _neumaier(values))


def test_rows_in_order_of_the_kernel():
    # the shape the XY kernel reduces: 300 modes x one thread's block
    values = _mixed(np.random.default_rng(99), 300, 2048) * 1e-12
    assert _same_bits(compensated_sum_axis0(values), _neumaier(values))


@pytest.mark.parametrize("tile", [1, 7, 64, 300])
def test_rows_added_tile_by_tile_keep_the_bits(tile):
    # the XY kernel adds each mode tile's rows into one running pair per chunk of times
    values = _mixed(np.random.default_rng(5), 300, 64)
    total, comp = np.zeros((2, 64))
    for lo in range(0, 300, tile):
        add_rows(values[lo : lo + tile], total, comp)
    assert _same_bits(total + comp, _neumaier(values))


def _row_by_row(rows, total, comp):
    """The per-row form of :func:`add_rows`: one TwoSum per row, the reference."""
    t, bb, err = np.empty((3, total.size))
    for row in rows:
        np.add(total, row, out=t)
        np.subtract(t, total, out=bb)
        np.subtract(total, np.subtract(t, bb, out=err), out=err)  # total - (t - bb)
        err += np.subtract(row, bb, out=bb)  # + (row - bb)
        comp += err
        np.copyto(total, t)


@pytest.mark.parametrize("k", [1, 2, 3, 11, 46, 300])
@pytest.mark.parametrize("cols", [1, 2, 3, 100, 2802, 12732])
def test_a_tile_keeps_the_row_by_row_bits(k, cols):
    # row scales from 1e-8 to 1e8, and a running pair that already holds
    # sums: up to ROW_BY_ROW rows go one by one, a taller tile's prefix sums,
    # errors and one axis-0 reduction must give the pair of adding row after
    # row (so numpy reduces axis 0 in row order, and one column is accumulated)
    rng = np.random.default_rng(k * 100_003 + cols)
    rows = rng.standard_normal((k, cols)) * 10.0 ** rng.uniform(-8, 8, (k, 1))
    start = rng.standard_normal((2, cols)) * [[1e4], [1e-12]]
    expected, got = start.copy(), start.copy()
    _row_by_row(rows, *expected)
    add_rows(rows, *got)
    assert _same_bits(got, expected)
    reused = start.copy()
    work = np.full((3, k + 4, cols), np.nan)  # a chunk's buffers, larger than the tile
    add_rows(rows, *reused, work)
    assert _same_bits(reused, expected)
