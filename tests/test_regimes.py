import math
import re
import warnings

import numpy as np
import pytest

from spinbattery import (
    EnergyTrace,
    IsingParams,
    QuenchProtocol,
    asymptotic_energy,
    energy_at_times,
    energy_trace,
    find_short_time_max,
    occupation_snapshot,
    resolution_bound,
    scaling_study,
    sweep_delta0,
    sweep_field,
)
from spinbattery import quench, regimes
from spinbattery.ising import ising_resolution_bound
from spinbattery.regimes import (
    DT_SAFETY,
    RecurrenceWindowWarning,
    RegimeDetectionError,
    analyze_trace,
    default_recurrence_window,
    ising_recurrence_window,
    linear_fit,
)


def _synthetic_trace(times, values):
    return EnergyTrace(
        times=np.asarray(times, dtype=float),
        values=np.asarray(values, dtype=float),
        protocol=None,
    )


class TestFindShortTimeMax:
    def test_single_cosine_peak(self):
        # pure 1 - cos(2 w t) peaks first at t = pi / (2 w)
        w = 0.8
        times = np.arange(0.0, 10.0, 0.01)
        trace = _synthetic_trace(times, 1.0 - np.cos(2 * w * times))
        tau, peak = find_short_time_max(trace)
        assert tau == pytest.approx(math.pi / (2 * w), abs=1e-4)
        assert peak == pytest.approx(2.0, abs=1e-6)

    def test_ising_two_mode_chain_is_single_cosine(self):
        # N=2 has modes at k = pi/2 and 3 pi/2 with one common frequency, so
        # the whole trace is a single cosine and tau_s is exactly analytic
        params = IsingParams(0.8, 0.7, 2)
        omega = math.sqrt(1 + 1.5**2 - 2 * 1.5 * math.cos(math.pi / 2))
        dt = 0.5 * ising_resolution_bound(params)
        trace = energy_trace(params, 8.0, dt)
        tau, _ = find_short_time_max(trace)
        assert tau == pytest.approx(math.pi / (2 * omega), abs=1e-3)

    def test_flat_trace_fails(self):
        trace = _synthetic_trace(np.arange(0.0, 5.0, 0.1), np.zeros(50))
        with pytest.raises(RegimeDetectionError, match="no charging occurred"):
            find_short_time_max(trace)

    def test_monotone_trace_fails(self):
        times = np.arange(0.0, 5.0, 0.1)
        with pytest.raises(RegimeDetectionError, match="no local maximum found") as info:
            find_short_time_max(_synthetic_trace(times, times**2))
        assert str(info.value).endswith(f"over its span [0.0, {times[-1]}]")

    def test_empty_trace_fails_with_a_verdict(self):
        with pytest.raises(RegimeDetectionError, match=re.escape("over its span []")):
            find_short_time_max(_synthetic_trace([], []))

    def test_refinement_beats_grid(self):
        # vertex between samples: parabolic refinement must land closer to
        # the true maximum than the raw grid resolution
        times = np.arange(0.0, 3.0, 0.13)
        true_tau = 1.234
        values = 5.0 - (times - true_tau) ** 2
        tau, peak = find_short_time_max(_synthetic_trace(times, values))
        assert tau == pytest.approx(true_tau, abs=1e-9)
        assert peak == pytest.approx(5.0, abs=1e-9)


class TestWindows:
    def test_xy_window_calibration(self):
        assert default_recurrence_window(300) == (600.0, 800.0)

    def test_ising_window_calibration(self):
        lo, hi = ising_recurrence_window(600)
        assert lo == pytest.approx(280.0, abs=1e-9)
        assert hi == pytest.approx(350.0, abs=1e-9)


class TestAnalyzeTrace:
    def test_report_fields_and_ordering(self):
        protocol = QuenchProtocol(1.25, 0.3, 0.6, 40)
        window = default_recurrence_window(40)
        dt = DT_SAFETY * resolution_bound(protocol)
        trace = energy_trace(protocol, window[1], dt)
        report = analyze_trace(trace, asymptotic_energy(protocol), window)
        assert 0 < report.tau_s < window[0] <= report.tau_r <= window[1]
        assert report.e_s >= report.e_inf - 1e-9 * protocol.n_dimers
        assert report.e_r >= report.e_inf - 1e-9 * protocol.n_dimers
        assert report.window_r == window

    def test_powers_are_the_energies_over_their_times(self):
        protocol = QuenchProtocol(1.25, 0.3, 0.6, 40)
        window = default_recurrence_window(40)
        trace = energy_trace(protocol, window[1], DT_SAFETY * resolution_bound(protocol))
        report = analyze_trace(trace, asymptotic_energy(protocol), window)
        assert report.power_s == report.e_s / report.tau_s
        assert report.power_r == report.e_r / report.tau_r

    def test_finds_windowed_peak(self):
        times = np.arange(0.0, 100.0, 0.1)
        values = np.exp(-((times - 5.0) ** 2)) + np.exp(-((times - 70.0) ** 2) / 4.0)
        report = analyze_trace(_synthetic_trace(times, values), 0.0, (60.0, 80.0))
        assert report.tau_s == pytest.approx(5.0, abs=1e-3)
        assert report.tau_r == pytest.approx(70.0, abs=1e-6)
        assert report.e_r == pytest.approx(1.0, abs=1e-6)

    def test_edge_maximum_warns(self):
        # a short-time bump, then a ramp that peaks on the window's last sample
        times = np.arange(0.0, 50.0, 0.1)
        trace = _synthetic_trace(times, np.exp(-((times - 2.0) ** 2)) + 0.01 * times)
        with pytest.warns(RecurrenceWindowWarning):
            report = analyze_trace(trace, 0.0, (10.0, 20.0))
        assert report.tau_r == trace.times[trace.times <= 20.0][-1]

    def test_empty_window_rejected(self):
        # the trace ends before the window: only a later end can reach it
        times = np.arange(0.0, 5.0, 0.1)
        message = (
            f"window-min 10.0 to window-max 20.0 holds none of the 50 grid samples, "
            f"t = 0.0 to {times[-1]}; raise --t-end into the window"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            analyze_trace(_synthetic_trace(times, np.sin(times)), 0.0, (10.0, 20.0))

    def test_empty_window_narrower_than_dt_after_the_grid_names_t_end(self):
        # narrower than the step, but after the trace's end: a finer dt cannot help
        times = np.arange(0.0, 5.0, 0.1)
        message = (
            f"window-min 10.0 to window-max 10.01 holds none of the 50 grid samples, "
            f"t = 0.0 to {times[-1]}; raise --t-end into the window"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            analyze_trace(_synthetic_trace(times, np.sin(times)), 0.0, (10.0, 10.01))

    @pytest.mark.parametrize(
        "params", [QuenchProtocol(1.25, 0.3, 0.6, 20), IsingParams(0.8, 0.7, 20)], ids=["xy", "ising"]
    )
    def test_uncharged_window_says_no_charging(self, params):
        # [0, 0.005] holds only t = 0, where nothing is stored yet
        trace = energy_trace(params, 20.0, 0.01)
        with pytest.raises(RegimeDetectionError, match="no charging occurred in the recurrence"):
            analyze_trace(trace, 0.0, (0.0, 0.005))


def _fold(k):
    """The mirror-pair representative min(k, 2 pi - k) of a momentum in [0, 2 pi)."""
    return min(k, 2 * math.pi - k)


class TestOccupationSnapshot:
    def test_null_quench_all_zero(self):
        rows = occupation_snapshot(QuenchProtocol(1.1, 0.2, 0.0, 30), 5.0)
        assert len(rows) == 30
        assert all(abs(n2) <= 1e-12 for _, n2 in rows)

    def test_momentum_grid(self):
        rows = occupation_snapshot(QuenchProtocol(1.1, 0.2, 0.8, 24), 3.0)
        ks = [k for k, _ in rows]
        assert ks == sorted(ks)
        assert ks[0] == pytest.approx(2 * math.pi * 0.5 / 24, abs=1e-12)
        assert ks[-1] == pytest.approx(2 * math.pi * 23.5 / 24, abs=1e-12)

    def test_flat_band_charging_concentrates_at_half_pi(self):
        # charging at delta0 + delta1 = 1: filled modes cluster around
        # k = pi/2 and its mirror 2 pi - pi/2, whose peaks tie to rounding, so
        # the peak's k is folded into [0, pi] first
        protocol = QuenchProtocol(1.1, 0.2, 0.8, 300)
        rows = occupation_snapshot(protocol, 730.0)
        k_peak = max(rows, key=lambda kn: kn[1])[0]
        assert abs(_fold(k_peak) - math.pi / 2) < 0.35

    @pytest.mark.parametrize("k", [math.pi - 0.01, math.pi + 0.01, 0.01, 2 * math.pi - 0.01])
    def test_folding_keeps_zone_edge_and_center_peaks_out(self, k):
        assert abs(_fold(k) - math.pi / 2) >= 0.35

    def test_critical_charging_fills_zone_edge(self):
        # delta0 + delta1 = gamma: gap closes at k = pi and occupation
        # approaches one there
        protocol = QuenchProtocol(1.1, 0.3, 0.8, 300)
        rows = occupation_snapshot(protocol, 722.0)
        near_edge = [n2 for k, n2 in rows if abs(k - math.pi) < 0.15]
        assert max(near_edge) > 0.9

    def test_critical_charging_fills_zone_center(self):
        # gamma (delta0 + delta1) = 1: gap closes at k = 0 instead
        protocol = QuenchProtocol(1.1, 1.0 / 1.1 - 0.8, 0.8, 300)
        rows = occupation_snapshot(protocol, 794.0)
        near_zero = [n2 for k, n2 in rows if k < 0.15]
        assert max(near_zero) > 0.9


class TestSweeps:
    def test_rows_ordered_and_normalized(self):
        grid = [0.18, 0.2, 0.22]
        rows = sweep_delta0(1.1, 0.8, 40, grid, workers=1)
        assert [r.param for r in rows] == grid
        for r in rows:
            assert r.e_s_per > 0 and r.e_r_per > 0 and r.e_inf_per > 0
            assert r.tau_s < r.tau_r

    def test_worker_count_does_not_change_results(self):
        grid = [0.15, 0.2, 0.25]
        serial = sweep_delta0(1.1, 0.8, 30, grid, workers=1)
        parallel = sweep_delta0(1.1, 0.8, 30, grid, workers=3)
        assert serial == parallel

    def test_the_supplier_alone_checks_the_grid(self):
        # QuenchProtocol's delta0 >= 0, as for a trace: zero is a grid value
        with pytest.raises(ValueError, match="delta0 must be >= 0, got -0.1"):
            sweep_delta0(1.1, 0.8, 30, [-0.1, 0.1])
        assert sweep_delta0(1.1, 0.8, 30, [0.0])[0].param == 0.0

    def test_ising_sweep_rows(self):
        rows = sweep_field(0.25, 60, [0.7, 0.75, 0.8], workers=1)
        assert [r.param for r in rows] == [0.7, 0.75, 0.8]
        assert all(r.e_inf_per > 0 for r in rows)

    def test_ising_worker_count_does_not_change_results(self):
        grid = [0.7, 0.75, 0.8]
        assert sweep_field(0.25, 60, grid, workers=1) == sweep_field(0.25, 60, grid, workers=2)

    @pytest.mark.parametrize("window", [(-5.0, 10.0), (20.0, 20.0), (30.0, 20.0)])
    def test_bad_window_rejected_before_any_row(self, monkeypatch, window):
        monkeypatch.setattr(regimes, "_regime_point", lambda *job: pytest.fail("row evaluated"))
        with pytest.raises(ValueError, match="0 <= window-min < window-max"):
            sweep_delta0(1.1, 0.8, 10, [0.2], window=window)

    def test_one_sided_window_keeps_the_default_side(self):
        # n_dimers = 10: [20, 26.67]; n_sites = 40: [18.67, 23.33]
        xy_high = default_recurrence_window(10)[1]
        assert sweep_delta0(1.1, 0.8, 10, [0.2], window=(15.0, None)) == sweep_delta0(
            1.1, 0.8, 10, [0.2], window=(15.0, xy_high)
        )
        ising_low = ising_recurrence_window(40)[0]
        assert sweep_field(0.25, 40, [0.7], window=(None, 21.0)) == sweep_field(
            0.25, 40, [0.7], window=(ising_low, 21.0)
        )
        assert sweep_field(0.25, 40, [0.7], window=(None, None)) == sweep_field(0.25, 40, [0.7])

    def test_null_quench_rows_say_no_charging(self):
        with pytest.raises(RegimeDetectionError, match="no charging occurred"):
            sweep_delta0(1.1, 0.0, 10, [0.2])
        with pytest.raises(RegimeDetectionError, match="no charging occurred"):
            sweep_field(0.0, 40, [0.7])

    def test_worker_budget_keeps_rows_and_warnings(self):
        # delta0 = 0.1 puts the recurrence maximum on the edge of [80, 100] at
        # 40 dimers and 0.05 does not: two workers give the caller the same
        # rows and the same window-edge warnings, in row order, as one.
        seen = []
        for workers in (1, 2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rows = sweep_delta0(1.1, 0.8, 40, [0.1, 0.05, 0.1], workers=workers,
                                    window=(80.0, 100.0))
            seen.append((rows, [(w.category, str(w.message)) for w in caught]))
        assert seen[0] == seen[1]
        assert [category for category, _ in seen[0][1]] == [RecurrenceWindowWarning] * 2

    def test_workers_change_no_engine_call(self, monkeypatch):
        # every exact-sum call of the row (the window samples it settles) sees
        # the same times and returns the same bits under any worker budget
        kernel = regimes._exact_energy
        calls = {}
        for workers in (None, 1, 2):
            seen = calls[workers] = []

            def recorded(times, amp, freq, _seen=seen):
                values = kernel(times, amp, freq)
                _seen.append((times.tobytes(), values.tobytes()))
                return values

            monkeypatch.setattr(regimes, "_exact_energy", recorded)
            sweep_delta0(1.1, 0.8, 20, [0.2], workers=workers)
        assert len(calls[None]) == 1
        assert calls[None] == calls[1] == calls[2]

    def test_rows_do_not_depend_on_workers(self):
        # delta0 = 0.2 is the flat-band point delta0 + delta1 = 1 of the Fig-3
        # line, whose window holds maxima equal up to their last bits
        rows = [repr(sweep_delta0(1.1, 0.8, 300, [0.15, 0.2], workers=w)) for w in (None, 1, 2)]
        assert 0.2 + 0.8 == 1.0
        assert rows[0] == rows[1] == rows[2]


class TestScalingStudy:
    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            scaling_study(1.25, 0.3, 0.6, [4, 50])

    def test_a_fractional_size_is_rejected_before_any_row(self, monkeypatch):
        # int() would run 5 dimers; the supplier's own check names the size given
        monkeypatch.setattr(regimes, "_regime_point", lambda *args: pytest.fail("row ran"))
        with pytest.raises(ValueError, match=re.escape("n_dimers must be an integer >= 2, got 5.7")):
            scaling_study(1.25, 0.3, 0.6, [5.7, 6])

    def test_an_infinite_size_is_rejected_naming_the_field(self, monkeypatch):
        # int(inf) would raise OverflowError, outside the ValueError callers catch
        monkeypatch.setattr(regimes, "_regime_point", lambda *args: pytest.fail("row ran"))
        with pytest.raises(ValueError, match="n_dimers must be finite, got inf"):
            scaling_study(1.25, 0.3, 0.6, [float("inf"), 6])

    def test_whole_float_sizes_give_the_integer_sizes_rows(self):
        rows = scaling_study(1.25, 0.3, 0.6, [6.0, 8.0])
        assert repr(rows) == repr(scaling_study(1.25, 0.3, 0.6, [6, 8]))
        assert [type(r.n_dimers) for r in rows] == [int, int]

    def test_rows_and_recurrence_growth(self):
        rows = scaling_study(1.25, 0.3, 0.6, [20, 40], workers=1)
        assert [r.n_dimers for r in rows] == [20, 40]
        # tau_r roughly doubles when the chain doubles
        ratio = rows[1].tau_r / rows[0].tau_r
        assert 1.7 < ratio < 2.3
        # short-time and asymptotic densities are already size converged
        assert rows[0].e_inf_per == pytest.approx(rows[1].e_inf_per, rel=1e-3)

    def test_rows_do_not_depend_on_workers(self):
        rows = [repr(scaling_study(1.25, 0.3, 0.6, [20, 30], workers=w)) for w in (None, 1, 2)]
        assert rows[0] == rows[1] == rows[2]

    def test_rows_are_sweep_rows(self):
        # one row path: a scaling row is the one-point delta0 sweep at its size
        rows = scaling_study(1.25, 0.3, 0.6, [20, 30])
        for row in rows:
            (sweep,) = sweep_delta0(1.25, 0.6, row.n_dimers, [0.3])
            assert (row.e_s_per, row.e_r_per, row.e_inf_per, row.tau_r) == (
                sweep.e_s_per, sweep.e_r_per, sweep.e_inf_per, sweep.tau_r
            )

    def test_first_maximum_time_does_not_grow_with_size(self):
        taus = []
        for n_dimers in (20, 40):
            protocol = QuenchProtocol(1.25, 0.3, 0.6, n_dimers)
            dt = DT_SAFETY * resolution_bound(protocol)
            trace = energy_trace(protocol, 50.0, dt)
            taus.append(find_short_time_max(trace)[0])
        assert taus[1] == pytest.approx(taus[0], rel=0.05)


class TestLinearFit:
    def test_exact_line(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        slope, intercept, r2 = linear_fit(x, 3.5 * x - 1.0)
        assert slope == pytest.approx(3.5, abs=1e-12)
        assert intercept == pytest.approx(-1.0, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [[50.0], [50.0, 50.0]])
    def test_rejects_fewer_than_two_distinct_x(self, x):
        with pytest.raises(ValueError, match="two distinct x"):
            linear_fit(x, [1.0] * len(x))

    @pytest.mark.parametrize(
        "x, y, message",
        [
            ([1.0, 2.0, np.nan], [1.0, 2.0, 3.0], "x must be finite, got nan"),
            ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0], "y must be finite, got nan"),
            ([1.0, 2.0, np.inf], [1.0, 2.0, 3.0], "x must be finite, got inf"),
            ([1.0, 2.0, 3.0], [1.0, 2.0, -np.inf], "y must be finite, got -inf"),
            ([[1.0, 2.0]], [[1.0, 2.0]], "x must be a 1-D array, got shape (1, 2)"),
            ([1.0, 2.0], 3.0, "y must be a 1-D array, got shape ()"),
            ([1.0, 2.0], [1.0, 2.0, 3.0], "x and y must have equal lengths, got 2 and 3"),
        ],
    )
    def test_rejects_input_that_is_not_finite_1d_and_of_one_length(self, capfd, x, y, message):
        # a NaN once reached LAPACK, which printed to the process's stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(message)):
                linear_fit(x, y)
        assert capfd.readouterr().err == ""


class TestPlateauRobustness:
    @pytest.mark.parametrize("delta1", [0.5, 0.7, 0.9])
    def test_asymptotic_insensitive_to_charging_parameters(self, delta1):
        # For each quench amplitude, sweep the initial dimerization across
        # every choice whose charging point crosses exactly one critical
        # line (gamma * delta' = 1 here): the plateau density hardly moves,
        # the short-time peak moves a lot.  The asymptotic regime needs no
        # fine tuning of the charging parameters.
        gamma, n_dimers = 1.1, 120
        lo = 1.0 / gamma - delta1
        hi = gamma - delta1
        e_inf, e_s = [], []
        for delta0 in np.linspace(lo + 0.02, hi - 0.02, 5):
            protocol = QuenchProtocol(gamma, float(delta0), delta1, n_dimers)
            assert gamma * protocol.delta0 < 1.0 < gamma * (protocol.delta0 + delta1)
            assert protocol.delta0 + delta1 < gamma
            e_inf.append(asymptotic_energy(protocol) / n_dimers)
            dt = DT_SAFETY * resolution_bound(protocol)
            times = dt * np.arange(int(50.0 / dt) + 1)
            values = energy_at_times(protocol, times)
            trace = EnergyTrace(times=times, values=values, protocol=protocol)
            _, peak = find_short_time_max(trace)
            e_s.append(peak / n_dimers)

        spread_inf = (max(e_inf) - min(e_inf)) / np.mean(e_inf)
        spread_s = (max(e_s) - min(e_s)) / np.mean(e_s)
        assert spread_inf < 0.10
        assert spread_s > spread_inf


def _full_grid_point(params, window):
    """The row of the whole grids: ``quench._exact_energy`` over the supplier's
    ``kernel_tables`` on every sample of the short span and of the window.
    The judge of the rows of both models."""
    bound = resolution_bound(params)
    dt = DT_SAFETY * bound

    def engine(params, times):
        return quench._exact_energy(*params.kernel_tables(times))

    short_times = quench._uniform_times(0.0, regimes.DEFAULT_SHORT_SPAN, dt, bound)
    short = EnergyTrace(times=short_times, values=engine(params, short_times), protocol=params)
    tau_s, e_s = find_short_time_max(short)
    win_times = quench._uniform_times(*window, dt, bound)
    span = regimes._window_span(win_times, window)
    values = engine(params, win_times)
    tau_r, e_r, on_edge = regimes._windowed_argmax(win_times, values, params, *span)
    return tau_s, e_s, asymptotic_energy(params), tau_r, e_r, on_edge


def _row(point, params):
    """``point``'s row of ``params`` in its default window, or its RegimeDetectionError's text."""
    window = regimes._recurrence_window(None, params)
    try:
        return point(params, window)
    except RegimeDetectionError as exc:
        return str(exc)


def _random_xy(seed):
    rng = np.random.default_rng(seed)
    return QuenchProtocol(
        float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.01, 1.0)),
        float(rng.uniform(0.05, 1.0)), int(rng.integers(5, 61)),
    )


def _random_ising(seed):
    rng = np.random.default_rng(seed)
    return IsingParams(
        float(rng.uniform(-1.5, 1.5)), float(rng.uniform(-1.0, 1.0)), int(rng.integers(4, 121))
    )


# the seed-0 sweep-xy rows of the benchmark: the Fig-3 line at 300 dimers,
# delta0 = 0.05 (its maximum on the window edge) to 0.4, with the tied
# flat-band row delta0 = 0.2
SWEEP_XY_ROWS = [QuenchProtocol(1.1, 0.05 + i * 0.05, 0.8, 300) for i in range(8)]
SCALING_ROWS = [QuenchProtocol(1.25, 0.3, 0.6, n) for n in (50, 100, 200, 300)]

# XY: gamma (delta0 + delta1) = 1, delta0 + delta1 = gamma, delta1 = 0, n = 2
# and odd n; Ising: h0 + h1 = 1 and -1, h1 = 0, N = 2 and odd N.  Dyadic
# parameters land exactly on the critical lines.
SCREEN_CASES = [
    QuenchProtocol(2.0, 0.25, 0.25, 40),
    QuenchProtocol(0.75, 0.25, 0.5, 40),
    QuenchProtocol(1.25, 0.3, 0.0, 20),
    QuenchProtocol(1.25, 0.3, 0.6, 2),
    QuenchProtocol(1.1, 0.2, 0.8, 33),
    IsingParams(0.25, 0.75, 60),
    IsingParams(-0.5, -0.5, 60),
    IsingParams(0.8, 0.0, 30),
    IsingParams(0.8, 0.7, 2),
    IsingParams(0.3, 0.4, 45),
] + [_random_xy(seed) for seed in range(30)] + [_random_ising(seed) for seed in range(30)]


class TestScreenedRows:
    @pytest.mark.parametrize("params", SCREEN_CASES, ids=repr)
    @pytest.mark.parametrize("start", [0.0, 600.0, 3e4, 1e6])
    def test_screen_is_within_an_eighth_of_its_slack(self, params, start):
        # the window screen of _screened_values against the exact sum on a
        # window-like grid of the row's step, over the same tables
        bound = resolution_bound(params)
        times, amp, freq = params.kernel_tables(start + DT_SAFETY * bound * np.arange(1500))
        screen = quench._phase_block_sum(times, amp.ravel(), freq.ravel())
        engine = quench._exact_energy(times, amp, freq)
        slack = regimes._screen_slack(times[-1], amp, freq)
        assert np.max(np.abs(screen - engine)) <= slack / 8

    @pytest.mark.parametrize(
        "params",
        SWEEP_XY_ROWS + SCALING_ROWS + [_random_xy(seed) for seed in range(100, 112)]
        + [QuenchProtocol(1.1, 0.2, 0.0, 10)]
        + [IsingParams(h0, 0.25, 600) for h0 in (0.4, 0.6, 0.75, 0.9)]
        + [_random_ising(seed) for seed in range(100, 112)],
        ids=repr,
    )
    def test_rows_match_the_whole_grids(self, params):
        # one judge for both models: the window's (tau_r, e_r, on_edge) keep
        # the bits of the exact sum over the whole window, and the short span,
        # run on the phase-block kernel, its (tau_s, e_s) to rounding; a row
        # that fails (the XY null quench) fails with the same text
        got, expected = _row(regimes._regime_point, params), _row(_full_grid_point, params)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert repr(got[3:]) == repr(expected[3:])
            assert got[:3] == pytest.approx(expected[:3], rel=1e-12, abs=0.0)

    def test_the_null_quench_fails_as_before(self):
        params = QuenchProtocol(1.1, 0.2, 0.0, 10)
        assert _row(regimes._regime_point, params).startswith("no charging occurred")

    @pytest.mark.parametrize("wide", [1e6, math.inf])
    def test_a_wider_candidate_set_keeps_the_rows(self, monkeypatch, wide):
        # beta raised (inf: every window sample is a candidate) changes only
        # how many samples the exact sum evaluates: rows of both models keep
        # their bits
        rows = [SWEEP_XY_ROWS[0], SWEEP_XY_ROWS[3], SWEEP_XY_ROWS[5],
                QuenchProtocol(1.25, 0.3, 0.6, 41), IsingParams(0.6, 0.25, 600),
                IsingParams(0.3, 0.4, 45)]
        narrow = [_row(regimes._regime_point, p) for p in rows]
        slack = regimes._screen_slack
        monkeypatch.setattr(regimes, "_screen_slack", lambda *args: wide * slack(*args))
        assert repr([_row(regimes._regime_point, p) for p in rows]) == repr(narrow)

    def test_each_row_decomposes_its_charger_once(self, monkeypatch):
        # one table build feeds the screen and every engine call of the row
        calls = []
        bands = quench._bloch_bands
        monkeypatch.setattr(quench, "_bloch_bands", lambda *args: calls.append(args) or bands(*args))
        sweep_delta0(1.1, 0.8, 40, [0.1, 0.2, 0.3])
        assert calls == [(1.1, d0 + 0.8, 40) for d0 in (0.1, 0.2, 0.3)]

    def test_the_engine_sees_few_window_samples(self, monkeypatch):
        # the tied row's window holds 5,603 samples; the exact sum settles a
        # few dozen of them, in one call
        sizes = []
        kernel = regimes._exact_energy

        def counted(times, amp, freq):
            sizes.append(times.size)
            return kernel(times, amp, freq)

        monkeypatch.setattr(regimes, "_exact_energy", counted)
        sweep_delta0(1.1, 0.8, 300, [0.2])
        assert len(sizes) == 1 and sizes[0] < 64
