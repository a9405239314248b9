import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from spinbattery import QuenchProtocol, cli, energy_trace, quench, regimes, resolution_bound
from spinbattery.cli import deterministic_json, format_float, main
from spinbattery.ed import (
    DegenerateGroundStateWarning,
    DimerizedXY,
    TransverseIsing,
    check_oracle_size,
)


def run_cli(args):
    return main(list(args))


def _trace_grid(n_dimers, t_end):
    """The default ``trace`` protocol at ``n_dimers`` and its default grid up to ``t_end``."""
    defaults = cli._COMMANDS["trace"][2]
    protocol = QuenchProtocol(defaults["gamma"], defaults["delta0"], defaults["delta1"], n_dimers)
    dt = regimes.DT_SAFETY * resolution_bound(protocol)
    return protocol, quench._uniform_times(0.0, t_end, dt, np.inf)


class TestFormatting:
    def test_float_format_is_17_significant_digits(self):
        assert format_float(1.0) == "1.0000000000000000e+00"
        assert format_float(-0.3) == "-2.9999999999999999e-01"
        assert format_float(1.0 / 3.0) == "3.3333333333333331e-01"

    def test_csv_rows_write_format_floats_bytes(self):
        # one %-template per row writes what format_float and str write per cell
        floats = [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan, 1.0 / 3.0, -1e300]
        ints = list(range(-4, len(floats) - 4))
        columns = [tuple(ints), tuple(floats), tuple(np.float64(x) for x in floats[::-1])]
        expected = "a,b,c\n" + "".join(
            f"{i},{format_float(x)},{format_float(y)}\n" for i, x, y in zip(*columns)
        )
        assert cli._csv_text("a,b,c", columns) == expected
        assert "-0.0000000000000000e+00" in expected and "nan" in expected

    # a tie, values next to a power of ten (9.9999999999999999e16 reads as
    # 1e17, and log10 puts 9.999999999999999e22 one exponent high), powers of
    # ten, the fast path's range ends and the values just past them, the
    # extreme doubles, and the ties whose 10**k is inexact (j 2**-24 =
    # 5**23 j / 2 * 10**-23, and j 2**-25)
    EDGES = [
        1234567890123456.75, 9.9999999999999999e16, 9.999999999999999e22, 1e16, 1e17,
        1e-290, -1e-290, 1e290, -1e290, 5e-324, 1.7976931348623157e308,
        np.nextafter(1e-290, 0.0), np.nextafter(1e290, np.inf), 2.2250738585072014e-308,
        0.0, -0.0, 1.0, 0.1, 1e-5, 1e100, 1e-100, 123456789.0, 0.5, 2.0**53, 2.0**57,
        *(j * 2.0**-24 for j in range(3, 17, 2)), 2.0**-25, 3 * 2.0**-25,
    ]

    @pytest.mark.parametrize("x", EDGES + [-x for x in EDGES], ids=repr)
    def test_float_cells_write_format_bytes_at_the_edges(self, x):
        assert cli._table_text([[x]], "\n") == format(x, ".16e") + "\n"

    def test_float_cells_write_format_bytes_for_random_doubles(self):
        # 2**20 fixed-seed doubles: any bit pattern, and patterns with exponents
        # in 2**-70..2**70, where the trace's values sit; in chunks to bound memory
        rng = np.random.default_rng(20240214)
        for chunk in range(8):
            bits = rng.integers(0, 2**64, 2**17, dtype=np.uint64)
            if chunk % 2:
                exponent = rng.integers(1023 - 70, 1023 + 70, bits.size, dtype=np.uint64)
                bits = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | exponent << np.uint64(52)
            values = bits.view(np.float64).tolist()
            cells = cli._table_text([values], "\n").split("\n")[:-1]
            wrong = [(x, cell) for x, cell in zip(values, cells) if cell != format(x, ".16e")]
            assert len(cells) == len(values) and not wrong, wrong[:3]

    def test_only_ties_and_values_off_the_fast_path_call_format(self, monkeypatch):
        # the fast path's range is 1e-290 <= |x| <= 1e290, which leaves out
        # zeros; log10 puts 9.999999999999999e22 at E = 23, one too high
        calls = []
        monkeypatch.setattr(cli, "format_float", lambda x: calls.append(x) or format(x, ".16e"))
        ordinary = [1.0 / 3.0, -0.3, 314.15, 2.5e-17, 1e-290, -1e290, 1e16, 0.1]
        cli._table_text([ordinary], "\n")
        assert calls == []
        special = [1234567890123456.75, np.nan, np.inf, -np.inf, 5e-324, -1e291, 0.0,
                   9.999999999999999e22]
        cli._table_text([ordinary + special], "\n")
        assert calls[0] == special[0] and np.isnan(calls[1]) and calls[2:] == special[2:]

    def test_ties_hold_under_an_error_inside_the_tie_margin(self, monkeypatch):
        # ties within 2**-36 of one half go to format; a 10**k whose lo is off
        # by 2**-45 relative moves y by ~2**-42, far above the scaling's own
        # error, and the ties of an inexact 10**k (k = 23, 24) still come out exact
        pow10 = cli._pow10
        monkeypatch.setattr(cli, "_pow10", lambda lo, hi: pow10(lo, hi) * [1, 1, 1, 1 + 2**-45])
        ties = [j * 2.0**-24 for j in range(3, 17, 2)] + [2.0**-25, 3 * 2.0**-25]
        assert cli._table_text([ties], "\n") == "".join(format(x, ".16e") + "\n" for x in ties)

    def test_json_float_lists_write_the_cells(self):
        values = [0.1, -2.0, 5e-324, np.inf]
        assert deterministic_json(values) == "[" + ",".join(map(format_float, values)) + "]"
        assert deterministic_json((1.5,)) == "[1.5000000000000000e+00]"
        assert deterministic_json([1, 0.5, True]) == "[1,5.0000000000000000e-01,true]"
        assert deterministic_json([]) == "[]"

    def test_deterministic_json_sorted_and_typed(self):
        text = deterministic_json({"b": 1, "a": [0.5, None, True], "c": "x"})
        assert text == '{"a": [5.0000000000000000e-01,null,true],"b": 1,"c": "x"}'


class TestPhase:
    def test_region_one(self, capsys):
        assert run_cli(["phase", "1", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "region=1 ferromagnet-x"

    def test_region_four(self, capsys):
        assert run_cli(["phase", "0.25", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "region=4 dimer-antialigned-z"

    def test_critical(self, capsys):
        assert run_cli(["phase", "1.1", str(1.0 / 1.1)]) == 0
        assert capsys.readouterr().out.strip() == "region=critical critical-gamma-delta"

    def test_bad_gamma_exits_2(self, capsys):
        assert run_cli(["phase", "0", "0.5"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTrace:
    def test_writes_csv_and_report(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            ["trace", "--n-dimers", "40", "--t-end", "110", "--window-min", "80",
             "--window-max", "107", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,delta_e"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert abs(float(first[1])) < 1e-8
        report = json.loads((tmp_path / "trace.report.json").read_text())
        for key in ("tau_s", "e_s", "e_inf", "tau_r", "e_r", "power_s", "power_r"):
            assert key in report["report"]
        assert report["params"]["model"] == "xy"

    def test_json_format_single_file(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run_cli(
            ["trace", "--n-dimers", "30", "--t-end", "85", "--window-min", "60",
             "--window-max", "80", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"params", "trace", "report"}
        assert doc["trace"]["t"][0] == 0.0

    def test_null_quench_exits_3(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(["trace", "--n-dimers", "30", "--delta1", "0", "--out", str(out)])
        assert code == 3
        assert "no charging occurred" in capsys.readouterr().err
        # the zero trace is still written
        assert out.exists()
        assert not (tmp_path / "trace.report.json").exists()

    @pytest.mark.parametrize("args, out", [
        (["--n-dimers", "20", "--window-max", "0.01"], "trace.csv"),
        (["--model", "ising", "--n-sites", "20", "--window-max", "0.001"], "trace.csv"),
        (["--n-dimers", "20", "--window-max", "0.01", "--format", "json"], "trace.json"),
    ], ids=["xy", "ising", "json"])
    def test_uncharged_recurrence_window_exits_3(self, tmp_path, monkeypatch, capsys, args, out):
        # [0, window-max] holds only t = 0, where nothing is stored yet
        monkeypatch.chdir(tmp_path)
        assert run_cli(["trace", "--window-min", "0", "--t-end", "20", *args]) == 3
        assert "no charging occurred in the recurrence window" in capsys.readouterr().err
        # the trace is still written, with no report
        assert "report" not in (tmp_path / out).read_text()
        assert not (tmp_path / "trace.report.json").exists()

    def test_coarse_dt_exits_2_and_prints_bound(self, tmp_path, capsys):
        code = run_cli(
            ["trace", "--n-dimers", "30", "--dt", "5.0", "--out", str(tmp_path / "t.csv")]
        )
        assert code == 2
        assert "need dt <=" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["trace", "--t-end", "inf"], "t_end must be finite"),
            (["trace", "--delta0", "nan"], "delta0 must be finite"),
            (["trace", "--dt", "nan"], "dt must be finite"),
            (["trace", "--delta1", "inf"], "delta1 must be finite"),
            (["trace", "--model", "ising", "--h1", "nan"], "h1 must be finite"),
            (["oracle-check", "--dt", "0"], "dt and t_end must be positive"),
            (["phase", "1", "nan"], "delta must be finite"),
            (["phase", "1", "inf"], "delta must be finite"),
            (["phase", "inf", "0.5"], "gamma must be finite"),
            (["sweep", "--param-min", "0.1", "--param-max", "inf"], "param_max must be finite"),
            (["sweep", "--param-min", "nan", "--param-max", "0.2"], "param_min must be finite"),
            (["snapshot", "--time", "nan"], "time must be finite"),
            (["sweep", "--param-min", "0.1", "--param-max", "0.2", "--window-max", "nan"],
             "window_max must be finite"),
            (["oracle-check", "--tol", "nan"], "tol must be finite"),
            (["trace", "--dt", "1e-9", "--t-end", "1e3"], "dt=1e-09 puts more than"),
            (["sweep", "--param-min", "0.05", "--param-max", "0.4", "--param-step", "1e-12"],
             "param-step 1e-12 puts more than"),
            (["oracle-check", "--n-sites", "12", "--dt", "1e-4"],
             "500001 samples on the 12-site oracle"),
            (["scaling", "--n-list", "50"], "n-list needs two distinct sizes"),
            (["scaling", "--n-list", "50,50"], "n-list needs two distinct sizes"),
            (["trace", "--n-dimers", "1000001"], "n_dimers must be at most 1000000"),
            (["trace", "--model", "ising", "--n-sites", "1000001"],
             "n_sites must be at most 1000000"),
            (["phase", "1e200", "0.5"], "gamma must be at most 1e+06 in magnitude"),
            (["trace", "--gamma", "1e200", "--n-dimers", "10"],
             "gamma must be at most 1e+06 in magnitude"),
            (["trace", "--delta0", "1e200", "--n-dimers", "10"],
             "delta0 must be at most 1e+06 in magnitude"),
            (["trace", "--model", "ising", "--h0", "1e200", "--n-sites", "10"],
             "h0 must be at most 1e+06 in magnitude"),
            (["trace", "--model", "ising", "--h1", "1e300", "--n-sites", "10"],
             "h1 must be at most 1e+06 in magnitude"),
            (["oracle-check", "--gamma", "1e200"], "gamma must be at most 1e+06 in magnitude"),
            (["scaling", "--n-list", "50,abc"], "n-list must list integer sizes"),
            (["scaling", "--n-list", "50,100.5"], "n-list must list integer sizes"),
            (["trace", "--n-dimers", "20000"],
             "n_dimers=20000 x 1697653 samples exceeds the engine's work budget"),
            (["trace", "--delta0", "-0.1", "--n-dimers", "10"], "delta0 must be >= 0"),
            (["sweep", "--n-dimers", "10", "--param-min", "-0.1", "--param-max", "0"],
             "delta0 must be >= 0, got -0.1"),
            (["trace", "--delta0", "6e5", "--delta1", "6e5", "--n-dimers", "10"],
             "delta0 + delta1 must be at most 1e+06 in magnitude"),
            # the XY supplier runs n_sites // 2 dimers and is built before the spin chains
            (["oracle-check", "--n-sites", "1"], "n_dimers must be an integer >= 2, got 0"),
            (["oracle-check", "--n-sites", "2"], "n_dimers must be an integer >= 2, got 1"),
            (["oracle-check", "--n-sites", "3"], "n_dimers must be an integer >= 2, got 1"),
            (["oracle-check", "--model", "ising", "--n-sites", "1"],
             "n_sites must be an integer >= 2, got 1"),
            (["oracle-check", "--n-sites", "5"],
             "the dimerized XY chain needs an even number of sites, got 5"),
            (["oracle-check", "--n-sites", "15"], "n_sites must be an integer in [2, 14], got 15"),
            (["snapshot", "--n-dimers", "10", "--time", "1e308"],
             "t must be finite and at most 1e+100 in magnitude"),
            (["oracle-check", "--t-end", "1e308", "--dt", "1e307"],
             "times must be finite and at most 1e+100 in magnitude"),
            (["sweep", "--n-dimers", "10", "--param-min", "0.2", "--param-max", "0.2",
              "--window-min", "-5"], "0 <= window-min < window-max"),
            (["trace", "--n-dimers", "10", "--window-min", "-5"], "0 <= window-min < window-max"),
            (["trace", "--n-dimers", "10", "--window-min", "30", "--window-max", "20"],
             "0 <= window-min < window-max"),
            (["oracle-check", "--tol", "-1"], "tol must be >= 0, got -1.0"),
            (["trace", "--format", "xml"], "format must be one of ['csv', 'json'], got 'xml'"),
            (["trace", "--model", "foo"], "model must be one of ['ising', 'xy'], got 'foo'"),
            (["sweep", "--workers", "0"], "workers must be >= 1"),
            (["sweep", "--param-min", "0.1", "--param-max", "0.2", "--param-step", "0"],
             "param-step must be positive, got 0.0"),
        ],
    )
    def test_bad_number_exits_2_and_names_it(self, capsys, args, message):
        assert run_cli(args) == 2
        assert message in capsys.readouterr().err

    def test_t_end_before_the_window_exits_2_before_the_trace(self, monkeypatch, capsys):
        # n_dimers = 10: the default recurrence window is [20, 26.67], the grid ends near 5
        monkeypatch.setattr(regimes, "_energy", lambda *args: pytest.fail("trace built"))
        assert run_cli(["trace", "--n-dimers", "10", "--t-end", "5"]) == 2
        err = capsys.readouterr().err
        high = regimes.default_recurrence_window(10)[1]
        assert f"window-min 20.0 to window-max {high} holds none of the" in err
        assert f"t = 0.0 to {_trace_grid(10, 5.0)[1][-1]};" in err
        assert err.endswith("; raise --t-end into the window\n")  # a finer dt cannot help

    def test_t_end_before_a_window_narrower_than_dt_names_t_end(self, monkeypatch, capsys):
        # the window is narrower than dt, but the grid ends near 5: only a later
        # end can reach it
        monkeypatch.setattr(regimes, "_energy", lambda *args: pytest.fail("trace built"))
        args = ["trace", "--n-dimers", "10", "--t-end", "5",
                "--window-min", "20", "--window-max", "20.00001"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "window-min 20.0 to window-max 20.00001 holds none of the" in err
        assert f"t = 0.0 to {_trace_grid(10, 5.0)[1][-1]};" in err
        assert err.endswith("; raise --t-end into the window\n")

    def test_window_between_samples_exits_2_before_the_trace(self, monkeypatch, capsys):
        # the default step (~0.0315 at 10 dimers) puts no sample in [20, 20.001]
        monkeypatch.setattr(regimes, "_energy", lambda *args: pytest.fail("trace built"))
        args = ["trace", "--n-dimers", "10", "--window-min", "20", "--window-max", "20.001"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert "window-min 20.0 to window-max 20.001 holds none of the" in err
        assert f"t = 0.0 to {_trace_grid(10, 20.001)[1][-1]};" in err
        assert err.endswith("; widen the window or lower dt\n")  # narrower than dt

    def test_trace_and_analyze_trace_reject_an_empty_window_alike(self, capsys):
        # one rule, regimes._window_span, decides for the command before the
        # engine runs and for the library on a finished trace
        args = ["trace", "--n-dimers", "10", "--window-min", "20", "--window-max", "20.001"]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        protocol, times = _trace_grid(10, 20.001)  # t-end defaults to window-max
        trace = energy_trace(protocol, 20.001, times[1])
        assert np.array_equal(trace.times, times)
        with pytest.raises(ValueError) as info:
            regimes.analyze_trace(trace, 0.0, (20.0, 20.001))
        assert err == f"error: {info.value}\n"

    @pytest.mark.parametrize("t_end, verdict", [
        ("0.001", "no charging occurred: no sample above noise floor 4e-10"),
        ("0.5", "no local maximum found: trace is monotone or flat"),
    ], ids=["one-sample", "rising"])
    def test_short_trace_verdict_names_its_span(self, tmp_path, capsys, t_end, verdict):
        # the protocol charges, but the grid ({0} at t-end 0.001) ends before its first maximum
        args = ["trace", "--n-dimers", "4", "--window-min", "0", "--window-max", "0.001",
                "--t-end", t_end, "--out", str(tmp_path / "t.csv")]
        assert run_cli(args) == 3
        last = _trace_grid(4, float(t_end))[1][-1]
        assert f"{verdict} over its span [0.0, {last}]" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [("20", "20.03"), ("19.99", "20")])
    def test_window_edge_on_a_grid_point_is_accepted(self, tmp_path, window):
        # dt = 1/16 puts the sample 320 dt = 20.0 exactly on one window edge
        args = ["trace", "--n-dimers", "10", "--dt", "0.0625", "--window-min", window[0],
                "--window-max", window[1], "--out", str(tmp_path / "t.csv")]
        with pytest.warns(regimes.RecurrenceWindowWarning):
            assert run_cli(args) == 0
        report = json.loads((tmp_path / "t.report.json").read_text())
        assert report["report"]["tau_r"] == 20.0

    def test_one_window_flag_keeps_the_other_default_side(self, tmp_path):
        # n_dimers = 10: the default recurrence window is [20, 26.67]
        low, high = (repr(edge) for edge in regimes.default_recurrence_window(10))

        def outputs(*window):
            out = tmp_path / "t.csv"
            assert run_cli(["trace", "--n-dimers", "10", "--out", str(out), *window]) == 0
            return out.read_text(), (tmp_path / "t.report.json").read_text()

        assert outputs("--window-min", "22") == outputs("--window-min", "22", "--window-max", high)
        assert outputs("--window-max", "25") == outputs("--window-min", low, "--window-max", "25")
        assert outputs("--window-max", "25") != outputs()

    def test_ising_model_trace(self, tmp_path):
        out = tmp_path / "ising.csv"
        code = run_cli(
            ["trace", "--model", "ising", "--n-sites", "80", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((tmp_path / "ising.report.json").read_text())
        assert report["params"]["model"] == "ising"
        window = report["report"]["window_r"]
        assert window[0] == pytest.approx(80 * 7.0 / 15.0)


class TestSweep:
    def test_small_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--n-dimers", "24", "--param-min", "0.18", "--param-max", "0.22",
             "--param-step", "0.02", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "param,e_s_per,e_r_per,e_inf_per,tau_s,tau_r"
        params = [float(row.split(",")[0]) for row in lines[1:]]
        assert params == sorted(params)
        assert len(params) == 3

    @pytest.mark.parametrize("args, params", [
        (["--gamma", "1.2", "--delta1", "0.7", "--n-dimers", "20"],
         {"model": "xy", "gamma": 1.2, "delta1": 0.7, "n_dimers": 20}),
        (["--model", "ising", "--h1", "0.3", "--n-sites", "40"],
         {"model": "ising", "h1": 0.3, "n_sites": 40}),
    ], ids=["xy", "ising"])
    def test_json_params_hold_the_fields_that_stay_fixed(self, tmp_path, args, params):
        # the supplier's fields less the swept one, with the values given
        out = tmp_path / "s.json"
        assert run_cli(["sweep", *args, "--param-min", "0.5", "--param-max", "0.5",
                        "--format", "json", "--out", str(out)]) == 0
        written = json.loads(out.read_text())["params"]
        assert written == params
        assert {k: type(v) for k, v in written.items()} == {k: type(v) for k, v in params.items()}

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["sweep", "--n-dimers", "24", "--param-min", "0.5", "--param-max", "0.1",
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2

    def test_missing_grid_exits_2(self, tmp_path):
        assert run_cli(["sweep", "--out", str(tmp_path / "s.csv")]) == 2

    def test_one_window_flag_keeps_the_other_default_side(self, tmp_path):
        # n_dimers = 24: the default recurrence window is [48, 64].
        def rows(*window):
            out = tmp_path / "s.csv"
            assert run_cli(
                ["sweep", "--n-dimers", "24", "--param-min", "0.18", "--param-max", "0.2",
                 "--param-step", "0.02", "--out", str(out), *window]
            ) == 0
            return out.read_text()

        assert rows("--window-min", "30") == rows("--window-min", "30", "--window-max", "64")
        assert rows("--window-min", "30") != rows()
        assert rows("--window-max", "56") == rows("--window-min", "48", "--window-max", "56")
        assert rows("--window-max", "56") != rows()

    def test_one_ising_window_flag_keeps_the_other_default_side(self, tmp_path):
        # n_sites = 60: the default recurrence window is [28, 35], whose maxima
        # lie at t = 31.3 and 30.8, so a window ending at 30 must move both rows
        low, high = (repr(edge) for edge in regimes.ising_recurrence_window(60))

        def rows(*window):
            out = tmp_path / "s.csv"
            assert run_cli(
                ["sweep", "--model", "ising", "--n-sites", "60", "--param-min", "0.7",
                 "--param-max", "0.75", "--param-step", "0.05", "--out", str(out), *window]
            ) == 0
            return out.read_text()

        assert rows("--window-min", "25") == rows("--window-min", "25", "--window-max", high)
        assert rows("--window-min", "25") != rows()
        assert rows("--window-max", "30") == rows("--window-min", low, "--window-max", "30")
        assert rows("--window-max", "30") != rows()

    def test_null_quench_exits_3_and_says_no_charging(self, tmp_path, capsys):
        code = run_cli(
            ["sweep", "--n-dimers", "20", "--delta1", "0", "--param-min", "0.2",
             "--param-max", "0.2", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 3
        assert "no charging occurred" in capsys.readouterr().err

    @pytest.mark.parametrize("window, interval", [
        (("--window-min", "1e300", "--window-max", "1e301"), "[1e+300, 1e+301]"),
        (("--window-max", "1e9"), "[10.0, 1000000000.0]"),
    ], ids=["huge", "default-min"])
    def test_window_grid_error_names_the_window(self, tmp_path, capsys, window, interval):
        # the row's window grid starts at window-min, so its error names the window
        code = run_cli(
            ["sweep", "--n-dimers", "5", "--param-min", "0.1", "--param-max", "0.1", *window,
             "--out", str(tmp_path / "s.csv")]
        )
        assert code == 2
        assert f"samples on {interval}; raise dt" in capsys.readouterr().err

    def test_uncharged_recurrence_window_exits_3(self, tmp_path, capsys):
        # [0, 0.001] holds only t = 0; the row used to read tau_r = 0, e_r_per = 5e-32
        code = run_cli(
            ["sweep", "--n-dimers", "5", "--param-min", "0.1", "--param-max", "0.1",
             "--window-min", "0", "--window-max", "0.001", "--out", str(tmp_path / "s.csv")]
        )
        assert code == 3
        assert "no charging occurred in the recurrence window" in capsys.readouterr().err


@pytest.mark.parametrize(
    "model, size, param, value, rel",
    [
        (("--gamma", "1.1", "--delta1", "0.8"), ("--n-dimers", "60"), "--delta0", "0", 1e-12),
        (("--gamma", "1.1", "--delta1", "0.8"), ("--n-dimers", "60"), "--delta0", "0.1", 1e-12),
        (("--gamma", "1.1", "--delta1", "0.8"), ("--n-dimers", "60"), "--delta0", "0.3", 1e-12),
        (("--model", "ising", "--h1", "0.25"), ("--n-sites", "120"), "--h0", "0.5", 1e-12),
        (("--model", "ising", "--h1", "0.25"), ("--n-sites", "120"), "--h0", "0.76", 1e-12),
    ],
    ids=["xy-0", "xy-0.1", "xy-0.3", "ising-0.5", "ising-0.76"],
)
def test_trace_and_a_one_point_sweep_report_the_same_row(tmp_path, model, size, param, value, rel):
    # both sample the short span on {0, dt, 2 dt, ...} with the same dt and
    # take E^inf from the same asymptote.  A trace runs phase blocks over its
    # whole grid and a sweep row over segments of the short span, so both
    # models agree to rounding.  (tau_r, e_r) are sampled on different grids
    # and are not compared.
    assert run_cli(["trace", *model, *size, param, value, "--out", str(tmp_path / "t.csv")]) == 0
    report = json.loads((tmp_path / "t.report.json").read_text())["report"]
    out = tmp_path / "s.csv"
    assert run_cli(["sweep", *model, *size, "--param-min", value, "--param-max", value,
                    "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    swept = dict(zip(header.split(","), map(float, row.split(","))))
    n = int(size[1])
    pairs = [(report["tau_s"], swept["tau_s"]), (report["e_s"] / n, swept["e_s_per"]),
             (report["e_inf"] / n, swept["e_inf_per"])]
    for traced, sweep in pairs:
        assert abs(traced - sweep) <= rel * abs(traced)


@pytest.mark.parametrize(
    "args, keys, sidecar",
    [
        (["trace", "--n-dimers", "30", "--t-end", "85", "--window-min", "60",
          "--window-max", "80"], {"params", "trace", "report"}, True),
        (["sweep", "--n-dimers", "20", "--param-min", "0.15", "--param-max", "0.2",
          "--param-step", "0.05"], {"params", "rows"}, False),
        (["scaling", "--n-list", "10,20"], {"rows", "tau_r_fit"}, True),
        (["snapshot", "--n-dimers", "16", "--time", "3.0"], {"params", "rows"}, False),
    ],
    ids=["trace", "sweep", "scaling", "snapshot"],
)
def test_csv_and_json_carry_the_same_numbers(tmp_path, monkeypatch, args, keys, sidecar):
    monkeypatch.chdir(tmp_path)
    stem = args[0]
    report = tmp_path / f"{stem}.report.json"
    assert run_cli(args + ["--format", "json"]) == 0
    assert not report.exists()
    doc = json.loads((tmp_path / f"{stem}.json").read_text())
    assert set(doc) == keys
    assert run_cli(args) == 0
    header, *lines = (tmp_path / f"{stem}.csv").read_text().splitlines()
    names = header.split(",")
    csv_columns = [[float(v) for v in col] for col in zip(*(line.split(",") for line in lines))]
    table = "trace" if "trace" in doc else "rows"
    if table == "trace":
        json_columns = [doc["trace"][name] for name in names]
    else:
        json_columns = [[row[name] for row in doc["rows"]] for name in names]
    assert csv_columns == json_columns
    assert report.exists() == sidecar
    if sidecar:
        assert json.loads(report.read_text()) == {k: v for k, v in doc.items() if k != table}


class TestScaling:
    def test_small_scaling_run(self, tmp_path, capsys):
        out = tmp_path / "scaling.csv"
        code = run_cli(["scaling", "--n-list", "10,20", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_dimers,e_s_per,e_r_per,e_inf_per,tau_r"
        assert len(lines) == 3
        assert "tau_r linear fit" in capsys.readouterr().out
        fit = json.loads((tmp_path / "scaling.report.json").read_text())
        assert fit["tau_r_fit"]["slope"] > 0


class TestSnapshot:
    def test_requires_time(self, tmp_path):
        assert run_cli(["snapshot", "--out", str(tmp_path / "s.csv")]) == 2

    def test_writes_profile(self, tmp_path):
        out = tmp_path / "snap.csv"
        code = run_cli(
            ["snapshot", "--n-dimers", "16", "--time", "3.0", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,n2"
        assert len(lines) == 17


class TestOracleCheck:
    def test_xy_default_passes(self, capsys):
        assert run_cli(["oracle-check", "--t-end", "20"]) == 0
        assert "max deviation" in capsys.readouterr().out

    def test_ising_passes(self, capsys):
        assert run_cli(["oracle-check", "--model", "ising", "--n-sites", "6",
                        "--t-end", "20"]) == 0

    def test_impossible_tolerance_exits_4(self):
        assert run_cli(["oracle-check", "--t-end", "5", "--tol", "1e-18"]) == 4

    def test_tolerance_is_relative_to_the_trace_scale(self, capsys):
        # energies near 1e3 carry a float64 rounding deviation of a few 1e-8,
        # above the absolute tol, which passes tol x max|dE|; a zero
        # tolerance still fails
        assert run_cli(["oracle-check", "--gamma", "1000"]) == 0
        printed = re.search(r"max deviation = (\S+) \(tolerance (\S+)\)", capsys.readouterr().out)
        deviation, tol = map(float, printed.groups())
        assert tol == 1e-8 < deviation
        assert run_cli(["oracle-check", "--gamma", "1000", "--tol", "0"]) == 4

    def test_odd_sites_xy_exits_2(self):
        assert run_cli(["oracle-check", "--n-sites", "5"]) == 2

    def test_degenerate_even_sector_exits_3(self, capsys):
        # odd Ising rings at h0 > 0 have a doubly degenerate even-sector
        # ground state, so the oracle has no unique initial state
        assert run_cli(["oracle-check", "--model", "ising", "--n-sites", "5"]) == 3
        captured = capsys.readouterr()
        assert "even-sector ground state degenerate" in captured.err
        assert "max deviation" not in captured.out

    def test_odd_sites_with_unique_ground_state_passes(self):
        assert run_cli(["oracle-check", "--model", "ising", "--n-sites", "5",
                        "--h0", "-2.5", "--h1", "0.3"]) == 0

    def test_fourteen_sites_fit_and_fifteen_exit_2(self, capsys):
        # the budget alone is checked at 14 sites: no 14-site evolution runs
        for kind in (DimerizedXY(1.25, 0.3), TransverseIsing(0.8)):
            check_oracle_size(kind, 14, 501)
        assert run_cli(["oracle-check", "--model", "ising", "--n-sites", "15"]) == 2
        assert "n_sites must be an integer in [2, 14], got 15" in capsys.readouterr().err

    def test_even_odd_degeneracy_only_warns(self):
        # at h0 = 0 the even and odd sector minima coincide, but the even
        # ground state itself is unique: a warning, and the check still runs
        with pytest.warns(DegenerateGroundStateWarning, match="even and odd"):
            code = run_cli(["oracle-check", "--model", "ising", "--n-sites", "4",
                            "--h0", "0", "--h1", "0.5", "--t-end", "5"])
        assert code == 0


@pytest.mark.parametrize(
    "args",
    [
        ["trace", "--model", "ising", "--n-sites", "5", "--h0", "-1", "--h1", "0.5"],
        ["oracle-check", "--model", "ising", "--n-sites", "5", "--h0", "-1.5", "--h1", "0.5"],
        ["sweep", "--model", "ising", "--n-sites", "7", "--h1", "0.5",
         "--param-min", "-1.5", "--param-max", "-1.5"],
    ],
    ids=["trace", "oracle-check", "sweep"],
)
def test_odd_ising_ring_with_a_vanishing_zone_edge_mode(tmp_path, monkeypatch, capsys, args):
    # odd N has the mode k = pi, whose dispersion vanishes at h0 = -1 or
    # h0 + h1 = -1; the quench does not couple it, so every command runs
    monkeypatch.chdir(tmp_path)
    out = [] if args[0] == "oracle-check" else ["--out", str(tmp_path / "out.csv")]
    assert run_cli(args + out) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["1", "2"])
def test_warnings_print_one_line_without_source_location(tmp_path, workers):
    # the recurrence maximum of this sweep sits on the window edge; with
    # either worker budget the caller warns once the rows are computed
    path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
    proc = subprocess.run(
        [sys.executable, "-m", "spinbattery.cli", "sweep", "--n-dimers", "40",
         "--param-min", "0.05", "--param-max", "0.1", "--param-step", "0.05",
         "--window-min", "80", "--window-max", "100", "--workers", workers],
        cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stderr.startswith("warning: RecurrenceWindowWarning: recurrence maximum")
    assert ".py:" not in proc.stderr
    assert all(line.startswith("warning: ") for line in proc.stderr.splitlines())


def test_sweep_prints_one_line_per_window_edge_row(tmp_path):
    # rows 0 and 2 (delta0 = 0.1) sit on the edge of [80, 100] at 40 dimers,
    # row 1 does not; the default warning filter prints both edge rows
    path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
    script = (
        "from spinbattery import sweep_delta0\n"
        "sweep_delta0(1.1, 0.8, 40, [0.1, 0.05, 0.1], window=(80.0, 100.0))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    lines = [line for line in proc.stderr.splitlines() if "RecurrenceWindowWarning" in line]
    assert len(lines) == 2
    assert "row 0 (delta0 = 0.1)" in lines[0] and "row 2 (delta0 = 0.1)" in lines[1]


class TestConfigFile:
    def test_retired_t_short_exits_2(self, tmp_path, capsys):
        # the first-maximum search span is fixed; neither a flag nor a key sets it
        with pytest.raises(SystemExit) as exc:
            run_cli(["scaling", "--t-short", "50"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --t-short" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t-short = 50\n")
        assert run_cli(["sweep", "--config", str(cfg), "--param-min", "0.1",
                        "--param-max", "0.2", "--out", str(tmp_path / "s.csv")]) == 2
        assert "unknown config keys: t_short" in capsys.readouterr().err

    def test_config_provides_values_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "n-dimers = 16\n"
            "time = 2.0\n"
        )
        out = tmp_path / "snap.csv"
        code = run_cli(["snapshot", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 17
        # flag overrides the file
        code = run_cli(
            ["snapshot", "--config", str(cfg), "--n-dimers", "8", "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 9

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("flux-capacitance = 1.21\n")
        code = run_cli(["snapshot", "--config", str(cfg), "--time", "1.0",
                        "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_dimers = abc\n", ":1: n_dimers = 'abc' does not parse as int"),
            ("# comment\ngamma = 1,5\n", ":2: gamma = '1,5' does not parse as float"),
        ],
    )
    def test_unparsable_value_names_key_and_line(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code = run_cli(["snapshot", "--config", str(cfg), "--time", "1.0",
                        "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert f"error: {cfg}{message}" in capsys.readouterr().err

    def test_malformed_line_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gamma 1.25\n")
        assert run_cli(["snapshot", "--config", str(cfg), "--time", "1.0",
                        "--out", str(tmp_path / "s.csv")]) == 2


class TestDeterminism:
    def test_trace_reruns_byte_identical(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            assert run_cli(
                ["trace", "--n-dimers", "30", "--t-end", "85", "--window-min", "60",
                 "--window-max", "80", "--out", str(out)]
            ) == 0
            texts.append(out.read_bytes() + (tmp_path / f"{name}.report.json").read_bytes())
        assert texts[0] == texts[1]

    def test_sweep_workers_byte_identical(self, tmp_path):
        texts = []
        for name, workers in (("a", "1"), ("b", "3")):
            out = tmp_path / f"{name}.csv"
            assert run_cli(
                ["sweep", "--n-dimers", "20", "--param-min", "0.15", "--param-max", "0.3",
                 "--param-step", "0.05", "--workers", workers, "--out", str(out)]
            ) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


def test_ising_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the default Ising trace, a 31-point field sweep at 600 sites and the
    # default XY trace (phase blocks too), each run with one and with two
    # BLAS threads, must write the same bytes
    path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
    script = (
        "from spinbattery.cli import main\n"
        "assert main(['trace', '--model', 'ising', '--out', 'trace.csv']) == 0\n"
        "assert main(['sweep', '--model', 'ising', '--h1', '0.25', '--param-min', '0.4',\n"
        "             '--param-max', '1.0', '--param-step', '0.02', '--out', 'sweep.csv']) == 0\n"
        "assert main(['trace', '--out', 'xy.csv']) == 0\n"
    )
    outputs = {}
    for threads in ("1", "2"):
        cwd = tmp_path / threads
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": path}
        env.update({v: threads for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")})
        proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env)
        assert proc.returncode == 0
        names = ("trace.csv", "sweep.csv", "xy.csv", "xy.report.json")
        outputs[threads] = [(cwd / name).read_bytes() for name in names]
    assert len(outputs["1"][1].splitlines()) == 32
    assert len(outputs["1"][2].splitlines()) == 25466
    assert outputs["1"] == outputs["2"]


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2, reason="needs 2 or more CPUs"
)
def test_trace_bytes_do_not_depend_on_the_cores(tmp_path):
    # pinned to one CPU or free to use them all, the reference trace writes
    # the same bytes: the library starts no thread, and no path that sizes
    # itself from the affinity mask (such as a BLAS thread pool) changes a value
    path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
    script = (
        "import os, sys\n"
        "from spinbattery.cli import main\n"
        "if sys.argv[1] == 'pinned':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "assert main(['trace', '--out', 'trace.csv']) == 0\n"
    )
    outputs = {}
    for cores in ("pinned", "all"):
        cwd = tmp_path / cores
        cwd.mkdir()
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-c", script, cores], cwd=cwd, env=env)
        assert proc.returncode == 0
        outputs[cores] = [(cwd / n).read_bytes() for n in ("trace.csv", "trace.report.json")]
    assert len(outputs["pinned"][0].splitlines()) == 25466
    assert outputs["pinned"] == outputs["all"]
