"""Command-line front end.

Subcommands: trace, sweep, scaling, phase, snapshot, oracle-check.  They parse
options and format output; the per-model rules (engines, default recurrence
windows and their one-sided flags, the no-charge verdict) live in ``regimes``.
Curves are written as CSV, reports as JSON (or everything as one JSON file
with ``--format json``).  All numeric output uses 17 significant digits in
scientific notation with '.' decimal separator and LF line endings, and a
given configuration always produces byte-identical files, whatever the
worker budget or core count.  Exit codes: 0 success, 2 bad input, 3 analysis
failure, 4 oracle mismatch.

Options may also come from a flat key-value config file (``--config``):
one ``name = value`` pair per line, ``#`` comments allowed, names matching
the long options.  Explicit flags override the file; the file overrides
built-in defaults.  Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, astuple

import numpy as np

from .ed import (
    DegenerateGroundStateError,
    DimerizedXY,
    TransverseIsing,
    build_hamiltonian,
    oracle_energy_trace,
)
from .ising import IsingParams
from .quench import QuenchProtocol, _uniform_times
from .regimes import (
    RegimeDetectionError,
    _engine,
    _trace_inputs,
    analyze_trace,
    linear_fit,
    occupation_snapshot,
    scaling_study,
    sweep_delta0,
    sweep_field,
)
from .xy import _check_finite, classify_phase

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_ANALYSIS = 3
EXIT_ORACLE = 4

# Largest parameter grid a sweep accepts; checked before the grid is built.
MAX_GRID_POINTS = 10_000


# ----------------------------------------------------------------------
# deterministic formatting
# ----------------------------------------------------------------------

def format_float(x: float) -> str:
    """17 significant digits, scientific notation, locale independent."""
    return format(float(x), ".16e")


def deterministic_json(obj) -> str:
    """JSON with sorted keys and floats rendered via :func:`format_float`."""
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}: {deterministic_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(deterministic_json(v) for v in obj) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _csv_text(header: str, columns: list) -> str:
    """``header``, then rows of ``%d`` (int columns) or ``%.16e`` (as :func:`format_float`)."""
    line = ",".join("%d" if isinstance(c[0], int) else "%.16e" for c in columns) + "\n"
    cells = tuple(x for row in zip(*columns) for x in row)
    return f"{header}\n" + line * len(columns[0]) % cells


def _emit(opts: dict, stem: str, header: str, rows, meta: dict, by_column: bool = False) -> None:
    """Write the table named by ``header`` to ``--out`` (default ``<stem>.<format>``).

    CSV also writes ``meta`` to a ``.report.json`` sidecar when it holds more
    than ``params``; JSON writes one document of ``meta`` plus the table, as
    records under ``rows`` or, ``by_column``, as one list per column under ``trace``.
    """
    out = opts["out"] or f"{stem}.{opts['format']}"
    columns = list(zip(*rows))
    if opts["format"] == "csv":
        _write_text(out, _csv_text(header, columns))
        if meta.keys() - {"params"}:
            report = os.path.splitext(out)[0] + ".report.json"
            _write_text(report, deterministic_json(meta) + "\n")
        return
    names = header.split(",")
    if by_column:
        table = {"trace": dict(zip(names, columns))}
    else:
        table = {"rows": [dict(zip(names, row)) for row in zip(*columns)]}
    _write_text(out, deterministic_json({**meta, **table}) + "\n")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


# ----------------------------------------------------------------------
# option plumbing
# ----------------------------------------------------------------------

# option name -> (type, help); each command picks a subset with its own defaults.
_OPTIONS = {
    "model": (str, "xy or ising"),
    "out": (str, "output file"),
    "format": (str, "csv (curve + JSON report) or json (single file)"),
    "workers": (int, "most time-kernel threads (default: every CPU the process may use)"),
    "gamma": (float, "anisotropy"),
    "delta0": (float, "battery dimerization"),
    "delta1": (float, "dimerization step applied while charging"),
    "n_dimers": (int, "number of two-site cells"),
    "h0": (float, "battery transverse field"),
    "h1": (float, "field step applied while charging"),
    "n_sites": (int, "number of spins"),
    "t_end": (float, "trace end time, 1/J units (default: recurrence window end)"),
    "dt": (float, "trace step (default: half the anti-aliasing bound)"),
    "window_min": (float, "recurrence search window start (default: model specific)"),
    "window_max": (float, "recurrence search window end (default: model specific)"),
    "time": (float, "snapshot time, 1/J units"),
    "param_min": (float, "swept parameter start"),
    "param_max": (float, "swept parameter end"),
    "param_step": (float, "swept parameter step"),
    "n_list": (str, "comma-separated system sizes"),
    "tol": (float, "acceptance tolerance on the max deviation"),
}

# Allowed values of the options that name a choice.
_CHOICES = {"format": ("csv", "json"), "model": ("xy", "ising")}


def _add_options(parser: argparse.ArgumentParser, defaults: dict) -> None:
    parser.add_argument("--config", type=str, default=None, help="flat key=value config file")
    for name, default in defaults.items():
        kind, text = _OPTIONS[name]
        if default is not None:
            text = f"{text} (default: {default})"
        parser.add_argument("--" + name.replace("_", "-"), type=kind, default=None,
                            dest=name, help=text)


def _read_config(path: str) -> dict:
    """Option name -> (value text, ``path:line`` it came from)."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'name = value'")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = (val.strip(), f"{path}:{lineno}")
    return values


def _resolve(ns: argparse.Namespace, defaults: dict) -> dict:
    """Merge precedence: explicit flag > config file > per-command default."""
    config = _read_config(ns.config) if ns.config else {}
    unknown = set(config) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}")
    opts = {}
    for name, default in defaults.items():
        value = getattr(ns, name)
        if value is None and name in config:
            text, where = config[name]
            kind = _OPTIONS[name][0]
            try:
                value = kind(text)
            except ValueError:
                raise ValueError(
                    f"{where}: {name} = {text!r} does not parse as {kind.__name__}"
                ) from None
        opts[name] = default if value is None else value
        if _OPTIONS[name][0] is float and opts[name] is not None:
            _check_finite(**{name: opts[name]})
    for name, allowed in _CHOICES.items():
        if name in opts and opts[name] not in allowed:
            raise ValueError(f"{name} must be one of {sorted(allowed)}, got {opts[name]!r}")
    if opts.get("workers") is not None and opts["workers"] < 1:
        raise ValueError("workers must be >= 1")
    if opts.get("tol", 0.0) < 0:
        raise ValueError(f"tol must be >= 0, got {opts['tol']}")
    return opts


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_trace(opts: dict) -> int:
    """Write the stored-energy trace and its three-regime report."""
    if opts["model"] == "xy":
        protocol = QuenchProtocol(opts["gamma"], opts["delta0"], opts["delta1"], opts["n_dimers"])
    else:
        protocol = IsingParams(opts["h0"], opts["h1"], opts["n_sites"])
    trace, e_inf, window, t_end, dt = _trace_inputs(
        protocol, opts["t_end"], opts["dt"], (opts["window_min"], opts["window_max"])
    )
    meta = {"params": {"model": opts["model"], **asdict(protocol), "t_end": t_end, "dt": dt}}
    try:
        meta["report"] = asdict(analyze_trace(trace, e_inf, window))
    finally:
        _emit(opts, "trace", "t,delta_e", zip(trace.times, trace.values), meta, by_column=True)
    return EXIT_OK


def _make_grid(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0:
        raise ValueError(f"param-step must be positive, got {step}")
    n = (hi - lo) / step
    if n >= MAX_GRID_POINTS:
        raise ValueError(
            f"param-step {step} puts more than {MAX_GRID_POINTS} points on [{lo}, {hi}]"
        )
    grid = [lo + i * step for i in range(int(round(n)) + 1) if lo + i * step <= hi + 1e-12]
    if not grid:
        raise ValueError(f"empty parameter grid [{lo}, {hi}] with step {step}")
    return grid


def cmd_sweep(opts: dict) -> int:
    """Sweep the initial dimerization (or field) and tabulate the regimes."""
    if opts["param_min"] is None or opts["param_max"] is None:
        raise ValueError("param-min and param-max are required")
    grid = _make_grid(opts["param_min"], opts["param_max"], opts["param_step"])

    window = (opts["window_min"], opts["window_max"])
    if opts["model"] == "xy":
        rows = sweep_delta0(
            opts["gamma"], opts["delta1"], opts["n_dimers"], grid,
            workers=opts["workers"], window=window,
        )
        params = {
            "model": "xy", "gamma": opts["gamma"], "delta1": opts["delta1"],
            "n_dimers": opts["n_dimers"],
        }
    else:
        rows = sweep_field(
            opts["h1"], opts["n_sites"], grid, workers=opts["workers"], window=window
        )
        params = {"model": "ising", "h1": opts["h1"], "n_sites": opts["n_sites"]}

    header = "param,e_s_per,e_r_per,e_inf_per,tau_s,tau_r"
    _emit(opts, "sweep", header, map(astuple, rows), {"params": params})
    return EXIT_OK


def cmd_scaling(opts: dict) -> int:
    """Per-dimer energies and recurrence time across system sizes."""
    try:
        sizes = [int(s) for s in opts["n_list"].split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"n-list must list integer sizes, got {opts['n_list']!r}") from None
    if len(set(sizes)) < 2:
        raise ValueError(f"n-list needs two distinct sizes for the tau_r fit, got {sizes}")
    rows = scaling_study(
        opts["gamma"], opts["delta0"], opts["delta1"], sizes, workers=opts["workers"]
    )
    slope, intercept, r2 = linear_fit([r.n_dimers for r in rows], [r.tau_r for r in rows])
    fit = {"tau_r_fit": {"slope": slope, "intercept": intercept, "r_squared": r2}}
    header = "n_dimers,e_s_per,e_r_per,e_inf_per,tau_r"
    _emit(opts, "scaling", header, map(astuple, rows), fit)
    print(
        f"tau_r linear fit: slope={format_float(slope)} r_squared={format_float(r2)}"
    )
    return EXIT_OK


def cmd_phase(opts: dict) -> int:
    """Classify a (gamma, delta) point of the phase diagram."""
    phase = classify_phase(opts["gamma"], opts["delta"])
    region = phase.region if phase.region is not None else "critical"
    print(f"region={region} {phase.label}")
    return EXIT_OK


def cmd_snapshot(opts: dict) -> int:
    """Lower-band occupation versus momentum at a fixed time."""
    if opts["time"] is None or opts["time"] < 0:
        raise ValueError("--time must be given and >= 0")
    protocol = QuenchProtocol(opts["gamma"], opts["delta0"], opts["delta1"], opts["n_dimers"])
    pairs = occupation_snapshot(protocol, opts["time"])
    params = {"model": "xy", **asdict(protocol), "time": opts["time"]}
    _emit(opts, "snapshot", "k,n2", pairs, {"params": params})
    return EXIT_OK


def cmd_oracle_check(opts: dict) -> int:
    """Compare the momentum-space engine against spin-space ED, to tol x max(1, max|dE|)."""
    n_sites = opts["n_sites"]
    times = _uniform_times(0.0, opts["t_end"], opts["dt"], np.inf)
    # The sites (build_hamiltonian) are checked before the engine's parameters.
    if opts["model"] == "xy":
        gamma, delta0, delta1 = opts["gamma"], opts["delta0"], opts["delta1"]
        kinds = DimerizedXY(gamma, delta0), DimerizedXY(gamma, delta0 + delta1)
        battery, charger = (build_hamiltonian(kind, n_sites) for kind in kinds)
        if n_sites < 4:
            raise ValueError(f"n-sites must be >= 4 for the XY engine's two dimers, got {n_sites}")
        params = QuenchProtocol(gamma, delta0, delta1, n_sites // 2)
    else:
        h0, h1 = opts["h0"], opts["h1"]
        kinds = TransverseIsing(h0), TransverseIsing(h0 + h1)
        battery, charger = (build_hamiltonian(kind, n_sites) for kind in kinds)
        params = IsingParams(h0, h1, n_sites)
    oracle = oracle_energy_trace(battery, charger, times).values
    engine = _engine(params).energy(params, times)
    deviation = float(np.max(np.abs(engine - oracle)))
    print(f"max deviation = {format_float(deviation)} (tolerance {format_float(opts['tol'])})")
    scale = max(1.0, float(np.max(np.abs(oracle))))
    return EXIT_OK if deviation <= opts["tol"] * scale else EXIT_ORACLE


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

# name -> (function, help, {option: default (None: no default)}), in --help
# order; phase takes two positionals instead of options.
_COMMANDS = {
    "trace": (cmd_trace, "energy trace plus regime report", {
        "model": "xy", "out": None, "format": "csv",
        "gamma": 1.25, "delta0": 0.3, "delta1": 0.6, "n_dimers": 300,
        "h0": 0.8, "h1": 0.7, "n_sites": 600,
        "t_end": None, "dt": None, "window_min": None, "window_max": None,
    }),
    "sweep": (cmd_sweep, "regime energies across a parameter grid", {
        "model": "xy", "out": None, "format": "csv", "workers": None,
        "gamma": 1.1, "delta1": 0.8, "n_dimers": 300, "h1": 0.25, "n_sites": 600,
        "param_min": None, "param_max": None, "param_step": 0.005,
        "window_min": None, "window_max": None,
    }),
    "scaling": (cmd_scaling, "regime energies across system sizes", {
        "out": None, "format": "csv", "workers": None, "gamma": 1.25, "delta0": 0.3,
        "delta1": 0.6, "n_list": "50,100,200,300",
    }),
    "phase": (cmd_phase, "classify a point of the phase diagram", None),
    "snapshot": (cmd_snapshot, "occupation-number profile at a time", {
        "out": None, "format": "csv",
        "gamma": 1.1, "delta0": 0.2, "delta1": 0.8, "n_dimers": 300, "time": None,
    }),
    "oracle-check": (cmd_oracle_check, "engine vs exact diagonalization", {
        "model": "xy", "gamma": 1.25, "delta0": 0.3, "delta1": 0.6, "h0": 0.8, "h1": 0.7,
        "n_sites": 4, "t_end": 50.0, "dt": 0.1, "tol": 1e-8,
    }),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbattery",
        description="Stored energy of double-quench spin-chain quantum batteries",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text, defaults) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if defaults is None:
            p.add_argument("gamma", type=float, help="anisotropy, > 0")
            p.add_argument("delta", type=float, help="dimerization, >= 0")
        else:
            _add_options(p, defaults)
    return parser


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """One line per warning, free of source paths, so stderr is reproducible."""
    return f"warning: {category.__name__}: {message}\n"


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    func, _, defaults = _COMMANDS[ns.command]
    previous, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        return func(vars(ns) if defaults is None else _resolve(ns, defaults))
    except (ValueError, OSError) as exc:
        return _fail(str(exc), EXIT_BAD_INPUT)
    except (RegimeDetectionError, DegenerateGroundStateError) as exc:
        return _fail(str(exc), EXIT_ANALYSIS)
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    sys.exit(main())
