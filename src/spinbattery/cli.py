"""Command-line front end.

Subcommands: trace, sweep, scaling, phase, snapshot, oracle-check.  They parse
options and format output; the engines live in ``quench`` and the window
rules (default windows and their one-sided flags, the no-charge verdict) in ``regimes``.
``--model`` picks a ``_MODELS`` row (supplier, swept field, library sweep); the rest
of a model, oracle-check's ED spin chains (``ed_kinds``) too, comes from the supplier.
Curves are written as CSV, reports as JSON (or everything as one JSON file
with ``--format json``).  All numeric output uses 17 significant digits in
scientific notation with '.' decimal separator and LF line endings, and a
given configuration always produces byte-identical files, whatever the
worker budget or core count.  ``_emit`` takes a table as its columns; the
floats of a CSV table or a JSON list are written in one exact vectorized pass
(``_float_cells``) whose bytes equal ``format(x, ".16e")`` for every value, and
which hands ties, non-finite values and |x| outside [1e-290, 1e290] (zero
included) to ``format`` one cell at a time.  Exit codes: 0 success, 2 bad
input, 3 analysis failure, 4 oracle mismatch.

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
from dataclasses import asdict, astuple, fields

import numpy as np

from . import regimes
from .ed import DegenerateGroundStateError, build_hamiltonian, oracle_energy_trace
from .ising import IsingParams
from .quench import QuenchProtocol, _energy, _uniform_times
from .regimes import (
    RegimeDetectionError,
    _trace_inputs,
    analyze_trace,
    linear_fit,
    occupation_snapshot,
    scaling_study,
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


# 2**27 + 1: Veltkamp's splitter, cutting a double into halves whose products are exact.
_SPLIT = 134217729.0

# "00".."99", then "0000".."9999", as ASCII in uint32, first digit in the low byte.
_PAIRS = np.frombuffer(b"".join(b"%02d" % k for k in range(100)), np.uint16).astype(np.uint32)
_GROUPS = (_PAIRS[:, None] | _PAIRS << 16).ravel()
# NUL, sign ('-' or NUL), leading digit, '.' as uint32, at leading digit + 10 * negative.
_LEADS = np.array([int.from_bytes(b"\0" + sign + b"%d." % d, "little")
                   for sign in (b"\0", b"-") for d in range(10)], np.uint32)

# Rows formatted per pass, so that a pass's temporaries stay small and are reused.
_ROWS = 4096


def _pow10(k_lo: int, k_hi: int) -> np.ndarray:
    """Rows (hi, head, tail, lo) for k = k_lo..k_hi: hi + lo = 10**k to ~2**-106 relative.

    hi is 10**k correctly rounded and lo the remainder correctly rounded, both
    from exact integer ratios (``int / int`` rounds correctly); head + tail = hi
    is hi's Veltkamp split, taken at 2**-60 scale so that 10**308 does not overflow.
    """
    rows = []
    for k in range(k_lo, k_hi + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi = num / den
        hi_num, hi_den = hi.as_integer_ratio()
        c = hi * 2.0**-60 * _SPLIT
        head = (c - (c - hi * 2.0**-60)) * 2.0**60
        rows.append((hi, head, hi - head, (num * hi_den - hi_num * den) / (den * hi_den)))
    return np.array(rows)


def _float_cells(values) -> np.ndarray:
    """Each value's :func:`format_float` bytes, in a 32-byte row with NUL padding.

    A row holds the sign (NUL when positive) at byte 1, the leading digit and
    '.' at 2-3, 16 digits at 4-19 and the exponent at 24-28 ('e', its sign,
    two or three digits); the other bytes are not set.  The 17 digits of |x|,
    rounded to nearest, are those of y = |x| * 10**(16 - E), E = floor(log10|x|).
    A cell is written by ``format`` instead where y's fraction is within
    2**-36 of one half (a tie or near-tie), where floor(y) or the rounded y
    leaves [10**16, 10**17) (an E off by one next to a power of ten, or a
    carry into E + 1), and for zeros, non-finite values and |x| outside
    [1e-290, 1e290]; its text up to 'e' then ends at byte 19 and the rest
    starts at byte 24.
    """
    x = np.asarray(values, dtype=np.float64)
    ax = np.abs(x)
    fast = (ax >= 1e-290) & (ax <= 1e290)
    a = np.where(fast, ax, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    e_lo, e_hi = int(e.min()), int(e.max())
    hi, head, tail, lo = _pow10(16 - e_hi, 16 - e_lo).take(e_hi - e, axis=0).T
    # Dekker's two-product: p + frac is |x| * hi exactly, and adding |x| * lo
    # puts p + frac within ~2**-46 of y, as y < 2**57
    c = a * _SPLIT
    a_head = c - (c - a)
    a_tail = a - a_head
    p = a * hi
    frac = a_head * head - p
    frac += a_head * tail
    frac += a_tail * head
    frac += a_tail * tail
    frac += a * lo
    whole = np.floor(frac)
    frac -= whole
    whole = p.astype(np.int64) + whole.astype(np.int64)
    digits = whole + (frac > 0.5)
    slow = ~fast | (np.abs(frac - 0.5) < 2.0**-36) | (whole < 10**16) | (digits >= 10**17)
    exponents = np.array([int.from_bytes((b"e%+03d" % k).ljust(8, b"\0"), "little")
                          for k in range(e_lo, e_hi + 1)], np.uint64)
    lead = digits // 10**16
    rest = digits - lead * 10**16
    hi8 = rest // 10**8
    lo8 = rest - hi8 * 10**8
    hi4 = hi8 // 10**4
    lo4 = lo8 // 10**4
    lead += np.signbit(x) * 10
    cells = np.empty((x.size, 8), np.uint32)
    cells[:, 0] = _LEADS.take(lead, mode="clip")
    cells[:, 1] = _GROUPS.take(hi4)
    cells[:, 2] = _GROUPS.take(hi8 - hi4 * 10**4)
    cells[:, 3] = _GROUPS.take(lo4)
    cells[:, 4] = _GROUPS.take(lo8 - lo4 * 10**4)
    cells.view(np.uint64)[:, 3] = exponents.take(e - e_lo)
    cells = cells.view(np.uint8)
    slow = np.flatnonzero(slow)
    if slow.size:
        parts = [format_float(v).partition("e") for v in x[slow].tolist()]
        mantissas = np.array([m.rjust(19, "\0") for m, _, _ in parts], "S19")
        cells[slow, 1:20] = mantissas.view(np.uint8).reshape(-1, 19)
        exponents = np.array([e + k for _, e, k in parts], "S5")
        cells[slow, 24:29] = exponents.view(np.uint8).reshape(-1, 5)
    return cells


def _rows_text(columns: list, end: str) -> str:
    """Rows of ``columns``' cells, ',' between cells and ``end`` after each row.

    Float columns are written by :func:`_float_cells`, all in one pass; other
    columns with ``%d``.  A column's sign or hundreds-digit byte is skipped
    where no row uses it, and the NUL bytes left are dropped.
    """
    n = len(columns[0])
    floats = [c for c in columns if c.dtype.kind == "f"]
    cells = iter(_float_cells(np.concatenate(floats)).reshape(len(floats), n, 32) if floats else ())
    blocks = []
    for c in columns:
        if c.dtype.kind != "f":
            blocks.append(np.array([b"%d" % v for v in c.tolist()]).view(np.uint8).reshape(n, -1))
        else:
            block = next(cells)
            sign, hundreds = int(block[:, 1].any()), int(block[:, 28].any())
            blocks += [block[:, 2 - sign:20], block[:, 24:28 + hundreds]]
        blocks.append(np.full((n, 1), ord(","), np.uint8))
    blocks[-1] = np.full((n, 1), ord(end), np.uint8)
    return np.hstack(blocks).tobytes().replace(b"\0", b"").decode("ascii")


def _table_text(columns: list, end: str, head: str = "") -> str:
    """``head``, then the rows of ``columns`` (see :func:`_rows_text`), _ROWS at a time."""
    columns = [np.asarray(c) for c in columns]
    texts = [head]
    for start in range(0, len(columns[0]), _ROWS):
        texts.append(_rows_text([c[start:start + _ROWS] for c in columns], end))
    return "".join(texts)


def deterministic_json(obj) -> str:
    """JSON with sorted keys and floats rendered via :func:`format_float`.

    A list or tuple of floats is written in one pass of :func:`_float_cells`.
    """
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}: {deterministic_json(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        if obj and all(isinstance(v, float) for v in obj):
            return "[" + _table_text([obj], ",")[:-1] + "]"
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
    """``header``, then one line per row of ``columns`` (see :func:`_table_text`)."""
    return _table_text(columns, "\n", f"{header}\n")


def _emit(opts: dict, stem: str, header: str, columns, meta: dict, by_column: bool = False) -> None:
    """Write ``columns``, named by ``header``, to ``--out`` (default ``<stem>.<format>``).

    CSV also writes ``meta`` to a ``.report.json`` sidecar when it holds more
    than ``params``; JSON writes one document of ``meta`` plus the table, as
    records under ``rows`` or, ``by_column``, as one list per column under ``trace``.
    """
    out = opts["out"] or f"{stem}.{opts['format']}"
    if opts["format"] == "csv":
        _write_text(out, _csv_text(header, columns))
        if meta.keys() - {"params"}:
            report = os.path.splitext(out)[0] + ".report.json"
            _write_text(report, deterministic_json(meta) + "\n")
        return
    names = header.split(",")
    columns = [np.asarray(c).tolist() for c in columns]
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
    "workers": (int, "accepted (>= 1) for compatibility; changes nothing, rows run one by one"),
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

# --model -> (supplier, swept field, library sweep).  Supplier fields are option names;
# a sweep takes the other fields, then the grid, and is named so a ``regimes`` wrapper sees it.
_MODELS = {
    "xy": (QuenchProtocol, "delta0", "sweep_delta0"),
    "ising": (IsingParams, "h0", "sweep_field"),
}

# Allowed values of the options that name a choice.
_CHOICES = {"format": ("csv", "json"), "model": tuple(_MODELS)}


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

def _supplier_args(supplier, opts: dict, omit: str | None = None) -> dict:
    """``opts``' values of ``supplier``'s fields, in field order, ``omit`` left out."""
    return {f.name: opts[f.name] for f in fields(supplier) if f.name != omit}


def cmd_trace(opts: dict) -> int:
    """Write the stored-energy trace and its three-regime report."""
    supplier = _MODELS[opts["model"]][0]
    protocol = supplier(**_supplier_args(supplier, opts))
    trace, e_inf, window, t_end, dt = _trace_inputs(
        protocol, opts["t_end"], opts["dt"], (opts["window_min"], opts["window_max"])
    )
    meta = {"params": {"model": opts["model"], **asdict(protocol), "t_end": t_end, "dt": dt}}
    try:
        meta["report"] = asdict(analyze_trace(trace, e_inf, window))
    finally:
        _emit(opts, "trace", "t,delta_e", (trace.times, trace.values), meta, by_column=True)
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
    supplier, swept, sweep = _MODELS[opts["model"]]
    fixed = _supplier_args(supplier, opts, omit=swept)
    window = (opts["window_min"], opts["window_max"])
    rows = getattr(regimes, sweep)(*fixed.values(), grid, workers=opts["workers"], window=window)
    header = "param,e_s_per,e_r_per,e_inf_per,tau_s,tau_r"
    params = {"model": opts["model"], **fixed}
    _emit(opts, "sweep", header, list(zip(*map(astuple, rows))), {"params": params})
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
    _emit(opts, "scaling", header, list(zip(*map(astuple, rows))), fit)
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
    _emit(opts, "snapshot", "k,n2", list(zip(*pairs)), {"params": params})
    return EXIT_OK


def cmd_oracle_check(opts: dict) -> int:
    """Compare the momentum-space engine against spin-space ED, to tol x max(1, max|dE|)."""
    times = _uniform_times(0.0, opts["t_end"], opts["dt"], np.inf)
    supplier = _MODELS[opts["model"]][0]
    # the XY engine runs n_sites // 2 dimers; IsingParams has no n_dimers field
    params = supplier(**_supplier_args(supplier, {**opts, "n_dimers": opts["n_sites"] // 2}))
    battery, charger = (build_hamiltonian(kind, opts["n_sites"]) for kind in params.ed_kinds())
    oracle = oracle_energy_trace(battery, charger, times).values
    engine = _energy(params, times)
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
