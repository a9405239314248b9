"""Charging-regime extraction, parameter sweeps and scaling studies.

Three regimes are read off a stored-energy trace: the first local maximum
(tau_s, E^s), the time-independent plateau E^inf, and the finite-size
recurrence maximum (tau_r, E^r) searched inside a window that scales
linearly with system size.  Sweeps evaluate these per grid point of the
initial dimerization (or transverse field) and are embarrassingly parallel
over rows; row order and per-row arithmetic are fixed, so outputs do not
depend on the worker budget.  The per-model rules live here, not in the
command line: ``_engine`` picks the engines and default window,
``_recurrence_window`` fills and checks a window, and an uncharged trace of
either model fails with "no charging occurred".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ising import (
    IsingParams,
    ising_asymptotic_energy,
    ising_energy_at_times,
    ising_resolution_bound,
)
from .quench import (
    EnergyTrace,
    QuenchProtocol,
    _cores,
    _uniform_times,
    asymptotic_energy,
    energy_at_times,
    occupations_all,
    resolution_bound,
)

__all__ = [
    "RegimeReport",
    "SweepRow",
    "ScalingRow",
    "RegimeDetectionError",
    "RecurrenceWindowWarning",
    "default_recurrence_window",
    "ising_recurrence_window",
    "find_short_time_max",
    "find_recurrence",
    "analyze_trace",
    "occupation_snapshot",
    "sweep_delta0",
    "sweep_field",
    "scaling_study",
    "linear_fit",
]

# Recurrence search window as multiples of the size parameter.  The XY pair
# is calibrated so n_dimers = 300 gives [600, 800]; the Ising pair so
# N = 600 gives [280, 350].
XY_WINDOW_FACTORS = (2.0, 8.0 / 3.0)
ISING_WINDOW_FACTORS = (7.0 / 15.0, 7.0 / 12.0)

# Default trace step: half the anti-aliasing bound.
DT_SAFETY = 0.5

DEFAULT_SHORT_SPAN = 50.0


class RegimeDetectionError(RuntimeError):
    """The trace has no feature where one was required."""


class RecurrenceWindowWarning(UserWarning):
    """The windowed maximum sits on a window edge."""


@dataclass(frozen=True)
class RegimeReport:
    """The three charging regimes extracted for one protocol."""

    tau_s: float
    e_s: float
    e_inf: float
    tau_r: float
    e_r: float
    window_r: tuple[float, float]


@dataclass(frozen=True)
class SweepRow:
    """Per-size-normalized regime energies at one swept parameter value."""

    param: float
    e_s_per: float
    e_r_per: float
    e_inf_per: float
    tau_s: float
    tau_r: float


@dataclass(frozen=True)
class ScalingRow:
    """Per-dimer regime energies and recurrence time at one system size."""

    n_dimers: int
    e_s_per: float
    e_r_per: float
    e_inf_per: float
    tau_r: float


def default_recurrence_window(n_dimers: int) -> tuple[float, float]:
    return (XY_WINDOW_FACTORS[0] * n_dimers, XY_WINDOW_FACTORS[1] * n_dimers)


def ising_recurrence_window(n_sites: int) -> tuple[float, float]:
    return (ISING_WINDOW_FACTORS[0] * n_sites, ISING_WINDOW_FACTORS[1] * n_sites)


def _recurrence_window(
    window: tuple[float | None, float | None] | None, default: tuple[float, float]
) -> tuple[float, float]:
    """(min, max) of ``window``, None sides from ``default``; ValueError unless 0 <= min < max."""
    lo, hi = window or (None, None)
    window = (default[0] if lo is None else lo, default[1] if hi is None else hi)
    if not 0 <= window[0] < window[1]:
        raise ValueError(f"recurrence window needs 0 <= window-min < window-max, got {window}")
    return window


def _refine_parabolic(times: np.ndarray, values: np.ndarray, i: int) -> tuple[float, float]:
    """Vertex of the parabola through samples i-1, i, i+1 (uniform grid)."""
    if i <= 0 or i >= len(times) - 1:
        return float(times[i]), float(values[i])
    v0, v1, v2 = values[i - 1], values[i], values[i + 1]
    curv = v0 - 2.0 * v1 + v2
    if curv >= 0.0:
        return float(times[i]), float(values[i])
    dt = times[i] - times[i - 1]
    shift = 0.5 * (v0 - v2) / curv
    return float(times[i] + shift * dt), float(v1 - 0.125 * (v0 - v2) ** 2 / curv)


def _noise_floor(protocol) -> float:
    """Smallest stored energy distinguishable from zero for this system.

    Traces are only guaranteed to vanish to 1e-10 per dimer (or site), so
    maxima below that band are numerical noise, not charging features.
    Traces of other sources (no size attribute) get a floor of 0.
    """
    return 1e-10 * getattr(protocol, "n_dimers", getattr(protocol, "n_sites", 0))


def find_short_time_max(trace: EnergyTrace) -> tuple[float, float]:
    """Time and height of the first strict local maximum of the trace.

    Maxima that do not rise above the trace's zero-level noise band do not
    count.  RegimeDetectionError says "no charging occurred" when no sample
    rises above that band, else "no local maximum found".
    """
    times, values, floor = trace.times, trace.values, _noise_floor(trace.protocol)
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1] and values[i] > floor:
            return _refine_parabolic(times, values, i)
    if not np.any(values > floor):
        raise RegimeDetectionError(f"no charging occurred: no sample above noise floor {floor:.3g}")
    raise RegimeDetectionError(
        "no local maximum found: trace is monotone or flat over its span"
    )


def find_recurrence(
    trace: EnergyTrace, window: tuple[float, float]
) -> tuple[float, float]:
    """Windowed maximum of the trace, parabolically refined; warns if it sits on an edge."""
    t_min, t_max = window
    idx = np.nonzero((trace.times >= t_min) & (trace.times <= t_max))[0]
    if idx.size == 0:
        raise ValueError(f"window {window} contains no trace samples")
    tau_r, e_r, on_edge = _windowed_argmax(trace.times, trace.values, idx[0], idx[-1] + 1)
    _warn_edge_hits([""] if on_edge else [])
    return tau_r, e_r


def analyze_trace(
    trace: EnergyTrace, e_inf: float, window: tuple[float, float]
) -> RegimeReport:
    """Assemble the three-regime report from a full trace."""
    tau_s, e_s = find_short_time_max(trace)
    tau_r, e_r = find_recurrence(trace, window)
    return RegimeReport(
        tau_s=tau_s, e_s=e_s, e_inf=e_inf, tau_r=tau_r, e_r=e_r, window_r=window
    )


def occupation_snapshot(protocol: QuenchProtocol, t: float) -> list[tuple[float, float]]:
    """Lower-band occupation versus momentum k = 2 pi q / n_dimers at time t."""
    occ = occupations_all(protocol, t)
    q = np.arange(protocol.n_dimers) + 0.5
    k = 2.0 * np.pi * q / protocol.n_dimers
    return [(float(ki), float(n2)) for ki, n2 in zip(k, occ[:, 1])]


# ----------------------------------------------------------------------
# per-point regime extraction (sweep / scaling workers)
# ----------------------------------------------------------------------

def _windowed_argmax(
    times: np.ndarray, values: np.ndarray, lo: int = 0, hi: int | None = None
) -> tuple[float, float, bool]:
    """(tau, e, on_edge) of the maximum over samples lo..hi-1, refined with the
    neighbours outside them; on_edge if it is sample lo or hi-1.  Never warns.

    Flat charging bands (delta0 + delta1 = 1) make the trace exactly periodic,
    so np.argmax picks among maxima equal up to rounding by their last bits: at
    delta0 = 0.2 on the Fig-3 line (n = 300), 13 samples lie within 5.7e-14 and
    the pick is tau_r = 714.712.  ROADMAP item 1's earliest-peak rule fixes it.
    """
    hi = len(values) if hi is None else hi
    j = lo + int(np.argmax(values[lo:hi]))
    return (*_refine_parabolic(times, values, j), j in (lo, hi - 1))


def _warn_edge_hits(rows) -> None:
    """One RecurrenceWindowWarning per row label (e.g. " of row 2 (delta0 = 0.1)"), in order."""
    for row in rows:
        warnings.warn(
            f"recurrence maximum{row} sits on a window edge; the window is likely misplaced",
            RecurrenceWindowWarning,
        )


def _engine(params):
    """The engine functions, size and default recurrence window of ``params``.

    Returns (energy_at_times, asymptotic_energy, resolution_bound, size,
    window), the size being n_dimers (XY) or n_sites (Ising).  The only
    place that tells the models apart; names resolve per call.
    """
    if isinstance(params, IsingParams):
        return (ising_energy_at_times, ising_asymptotic_energy, ising_resolution_bound,
                params.n_sites, ising_recurrence_window(params.n_sites))
    return (energy_at_times, asymptotic_energy, resolution_bound,
            params.n_dimers, default_recurrence_window(params.n_dimers))


def _regime_point(args) -> tuple[float, float, float, float, float, bool]:
    """(tau_s, e_s, e_inf, tau_r, e_r, on_edge) of one XY or Ising parameter set; never warns."""
    params, window = args
    energy, asymptote, resolution, _, _ = _engine(params)
    bound = resolution(params)
    dt = DT_SAFETY * bound
    short_times = _uniform_times(DEFAULT_SHORT_SPAN, dt, bound)
    short = EnergyTrace(times=short_times, values=energy(params, short_times), protocol=params)
    tau_s, e_s = find_short_time_max(short)
    win_times = window[0] + _uniform_times(window[1] - window[0], dt, bound)
    tau_r, e_r, on_edge = _windowed_argmax(win_times, energy(params, win_times))
    return tau_s, e_s, asymptote(params), tau_r, e_r, on_edge


def _map_ordered(func, jobs: list, workers: int) -> list:
    """[func(job) for job in jobs], over a process pool when workers > 1.

    ``func`` returns everything the caller needs as data: a pool worker's
    warnings and other side effects never reach the caller.
    """
    # A fork pool starts all its processes up front, used or not.
    workers = min(workers, len(jobs), _cores())
    if workers <= 1:
        return [func(job) for job in jobs]
    # Imported here: the process-pool module costs every CLI start ~15 ms.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, jobs))


def _sweep_rows(name, grid, params, workers, window=None):
    """One SweepRow per grid value of ``name``, energies divided by the system size.

    Each row's recurrence is searched in ``window``, its None sides from the row's default.
    """
    sized = [_engine(p)[3:] for p in params]  # (size, default window)
    jobs = [(p, _recurrence_window(window, default)) for p, (_, default) in zip(params, sized)]
    points = _map_ordered(_regime_point, jobs, workers)
    _warn_edge_hits(
        f" of row {i} ({name} = {x})" for i, (x, point) in enumerate(zip(grid, points)) if point[-1]
    )
    return [
        SweepRow(x, e_s / size, e_r / size, e_inf / size, tau_s, tau_r)
        for x, (size, _), (tau_s, e_s, e_inf, tau_r, e_r, _) in zip(grid, sized, points)
    ]


def sweep_delta0(
    gamma: float,
    delta1: float,
    n_dimers: int,
    delta0_grid,
    *,
    workers: int = 1,
    window: tuple[float | None, float | None] | None = None,
) -> list[SweepRow]:
    """Regime energies per dimer across a grid of initial dimerizations.

    E^s and E^r peak where the charging chain is fully dimerized
    (delta0 + delta1 = 1); E^r additionally spikes where the charging chain
    is critical (gamma (delta0 + delta1) = 1 or delta0 + delta1 = gamma).
    A None side of the recurrence ``window`` (min, max) keeps its default side.
    """
    grid = [float(d) for d in delta0_grid]
    if any(d <= 0 or d + delta1 <= 0 for d in grid):
        raise ValueError("delta0 and delta0 + delta1 must stay positive on the grid")
    protocols = [QuenchProtocol(gamma, d0, delta1, n_dimers) for d0 in grid]
    return _sweep_rows("delta0", grid, protocols, workers, window)


def sweep_field(
    h1: float,
    n_sites: int,
    h0_grid,
    *,
    workers: int = 1,
    window: tuple[float | None, float | None] | None = None,
) -> list[SweepRow]:
    """Ising analogue of :func:`sweep_delta0`, normalized per site."""
    grid = [float(h0) for h0 in h0_grid]
    params = [IsingParams(h0, h1, n_sites) for h0 in grid]
    return _sweep_rows("h0", grid, params, workers, window)


def scaling_study(
    gamma: float,
    delta0: float,
    delta1: float,
    n_list,
    *,
    workers: int = 1,
) -> list[ScalingRow]:
    """Per-dimer regime energies and recurrence time across system sizes."""
    sizes = [int(n) for n in n_list]
    if any(n < 5 for n in sizes):
        raise ValueError("scaling sizes below n_dimers = 5 show no regime structure")
    protocols = [QuenchProtocol(gamma, delta0, delta1, n) for n in sizes]
    rows = _sweep_rows("n_dimers", sizes, protocols, workers)
    return [ScalingRow(n, r.e_s_per, r.e_r_per, r.e_inf_per, r.tau_r) for n, r in zip(sizes, rows)]


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = a x + b through at least two distinct x; returns (a, b, R^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.unique(x).size < 2:
        raise ValueError("a line fit needs at least two distinct x values")
    a, b = np.polyfit(x, y, 1)
    resid = y - (a * x + b)
    total = y - np.mean(y)
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2
