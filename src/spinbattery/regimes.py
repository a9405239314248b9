"""Charging-regime extraction, parameter sweeps and scaling studies.

Three regimes are read off a stored-energy trace: the first local maximum
(tau_s, E^s), the time-independent plateau E^inf, and the finite-size
recurrence maximum (tau_r, E^r) searched inside a window that scales
linearly with system size.  Sweeps evaluate these per grid point of the
initial dimerization (or transverse field), row after row in the calling
thread; the ``workers`` argument is accepted and changes nothing.
A sweep or scaling row takes its kernel tables once, but builds its chain
tables three times: ``resolution_bound``, ``kernel_tables`` and
``asymptotic_energy`` each call ``chain_modes()``.  It runs one recipe for
both models (``_regime_point``): the short span on the phase-block
kernel in growing segments up to the sample after the first maximum, the
recurrence window screened with the same kernel, and the samples near the
screen's maximum, with their neighbours, summed exactly.  Each parameter
class is a model supplier (``quench``) that gives its size, window factors
and tables; nothing here tells the models apart.  The window rules live
here, not in the command line: ``_default_window`` forms a default window,
``_recurrence_window`` fills and checks a window, ``_window_span`` picks its
samples on a grid, ``_trace_inputs`` holds the ``trace`` command's
defaults, checks and trace, and an uncharged trace or window fails with
"no charging occurred".
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .ising import IsingParams
from .quench import (
    EnergyTrace,
    QuenchProtocol,
    _energy,
    _exact_energy,
    _phase_block_sum,
    _uniform_times,
    asymptotic_energy,
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
    "analyze_trace",
    "occupation_snapshot",
    "sweep_delta0",
    "sweep_field",
    "scaling_study",
    "linear_fit",
]

# Default trace step: half the anti-aliasing bound.
DT_SAFETY = 0.5

DEFAULT_SHORT_SPAN = 50.0


class RegimeDetectionError(RuntimeError):
    """The trace has no feature where one was required."""


class RecurrenceWindowWarning(UserWarning):
    """The windowed maximum sits on a window edge."""


@dataclass(frozen=True)
class RegimeReport:
    """The three charging regimes extracted for one protocol, and the powers E/tau."""

    tau_s: float
    e_s: float
    e_inf: float
    tau_r: float
    e_r: float
    window_r: tuple[float, float]
    power_s: float
    power_r: float


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
    return _default_window(QuenchProtocol, n_dimers)


def ising_recurrence_window(n_sites: int) -> tuple[float, float]:
    return _default_window(IsingParams, n_sites)


def _default_window(model, size: int) -> tuple[float, float]:
    """The default recurrence window of a model supplier (class or instance) at ``size``."""
    low, high = model.window_factors
    return (low * size, high * size)


def _recurrence_window(
    window: tuple[float | None, float | None] | None, params
) -> tuple[float, float]:
    """(min, max) of ``window``, None sides from the default window of ``params``;
    ValueError unless 0 <= min < max."""
    lo, hi = window or (None, None)
    default = _default_window(params, params.size)
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

    Traces are only guaranteed to vanish to 1e-10 per unit of the supplier's
    size (a dimer or a site), so maxima below that band are numerical noise,
    not charging features.  Traces of other sources (no size) get a floor of 0.
    """
    return 1e-10 * getattr(protocol, "size", 0)


def find_short_time_max(trace: EnergyTrace) -> tuple[float, float]:
    """Time and height of the first strict local maximum of the trace.

    Maxima that do not rise above the trace's zero-level noise band do not
    count.  RegimeDetectionError says "no charging occurred" when no sample
    rises above that band, else "no local maximum found"; both name the trace's span.
    """
    times, values, floor = trace.times, trace.values, _noise_floor(trace.protocol)
    for i in range(1, len(values) - 1):
        if values[i] > values[i - 1] and values[i] > values[i + 1] and values[i] > floor:
            return _refine_parabolic(times, values, i)
    verdict = "no local maximum found: trace is monotone or flat"
    if not np.any(values > floor):
        verdict = f"no charging occurred: no sample above noise floor {floor:.3g}"
    span = f"[{times[0]}, {times[-1]}]" if len(times) else "[]"
    raise RegimeDetectionError(f"{verdict} over its span {span}")


def _window_span(times: np.ndarray, window: tuple[float, float]) -> tuple[int, int]:
    """(lo, hi): samples lo..hi-1 of the ascending ``times`` are those in the closed
    ``window``.  ValueError, naming the window, the grid and what helps, if it holds none."""
    lo, hi = int(np.searchsorted(times, window[0])), int(np.searchsorted(times, window[1], "right"))
    if lo < hi:
        return lo, hi
    following = times[-1] + np.ptp(times[-2:])  # the sample a later end would add next
    late = following < window[0]  # only a later end can reach the window
    fix = "raise --t-end into the window" if late else "widen the window or lower dt"
    raise ValueError(
        f"window-min {window[0]} to window-max {window[1]} holds none of the {len(times)} grid "
        f"samples, t = {times[0]} to {times[-1]}; {fix}"
    )


def analyze_trace(trace: EnergyTrace, e_inf: float, window: tuple[float, float]) -> RegimeReport:
    """The three-regime report of a full trace; the recurrence is the maximum inside
    ``window`` (``_window_span`` rejects an empty one), warned about on a window edge."""
    tau_s, e_s = find_short_time_max(trace)
    span = _window_span(trace.times, window)
    tau_r, e_r, on_edge = _windowed_argmax(trace.times, trace.values, trace.protocol, *span)
    _warn_edge_hits([""] if on_edge else [])
    return RegimeReport(tau_s, e_s, e_inf, tau_r, e_r, window, e_s / tau_s, e_r / tau_r)


def _trace_inputs(params, t_end, dt, window):
    """(trace, e_inf, window, t_end, dt) of the ``trace`` command for ``params``.

    None arguments default to the model's window sides, the window's end and
    DT_SAFETY x the resolution bound; ``_window_span`` rejects a window the grid
    misses (t_end before window-min included) before any engine call.
    """
    window = _recurrence_window(window, params)
    t_end = window[1] if t_end is None else t_end
    bound = resolution_bound(params)
    dt = DT_SAFETY * bound if dt is None else dt
    times = _uniform_times(0.0, t_end, dt, bound)
    _window_span(times, window)
    trace = EnergyTrace(times=times, values=_energy(params, times), protocol=params)
    return trace, asymptotic_energy(params), window, t_end, dt


def occupation_snapshot(protocol: QuenchProtocol, t: float) -> list[tuple[float, float]]:
    """Lower-band occupation versus momentum k = 2 pi q / n_dimers at time t."""
    occ = occupations_all(protocol, t)
    q = np.arange(protocol.n_dimers) + 0.5
    k = 2.0 * np.pi * q / protocol.n_dimers
    return [(float(ki), float(n2)) for ki, n2 in zip(k, occ[:, 1])]


# ----------------------------------------------------------------------
# per-point regime extraction (sweep and scaling rows)
# ----------------------------------------------------------------------

def _windowed_argmax(
    times: np.ndarray, values: np.ndarray, protocol, lo: int, hi: int
) -> tuple[float, float, bool]:
    """(tau, e, on_edge) of the maximum over the window's span lo..hi-1 (``_window_span``),
    refined with the neighbours outside it; on_edge if it is sample lo or hi-1.  Never warns.
    RegimeDetectionError says "no charging occurred in the recurrence window"
    when that maximum is not above the noise floor of ``protocol``.

    ``values`` need only hold the samples that can be the maximum and their
    neighbours; a sweep row passes -inf at every other sample
    (``_screened_values``), which leaves the pick and its refinement as on
    the whole grid.  Flat charging bands (delta0 + delta1 = 1) make the trace
    exactly periodic, so np.argmax picks among maxima equal up to rounding by
    their last bits: at delta0 = 0.2 on the Fig-3 line (n = 300), 13 samples
    lie within 5.7e-14, five of them hold the same exactly rounded maximum
    (``quench._exact_energy``), and the pick, the first of those, is
    tau_r = 714.712.  ROADMAP item 1's earliest-peak rule fixes it.
    """
    j = lo + int(np.argmax(values[lo:hi]))
    floor = _noise_floor(protocol)
    if not values[j] > floor:
        raise RegimeDetectionError(
            f"no charging occurred in the recurrence window: its maximum {values[j]:.3g} "
            f"is not above noise floor {floor:.3g}"
        )
    return (*_refine_parabolic(times, values, j), j in (lo, hi - 1))


def _warn_edge_hits(rows) -> None:
    """One RecurrenceWindowWarning per row label (e.g. " of row 2 (delta0 = 0.1)"), in order."""
    for row in rows:
        warnings.warn(
            f"recurrence maximum{row} sits on a window edge; the window is likely misplaced",
            RecurrenceWindowWarning,
        )


# The short span is evaluated in segments of this many samples, then doubling.
_FIRST_SEGMENT = 64


def _short_time_max(times: np.ndarray, amp, freq, params) -> tuple[float, float]:
    """``find_short_time_max`` of the trace of the kernel tables (amp, freq) on ``times``,
    each growing segment on ``_phase_block_sum``, only until it holds the sample
    after the first maximum.

    A grid that holds it gives the same answer as any longer one, so the
    whole grid is evaluated only when no maximum is found, and then fails as
    the whole trace does.
    """
    values = np.empty(times.size)
    hi = 0
    while True:
        lo, hi = hi, min(times.size, max(2 * hi, _FIRST_SEGMENT))
        values[lo:hi] = _phase_block_sum(times[lo:hi], amp.ravel(), freq.ravel())
        try:
            return find_short_time_max(EnergyTrace(times[:hi], values[:hi], params))
        except RegimeDetectionError:
            if hi == times.size:
                raise


def _screen_slack(t_max: float, amp: np.ndarray, freq: np.ndarray) -> float:
    """beta, a bound on |phase-block screen - exact sum| at times up to ``t_max`` for the
    chain-mode tables (amp, freq): 64 eps (t_max sum|amp freq| + M sum|amp|), M modes.

    The first term covers the phases' rounding, the second the sums'.
    """
    scale = t_max * np.sum(np.abs(amp * freq)) + amp.size * np.sum(np.abs(amp))
    return 64.0 * np.finfo(float).eps * float(scale)


def _screened_values(times, amp, freq, lo: int, hi: int) -> np.ndarray:
    """``_exact_energy`` at the window samples that may hold its maximum over lo..hi-1
    and at their neighbours; -inf at every other sample of ``times``.

    The window is screened with ``_phase_block_sum`` over the same tables, and
    the samples within 2 beta (:func:`_screen_slack`) of the screen's maximum
    over the span are kept: a sample off by at most beta either way cannot
    beat or tie the exact maximum from outside that set.
    """
    screen = _phase_block_sum(times, amp.ravel(), freq.ravel())
    near = np.zeros(times.size, dtype=bool)
    top = np.max(screen[lo:hi]) - 2.0 * _screen_slack(times[-1], amp, freq)
    near[lo:hi] = screen[lo:hi] >= top
    near[1:] |= near[:-1]  # numpy reads overlapping operands as if copied first
    near[:-1] |= near[1:]
    keep = np.flatnonzero(near)
    values = np.full(times.size, -np.inf)
    values[keep] = _exact_energy(times[keep], amp, freq)
    return values


def _regime_point(params, window) -> tuple[float, float, float, float, float, bool]:
    """(tau_s, e_s, e_inf, tau_r, e_r, on_edge) of one XY or Ising parameter set; never warns.

    The row takes the supplier's kernel tables once (``resolution_bound`` and
    ``asymptotic_energy`` build its chain tables again) and runs one recipe
    for both models.  The short span runs on ``_phase_block_sum`` in growing
    segments (:func:`_short_time_max`), so (tau_s, e_s) equal those of the
    whole short grid to rounding.  The recurrence window is screened with the
    same kernel, and only the samples near the screen's maximum, with their
    neighbours, are summed again with ``quench._exact_energy``
    (:func:`_screened_values`), whose bits do not depend on the grid: the
    row's (tau_r, e_r, on_edge) equal those of the exact sum over the whole
    window bit for bit, tied maxima of flat charging bands included.  The
    re-evaluation is temporary: once an earliest-peak rule settles the tied
    maxima (ROADMAP item 1), the screen alone can decide the window.
    """
    bound = resolution_bound(params)
    dt = DT_SAFETY * bound
    short = _uniform_times(0.0, DEFAULT_SHORT_SPAN, dt, bound)
    win_times = _uniform_times(*window, dt, bound)
    span = _window_span(win_times, window)
    # the work budget grows with the grid, so checking the longer grid checks both
    _, amp, freq = params.kernel_tables(max(short, win_times, key=len))
    tau_s, e_s = _short_time_max(short, amp, freq, params)
    values = _screened_values(win_times, amp, freq, *span)
    tau_r, e_r, on_edge = _windowed_argmax(win_times, values, params, *span)
    return tau_s, e_s, asymptotic_energy(params), tau_r, e_r, on_edge


def _sweep_rows(name, grid, params, window=None):
    """One SweepRow per grid value of ``name``, energies divided by the system size.

    Each row's recurrence is searched in ``window``, its None sides from the
    row's default.
    """
    points = [_regime_point(p, _recurrence_window(window, p)) for p in params]
    _warn_edge_hits(
        f" of row {i} ({name} = {x})" for i, (x, point) in enumerate(zip(grid, points)) if point[-1]
    )
    return [
        SweepRow(x, e_s / p.size, e_r / p.size, e_inf / p.size, tau_s, tau_r)
        for x, p, (tau_s, e_s, e_inf, tau_r, e_r, _) in zip(grid, params, points)
    ]


def sweep_delta0(
    gamma: float,
    delta1: float,
    n_dimers: int,
    delta0_grid,
    *,
    workers: int | None = None,
    window: tuple[float | None, float | None] | None = None,
) -> list[SweepRow]:
    """Regime energies per dimer across a grid of initial dimerizations.

    E^s and E^r peak where the charging chain is fully dimerized
    (delta0 + delta1 = 1); E^r additionally spikes where the charging chain
    is critical (gamma (delta0 + delta1) = 1 or delta0 + delta1 = gamma).
    A None side of the recurrence ``window`` (min, max) keeps its default side.
    ``workers`` is accepted for compatibility and changes nothing: rows run
    one after the other in the calling thread.
    """
    grid = [float(d) for d in delta0_grid]
    protocols = [QuenchProtocol(gamma, d0, delta1, n_dimers) for d0 in grid]
    return _sweep_rows("delta0", grid, protocols, window)


def sweep_field(
    h1: float,
    n_sites: int,
    h0_grid,
    *,
    workers: int | None = None,
    window: tuple[float | None, float | None] | None = None,
) -> list[SweepRow]:
    """Ising analogue of :func:`sweep_delta0`, normalized per site; ``workers``
    changes nothing."""
    grid = [float(h0) for h0 in h0_grid]
    params = [IsingParams(h0, h1, n_sites) for h0 in grid]
    return _sweep_rows("h0", grid, params, window)


def scaling_study(
    gamma: float,
    delta0: float,
    delta1: float,
    n_list,
    *,
    workers: int | None = None,
) -> list[ScalingRow]:
    """Per-dimer regime energies and recurrence time across system sizes, one
    :func:`sweep_delta0` row per size; ``workers`` changes nothing."""
    # each size passes the supplier's own check before int(), which would truncate 5.7
    sizes = [int(QuenchProtocol(gamma, delta0, delta1, n).n_dimers) for n in n_list]
    if any(n < 5 for n in sizes):
        raise ValueError("scaling sizes below n_dimers = 5 show no regime structure")
    protocols = [QuenchProtocol(gamma, delta0, delta1, n) for n in sizes]
    rows = _sweep_rows("n_dimers", sizes, protocols)
    return [ScalingRow(n, r.e_s_per, r.e_r_per, r.e_inf_per, r.tau_r) for n, r in zip(sizes, rows)]


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line y = a x + b through at least two distinct x; returns (a, b, R^2).

    ValueError, naming the input, unless x and y are finite 1-D arrays of one length.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    for name, values in (("x", x), ("y", y)):
        if values.ndim != 1:
            raise ValueError(f"{name} must be a 1-D array, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values[~np.isfinite(values)][0]}")
    if x.size != y.size:
        raise ValueError(f"x and y must have equal lengths, got {x.size} and {y.size}")
    if np.unique(x).size < 2:
        raise ValueError("a line fit needs at least two distinct x values")
    a, b = np.polyfit(x, y, 1)
    resid = y - (a * x + b)
    total = y - np.mean(y)
    ss_tot = float(total @ total)
    r2 = 1.0 - float(resid @ resid) / ss_tot if ss_tot > 0 else 1.0
    return float(a), float(b), r2
