"""Double-quench charging dynamics of the dimerized XY battery.

The chain starts in the even-sector ground state at dimerization delta0, is
driven for t in [0, tau] by the same chain at delta0 + delta1, and the
stored energy is the battery-Hamiltonian expectation measured above the
ground state.  Each mode q holds two Majorana chains (``xy._xy_chains``),
chain s being band s: with |d|, |d'| the battery and charger norms and dphi
the angle between d and d', the band occupation and stored energy are

    n_{s,q}(t) = sin^2 dphi sin^2(2 |d'| t),    dE(t) = sum_{s,q} 2 |d| n_{s,q}(t)

which ``occupations_all`` and ``asymptotic_energy`` evaluate as written; a
zero-energy battery mode (|d| = 0) has occupation 0.

``energy_at_times``, the XY time kernel, evaluates the same sum as

    dE(t) = sum_{s,q} |d| sin^2 dphi [1 - cos(2 w_s' t)]

with one cosine column per chain, so dE(0) = 0 exactly, as is every dE(t)
of a null quench (delta1 = 0).  Both evaluator names, ``"full"`` and
``"simplified"``, run this sum.  Its frequencies 2 w_s' are the charger's 4x4
Bloch bands (``_bloch_bands``, the one eigensolve here), not the closed form
4 |d'|, which differs from them in the last bits: on flat charging bands
(delta0 + delta1 = 1) several window samples tie for the maximum, and which
one comes first depends on those bits.  The kernel runs ascending mode tiles
in chunks of times, adding each tile's rows into a compensated pair per
chunk, so its memory grows neither with the modes nor with the times.  Each
sample depends only on its own time, so every grid splits into contiguous
shares over min(cores, a sweep's ``workers``, samples) threads (numpy
releases the GIL in the trig, the einsum and the reduction); the result
depends neither on the thread count nor on the tile size, and a sample's
bits not on the grid it is part of.  ``_xy_tables`` builds the tables and
``_xy_kernel`` runs them, so a sweep row builds them once for all its calls.

Engines keep nothing between calls.  The helpers under "scaffolding shared
with the Ising closed form" (time checks, the phase-block kernel and the
trace grid) serve both models.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .sums import ROW_BY_ROW, add_rows, compensated_sum
from .xy import (
    ChainParams,
    _check_finite,
    _check_parameters,
    _xy_chains,
    dispersion_curves,
)

__all__ = [
    "QuenchProtocol",
    "EnergyTrace",
    "occupations_all",
    "energy_at_times",
    "energy_trace",
    "asymptotic_energy",
    "resolution_bound",
]

# A frequency at most this large is treated as static: it belongs to the
# time-independent part of the energy.
EQUAL_FREQ_TOL = 1e-10

# A resolution bound pi / (SAMPLES_PER_PERIOD_FACTOR f) puts 2 x this many
# samples on one period of the frequency f it is given.
SAMPLES_PER_PERIOD_FACTOR = 10.0

# Largest trace grid accepted; checked before the grid is allocated.
MAX_SAMPLES = 10**7

# Largest modes x samples of one energy_at_times or ising_energy_at_times
# call; checked before any per-mode table is built.
MAX_MODE_SAMPLES = 10**9

# Largest |t| any engine, the oracle or occupations_all accepts.  Parameters
# up to 1e6 in magnitude keep every frequency below ~4e12, so every phase
# w t stays finite.
MAX_TIME = 1e100

# _TILE_ELEMENTS floats is 512 KB, a core's cache.  Every thread of the XY
# kernel runs its share in chunks of _TILE_ELEMENTS // 2 times, one mode's
# (2 chains x times) phase table, and each chunk in tiles of as many modes as
# fit their phases in _TILE_ELEMENTS (at least one mode); a tile taller than
# sums.ROW_BY_ROW fits its phases, energies and reduction buffers, 6 floats
# per mode and time, instead.  The phase-block kernel's
# temporaries hold _BLOCK_ELEMENTS together, those of a sweep row's window
# screen _TILE_ELEMENTS.  _WORKERS bounds the threads: a sweep's or scaling
# run's ``workers``, else None (no bound).
_TILE_ELEMENTS = 2**16
_BLOCK_ELEMENTS = 10**7
_WORKERS = contextvars.ContextVar("workers", default=None)

# A grid is uniform for the phase-block kernel when it departs from an exact
# arithmetic progression by at most this many ulp of its largest time.
_UNIFORM_ULPS = 4


@dataclass(frozen=True)
class QuenchProtocol:
    """Double quench of the dimerization at fixed anisotropy.

    The battery Hamiltonian uses delta0, the charging Hamiltonian
    delta0 + delta1.  delta1 = 0 is legal and stores no energy.
    """

    gamma: float
    delta0: float
    delta1: float
    n_dimers: int

    def __post_init__(self):
        # ChainParams re-validates gamma/n_dimers; the dimerizations it is
        # given are checked here first so that errors name the inputs.
        _check_parameters(delta0=self.delta0, delta1=self.delta1)
        for name, value in (("delta0", self.delta0), ("delta1", self.delta1)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        _check_parameters(**{"delta0 + delta1": self.delta0 + self.delta1})
        ChainParams(self.gamma, self.delta0, self.n_dimers)


@dataclass(frozen=True)
class EnergyTrace:
    """Stored energy sampled on an ascending time grid (units of 1/J).

    ``protocol`` is whatever parameter object generated the trace (a
    :class:`QuenchProtocol` here, the transverse-field parameters for the
    Ising closed form).
    """

    times: np.ndarray
    values: np.ndarray
    protocol: object

    def __post_init__(self):
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if len(self.times) and np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly ascending")
        self.times.setflags(write=False)
        self.values.setflags(write=False)


# ----------------------------------------------------------------------
# scaffolding shared with the Ising closed form
# ----------------------------------------------------------------------

def _as_times(times) -> np.ndarray:
    """``times`` as a float array; ValueError unless it is 1-D with every |t| <= MAX_TIME."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    if not (np.abs(times) <= MAX_TIME).all():
        raise ValueError(f"times must be finite and at most {MAX_TIME:.0e} in magnitude")
    return times


def _engine_times(size_name: str, size: int, modes: int, times) -> np.ndarray:
    """``times`` as a float array, checked before any per-mode table is built.

    ValueError unless it is 1-D, finite and >= 0 and modes x len(times) fits
    MAX_MODE_SAMPLES; the message names the size and, if it differs, the modes.
    """
    times = _as_times(times)
    if times.size and float(np.min(times)) < 0:
        raise ValueError("times must be >= 0")
    if modes * times.size > MAX_MODE_SAMPLES:
        counted = "" if modes == size else f" ({modes} modes)"
        raise ValueError(
            f"{size_name}={size}{counted} x {times.size} samples exceeds the engine's work budget "
            f"of {MAX_MODE_SAMPLES:.0e} mode-samples; raise dt or lower {size_name}"
        )
    return times


def _phase_block(times: np.ndarray) -> tuple[int, float]:
    """(B, step): B = ceil(sqrt(T)) if ``times`` is uniform, else (1, 0.0).

    Uniform means every t_j lies within _UNIFORM_ULPS ulp of max|t| of
    t_0 + j step, with step = (t_{T-1} - t_0) / (T - 1).
    """
    n = times.size
    if n < 2:
        return 1, 0.0
    step = (times[-1] - times[0]) / (n - 1)
    drift = np.max(np.abs(times - (times[0] + step * np.arange(n))))
    if drift > _UNIFORM_ULPS * np.finfo(float).eps * np.max(np.abs(times)):
        return 1, 0.0
    return math.isqrt(n - 1) + 1, float(step)


def _phase_block_sum(
    times: np.ndarray, amp: np.ndarray, freq: np.ndarray, budget: int | None = None
) -> np.ndarray:
    """sum_q amp_q [1 - cos(freq_q t)] at every time t of ``times``, by phase blocks.

    The grid is cut into blocks of B times t_b + j step (j < B, see
    :func:`_phase_block`), and with x = f t_b, y = f j step,

        1 - cos(x + y) = (1 - cos x) + cos x (1 - cos y) + sin x sin y.

    The phases x at the block starts are computed directly, so no rounding
    carries from block to block, and the y part is one (B x M) table per call:
    each block column j of the trace is two matrix-vector products,
    (blocks x M) @ (M,), with no trigonometric call per sample.  Each term is
    small where dE is, so dE(0) = 0 exactly.  Modes are taken in tiles whose
    temporaries hold at most ``budget`` (None: _BLOCK_ELEMENTS) floats
    together, and the tiles are summed in ascending order.  A matrix-vector
    product gives every output element to one BLAS thread, so a result
    depends only on the grid, the modes and the budget, not on the BLAS
    thread count.
    """
    block, step = _phase_block(times)
    starts = times[::block]
    offsets = step * np.arange(block)
    tile = max(1, (budget or _BLOCK_ELEMENTS) // (3 * starts.size + 2 * block))
    out = np.zeros((starts.size, block))
    for lo in range(0, amp.size, tile):
        out += _phase_tile(starts, offsets, amp[lo : lo + tile], freq[lo : lo + tile])
    return out.ravel()[: times.size]


def _phase_tile(starts, offsets, a, f) -> np.ndarray:
    """(blocks, B) sums over the modes (a, f) of a [1 - cos(f (t_b + offset_j))]."""
    y = np.multiply.outer(offsets, f)
    sin_y = np.sin(y)
    np.subtract(1.0, np.cos(y, out=y), out=y)
    x = np.multiply.outer(starts, f)
    cos_x = np.cos(x)
    np.sin(x, out=x)
    xa, ca = np.multiply(x, a, out=x), cos_x * a
    out = np.column_stack([xa @ s + ca @ c for s, c in zip(sin_y, y)])
    out += (np.subtract(1.0, cos_x, out=cos_x) @ a)[:, None]
    return out


def _cores() -> int:
    """CPUs this process may run on: its affinity mask, not the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fill_blocks(fill, size: int, width: int) -> None:
    """``fill(lo, hi)`` over consecutive chunks of at most ``width`` that cover range(size).

    The grid splits into k = min(cores, :data:`_WORKERS`, size) contiguous
    shares, of lengths within one, each run in chunks of ``width`` (its last
    one shorter).  At k = 1 the caller runs the one share, unpinned.
    Otherwise share j runs on a thread pinned to every k-th CPU of the
    affinity mask from the j-th on: a scheduler that does not balance load
    keeps a thread on the core that started it.  Threads run in copies of
    the caller's context, so ``np.errstate`` holds in them.  The first
    exception of any share is raised once all have stopped.  An interrupt
    while waiting is raised at once, and each thread stops after its current
    chunk; in the XY kernel that is up to _TILE_ELEMENTS // 2 times x all
    modes, the price of one budget for a chunk's memory and its length.
    """
    budget = _WORKERS.get()
    threads = max(1, min(_cores(), size if budget is None else budget, size))
    pin = threads > 1 and hasattr(os, "sched_setaffinity")
    cpus = sorted(os.sched_getaffinity(0)) if pin else []
    errors = []

    def share(j: int) -> None:
        try:
            if cpus:
                os.sched_setaffinity(0, cpus[j::threads] or cpus)
            end = (j + 1) * size // threads
            for lo in range(j * size // threads, end, width):
                if errors:
                    return
                fill(lo, min(lo + width, end))
        except BaseException as exc:
            errors.append(exc)

    if threads == 1:
        share(0)
    else:
        workers = [
            threading.Thread(target=contextvars.copy_context().run, args=(share, j))
            for j in range(threads)
        ]
        for worker in workers:
            worker.start()
        try:
            for worker in workers:
                worker.join()
        except BaseException as exc:
            errors.append(exc)
            raise
    if errors:
        raise errors[0]


def _resolution_bound(fmax: float) -> float:
    """Largest step with twenty samples per period of the frequency fmax > 0."""
    return np.pi / (SAMPLES_PER_PERIOD_FACTOR * fmax)


def _uniform_times(start: float, end: float, dt: float, bound: float) -> np.ndarray:
    """The grid {start, start + dt, ...} up to end, dt <= bound; errors name [start, end]."""
    _check_finite(t_end=end, dt=dt)
    if dt <= 0 or end <= start:
        raise ValueError("dt and t_end must be positive")
    if dt > bound:
        raise ValueError(
            f"dt={dt} too coarse to resolve the fastest charging frequency; "
            f"need dt <= {bound:.6e}"
        )
    if (end - start) / dt >= MAX_SAMPLES:
        raise ValueError(
            f"dt={dt} puts more than {MAX_SAMPLES} samples on [{start}, {end}]; raise dt"
        )
    return start + dt * np.arange(int(np.floor((end - start) / dt)) + 1)


def _build_trace(energy, bound, params, t_end: float, dt: float) -> EnergyTrace:
    """``energy(params, times)`` on {0, dt, 2dt, ...} up to t_end, dt <= bound(params)."""
    times = _uniform_times(0.0, t_end, dt, bound(params))
    return EnergyTrace(times=times, values=energy(params, times), protocol=params)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def occupations_all(protocol: QuenchProtocol, t: float) -> np.ndarray:
    """Quasiparticle occupations (n1, n2) of every mode at time t >= 0.

    Shape (n_dimers, 2); row i is the mode q = i + 1/2.  Evaluates
    n_s = sin^2 dphi sin^2(2 |d'| t) per chain s; 0 where |d| or |d'| is 0.
    """
    if not abs(t) <= MAX_TIME:
        raise ValueError(f"t must be finite and at most {MAX_TIME:.0e} in magnitude, got {t}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    _, norm_p, sin2_dphi = _xy_chains(
        protocol.gamma, protocol.delta0, protocol.delta1, protocol.n_dimers
    )
    return sin2_dphi * np.sin(2.0 * norm_p * t) ** 2


def _bloch_bands(gamma: float, delta: float, n_dimers: int) -> np.ndarray:
    """Bands (n_dimers, 2), w1 >= w2 >= 0, of every mode's 4x4 Bloch matrix H_q.

    With Z = -((1 + d) + (1 - d) e^{-ik}), W = -g ((1 + d) - (1 - d) e^{-ik}) at
    k = 2 pi q / n_dimers, and rows particle-A, particle-B, hole-A, hole-B,

        H_q = [[0, Z, 0, -W], [Z*, 0, W*, 0], [0, W, 0, -Z], [-W*, 0, -Z*, 0]]

    and the chain is (J/2) sum_q Psi_q^dag H_q Psi_q, so the eigenvalues are
    +-w1, +-w2.  They are ``eigh``'s, whose bits ``eigvalsh`` does not keep.
    """
    phase = np.exp(-1j * (2.0 * np.pi * (np.arange(n_dimers) + 0.5) / n_dimers))
    z = -((1.0 + delta) + (1.0 - delta) * phase)
    w = -gamma * ((1.0 + delta) - (1.0 - delta) * phase)
    h = np.zeros((n_dimers, 4, 4), dtype=complex)
    h[:, 0, 1], h[:, 1, 0], h[:, 2, 3], h[:, 3, 2] = z, np.conj(z), -z, -np.conj(z)
    h[:, 2, 1], h[:, 1, 2], h[:, 0, 3], h[:, 3, 0] = w, np.conj(w), -w, -np.conj(w)
    vals = np.linalg.eigh(h)[0]  # ascending (-w1, -w2, +w2, +w1)
    return np.maximum(vals[:, [3, 2]], 0.0)


def _xy_tables(protocol: QuenchProtocol, times):
    """(times, amp, freq) of the XY time kernel: ``times`` checked (``_engine_times``),
    then both chains' tables, shape (n_dimers, 2), built once.

    dE(t) = sum_{q,s} amp [1 - cos(freq t)], with amp = |d| sin^2 dphi from the
    closed form and freq = 2 w_s' from the charger's Bloch bands, one eigh.
    """
    times = _engine_times("n_dimers", protocol.n_dimers, protocol.n_dimers, times)
    g, d, n = protocol.gamma, protocol.delta0, protocol.n_dimers
    norm, _, sin2_dphi = _xy_chains(g, d, protocol.delta1, n)
    return times, norm * sin2_dphi, 2.0 * _bloch_bands(g, d + protocol.delta1, n)


def _xy_kernel(times: np.ndarray, amp: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """The XY time kernel of the module docstring over the tables of :func:`_xy_tables`.

    :func:`_fill_blocks` splits the times over threads in chunks of
    _TILE_ELEMENTS // 2; inside a chunk of T times the modes run in ascending
    tiles, at least one mode, whose rows are added in ascending-q order into
    the chunk's compensated pair (one ``add_rows`` call per tile).  A tile's
    (tile, 2, T) phases hold at most _TILE_ELEMENTS floats, and so do its
    phases, (tile, T) energies and add_rows' (tile + 1, T) buffers together
    once it has more than ``sums.ROW_BY_ROW`` rows.  Each sample sees the
    same operations in the same order, whatever the grid it is part of, the
    chunk length, the tile size or the thread count.
    """
    e_cos = -amp
    e_const = amp[:, 0] + amp[:, 1]
    n, f = freq.shape
    out = np.empty(times.size, dtype=float)

    def fill(lo: int, hi: int) -> None:
        t = times[lo:hi]
        rows = max(1, _TILE_ELEMENTS // (f * t.size))
        if rows > ROW_BY_ROW:  # a taller tile also fills add_rows' three (rows + 1, T) buffers
            rows = max(1, _TILE_ELEMENTS // ((f + 4) * t.size))
        rows = min(n, rows)
        phase = np.empty((rows, f, t.size))
        e = np.empty((rows, t.size))
        work = np.empty((3, rows + 1, t.size))
        total, comp = np.zeros((2, t.size))
        for a in range(0, n, rows):
            q, k = slice(a, a + rows), min(rows, n - a)
            ph = np.multiply.outer(freq[q], t, out=phase[:k])
            np.einsum("nf,nft->nt", e_cos[q], np.cos(ph, out=ph), out=e[:k])
            e[:k] += e_const[q, None]
            add_rows(e[:k], total, comp, work)
        out[lo:hi] = total + comp

    _fill_blocks(fill, times.size, max(1, _TILE_ELEMENTS // f))
    return out


def energy_at_times(
    protocol: QuenchProtocol, times: np.ndarray, evaluator: str = "full"
) -> np.ndarray:
    """Stored energy on an arbitrary grid of times >= 0: :func:`_xy_kernel` over
    :func:`_xy_tables`, one cosine column per chain."""
    if evaluator not in ("full", "simplified"):
        raise ValueError(f"evaluator must be 'full' or 'simplified', got {evaluator!r}")
    return _xy_kernel(*_xy_tables(protocol, times))


def resolution_bound(protocol: QuenchProtocol) -> float:
    """Largest trace step that still resolves the fastest oscillation.

    The bound is dt <= pi / (10 max_q(w1' + w2')).  The fastest column of
    the table is 2 max_q w1', and max_q w1' <= max_q(w1' + w2') <= 2 max_q w1',
    so this gives 10 to 20 samples per period of it.
    """
    charging = dispersion_curves(
        protocol.gamma, protocol.delta0 + protocol.delta1, protocol.n_dimers
    )
    return _resolution_bound(float(np.max(charging[:, 0] + charging[:, 1])))


def energy_trace(protocol: QuenchProtocol, t_end: float, dt: float) -> EnergyTrace:
    """Stored energy on the uniform grid {0, dt, 2dt, ...} up to t_end.

    t_end plays the role of the charging duration tau: once the quench is
    switched off the battery Hamiltonian conserves its own expectation, so
    the stored energy simply stays frozen at the last value of the trace.

    Rejects steps coarser than :func:`resolution_bound`; an aliased grid
    would silently corrupt downstream regime detection.
    """
    return _build_trace(energy_at_times, resolution_bound, protocol, t_end, dt)


def asymptotic_energy(protocol: QuenchProtocol) -> float:
    """Time-independent part of the stored energy (infinite-time average).

    The exactly rounded sum of |d| sin^2 dphi over the modes of both chains
    whose frequency 4 |d'| exceeds ``EQUAL_FREQ_TOL``; a mode of a flat
    charging band (a gap closing) does not oscillate and stores nothing.
    """
    norm, norm_p, sin2_dphi = _xy_chains(
        protocol.gamma, protocol.delta0, protocol.delta1, protocol.n_dimers
    )
    return compensated_sum((norm * sin2_dphi)[4.0 * norm_p > EQUAL_FREQ_TOL])
