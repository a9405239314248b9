"""Double-quench charging dynamics of the dimerized XY battery.

The chain starts in the even-sector ground state at dimerization delta0, is
driven for t in [0, tau] by the same chain at delta0 + delta1, and the
stored energy is the battery-Hamiltonian expectation measured above the
ground state.  Per mode q everything follows from the unitary matching
matrix M_q between the two quasiparticle bases: with
D(t) = diag(e^{-i w1' t}, e^{-i w2' t}, e^{+i w1' t}, e^{+i w2' t}) and
T(t) = M_q^dag D(t) M_q, the band occupations are

    n_{s,q}(t) = |T_{s,3}(t)|^2 + |T_{s,4}(t)|^2      (s = 1, 2)

which ``occupations_all`` evaluates as written.  The energy kernel
(``_energy_tables``) expands them instead into a constant plus oscillations
at w1'-w2', 2 w1', w1'+w2', 2 w2': the paper's quadruple sum over the
matching-matrix entries (both cosine families, overall factor 2).  The test
suite checks the printed sum against the occupations, the occupations
against the energies, and both against brute-force exact diagonalization.

``energy_at_times`` is the XY time kernel.  It accepts both evaluator
names, ``"full"`` and ``"simplified"``, and runs this same sum for either.
Before its time loop it drops every frequency column whose total weight
sum_q (|e_cos| + |e_sin|) is at most eps sum_q |e_const|: such a column
cannot move a result by more than one rounding unit of its scale.  The
matching matrix of a gapped chain does not mix the two bands, so the two
cross-band columns fall under that rule and only 2 w1' and 2 w2' run; the
band-diagonal truncation is this rule and needs no path of its own.  Where
the charging bands are nearly degenerate (gamma (delta0 + delta1) ~ 0),
``eigh`` mixes them, the w1'+w2' column carries weight and is kept; up to
all four columns can be.

Each output sample depends only on its own time, so the kernel spreads its
time blocks over threads (numpy releases the GIL in the trig, the einsum and
the reduction's array operations).  A grid that the serial loop would cut
into b blocks runs on min(cores, b) threads, each on its own share of the
process's CPUs and taking blocks 1/threads as long, so all threads together
hold one serial block's memory; a grid of one block, and every call inside a
process-pool worker (which already owns one core), stays on the calling
thread.  The result does not depend on the thread count.

Engines keep nothing between calls: each call builds the per-mode tables it
needs once and drops them when it returns.  The helpers under "scaffolding
shared with the Ising closed form" (time checks, the phase-block kernel and
the trace grid) serve both models.
"""

from __future__ import annotations

import contextvars
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .sums import compensated_sum, compensated_sum_axis0
from .xy import (
    ChainParams,
    _check_finite,
    _check_parameters,
    bloch_stack,
    dispersion_curves,
    eigensystem_stack,
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

# A frequency column at most this large is treated as static: it belongs to
# the time-independent part of the energy.
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

# An XY kernel block holds at most _TIME_BLOCK times and _BLOCK_ELEMENTS floats
# per temporary (modes x kept columns x times).  With all 4 frequency columns
# kept (a gapped chain keeps 2), full blocks of 4096 times fit up to 600 XY
# modes (2400 floats per time).  When k threads share the blocks, each runs
# blocks 1/k as long, so the memory in flight stays one block's worth.  The
# phase-block kernel's temporaries hold _BLOCK_ELEMENTS together.
_TIME_BLOCK = 4096
_BLOCK_ELEMENTS = 10**7

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
        self.battery_params()
        self.charging_params()

    def battery_params(self) -> ChainParams:
        return ChainParams(self.gamma, self.delta0, self.n_dimers)

    def charging_params(self) -> ChainParams:
        return ChainParams(self.gamma, self.delta0 + self.delta1, self.n_dimers)


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


def _mode_data(protocol: QuenchProtocol):
    """Battery and charging bands and matching matrices M_q = V_q^dag U_q.

    Shapes (N, 2), (N, 2), (N, 4, 4); row i is the mode q = i + 1/2.
    """
    omega, u = eigensystem_stack(
        bloch_stack(protocol.gamma, protocol.delta0, protocol.n_dimers)
    )
    omega_p, v = eigensystem_stack(
        bloch_stack(protocol.gamma, protocol.delta0 + protocol.delta1, protocol.n_dimers)
    )
    m = np.conj(np.transpose(v, (0, 2, 1))) @ u
    return omega, omega_p, m


# Pair -> frequency bookkeeping of the energy kernel's expansion of |T|^2.
# Heisenberg phases are phi = (-w1', -w2', +w1', +w2'); pair (a, b) oscillates
# at phi_a - phi_b.
# Columns of the frequency table: [w1'-w2', 2 w1', w1'+w2', 2 w2'].
# Each entry: (a, b, column, sign of the sin coefficient).
_PAIR_TABLE = (
    (0, 1, 0, +1.0),
    (2, 3, 0, -1.0),
    (0, 2, 1, +1.0),
    (0, 3, 2, +1.0),
    (1, 2, 2, +1.0),
    (1, 3, 3, +1.0),
)


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


def _phase_block_sum(times: np.ndarray, amp: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """sum_q amp_q [1 - cos(freq_q t)] at every time t of ``times``, by phase blocks.

    The grid is cut into blocks of B times t_b + j step (j < B, see
    :func:`_phase_block`), and with x = f t_b, y = f j step,

        1 - cos(x + y) = (1 - cos x) + cos x (1 - cos y) + sin x sin y.

    The phases x at the block starts are computed directly, so no rounding
    carries from block to block, and the y part is one (B x M) table per call:
    each block column j of the trace is two matrix-vector products,
    (blocks x M) @ (M,), with no trigonometric call per sample.  Each term is
    small where dE is, so dE(0) = 0 exactly.  Modes are taken in tiles whose
    temporaries hold at most _BLOCK_ELEMENTS floats together, and the tiles
    are summed in ascending order.  A matrix-vector product gives every
    output element to one BLAS thread, so a result depends only on the grid,
    the modes and the budget, not on the BLAS thread count.
    """
    block, step = _phase_block(times)
    starts = times[::block]
    offsets = step * np.arange(block)
    tile = max(1, _BLOCK_ELEMENTS // (3 * starts.size + 2 * block))
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


def _kernel_threads(blocks: int) -> int:
    """Threads for a kernel of ``blocks`` serial blocks: min(cores, blocks), 1 in a pool worker.

    A sweep or scaling pool worker already owns one core.  A process that
    has not loaded multiprocessing cannot be one of its children, so the
    module is only asked where it is loaded.
    """
    mp = sys.modules.get("multiprocessing")
    if blocks <= 1 or (mp is not None and mp.parent_process() is not None):
        return 1
    return min(_cores(), blocks)


def _fill_blocks(fill, size: int, block: int) -> None:
    """``fill(lo, hi)`` over consecutive blocks that cover range(size).

    Serially, in the calling thread, that is ceil(size / block) blocks of
    ``block``.  With k = :func:`_kernel_threads` of that count above 1, the
    blocks shrink to block // k and k new threads take them in turn: thread
    j runs blocks j, j + k, j + 2k, ... on every k-th CPU of the process's
    affinity mask from the j-th on.  A scheduler that does not balance load
    (a cpuset with sched_load_balance = 0) keeps each thread on the core that
    started it, so unpinned threads can share one core.  Each thread runs in
    a copy of the caller's context, so numpy's error state (``np.errstate``)
    holds in all of them.  The first exception raised in any thread is
    raised here once all have stopped; an interrupt while waiting is raised
    at once, and the threads stop after their current block.
    """
    threads = _kernel_threads(-(-size // block))
    if threads == 1:
        for lo in range(0, size, block):
            fill(lo, lo + block)
        return
    width = max(1, block // threads)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    errors = []

    def share(first: int) -> None:
        try:
            if cpus:
                os.sched_setaffinity(0, cpus[first::threads] or cpus)
            for lo in range(first * width, size, threads * width):
                if errors:
                    return
                fill(lo, lo + width)
        except BaseException as exc:
            errors.append(exc)

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
    """Largest step with twenty samples per period of the frequency fmax."""
    if fmax == 0.0:
        return np.inf
    return np.pi / (SAMPLES_PER_PERIOD_FACTOR * fmax)


def _uniform_times(t_end: float, dt: float, bound: float) -> np.ndarray:
    """The grid {0, dt, 2dt, ...} up to t_end; dt may not exceed the resolution bound."""
    _check_finite(t_end=t_end, dt=dt)
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    if dt > bound:
        raise ValueError(
            f"dt={dt} too coarse to resolve the fastest charging frequency; "
            f"need dt <= {bound:.6e}"
        )
    if t_end / dt >= MAX_SAMPLES:
        raise ValueError(
            f"dt={dt} puts more than {MAX_SAMPLES} samples on [0, {t_end}]; raise dt"
        )
    return dt * np.arange(int(np.floor(t_end / dt)) + 1)


def _build_trace(energy, bound, params, t_end: float, dt: float) -> EnergyTrace:
    """``energy(params, times)`` on {0, dt, 2dt, ...} up to t_end, dt <= bound(params)."""
    times = _uniform_times(t_end, dt, bound(params))
    return EnergyTrace(times=times, values=energy(params, times), protocol=params)


# ----------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------

def occupations_all(protocol: QuenchProtocol, t: float) -> np.ndarray:
    """Quasiparticle occupations (n1, n2) of every mode at time t >= 0.

    Shape (n_dimers, 2); row i is the mode q = i + 1/2.  Evaluates
    n_s = |T_{s,3}|^2 + |T_{s,4}|^2 with T = M^dag D(t) M directly.
    """
    if not abs(t) <= MAX_TIME:
        raise ValueError(f"t must be finite and at most {MAX_TIME:.0e} in magnitude, got {t}")
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    _, omega_p, m = _mode_data(protocol)
    d = np.exp(1j * t * np.hstack([-omega_p, omega_p]))
    tm = np.conj(np.transpose(m, (0, 2, 1))) @ (d[:, :, None] * m)
    return np.sum(np.abs(tm[:, :2, 2:]) ** 2, axis=2)


def _energy_tables(protocol: QuenchProtocol):
    """``(freqs, e_const, e_cos, e_sin)``: the stored energy's Fourier tables.

    Each occupation |T_{s,j}|^2 expands over ``_PAIR_TABLE`` into a constant
    and cos/sin coefficients at [w1'-w2', 2 w1', w1'+w2', 2 w2']; the battery
    bands weight them.  Shapes (N, 4), (N,), (N, 4), (N, 4).
    """
    omega, omega_p, m = _mode_data(protocol)
    n = m.shape[0]
    w1p, w2p = omega_p[:, 0], omega_p[:, 1]
    freqs = np.column_stack([w1p - w2p, 2.0 * w1p, w1p + w2p, 2.0 * w2p])
    const = np.zeros((n, 2))
    cos_a = np.zeros((n, 2, 4))
    sin_b = np.zeros((n, 2, 4))
    for s in (0, 1):
        for j in (2, 3):
            g = np.conj(m[:, :, s]) * m[:, :, j]  # (N, 4) over the mode index
            const[:, s] += np.sum(np.abs(g) ** 2, axis=1)
            for a, b, col, sgn in _PAIR_TABLE:
                z = g[:, a] * np.conj(g[:, b])
                cos_a[:, s, col] += 2.0 * z.real
                sin_b[:, s, col] += sgn * 2.0 * z.imag
    e_const = np.sum(omega * const, axis=1)
    e_cos = np.einsum("ns,nsf->nf", omega, cos_a)
    e_sin = np.einsum("ns,nsf->nf", omega, sin_b)
    return freqs, e_const, e_cos, e_sin


def energy_at_times(
    protocol: QuenchProtocol, times: np.ndarray, evaluator: str = "full"
) -> np.ndarray:
    """Stored energy on an arbitrary grid of times >= 0.

    The XY time kernel.  Only the F frequency columns whose weight
    sum_q (|e_cos| + |e_sin|) exceeds eps sum_q |e_const| run: 2 on a gapped
    chain, up to 4 where ``eigh`` mixes nearly degenerate charging bands
    (see the module docstring).  Times are processed in blocks of at most
    _TIME_BLOCK, sized so that each (N, F, T) temporary holds at most
    _BLOCK_ELEMENTS floats, and spread over threads by :func:`_fill_blocks`.
    Modes are reduced in ascending-q order with compensated accumulation,
    so the result is independent of the block length, the thread count and
    how the per-mode work was scheduled.
    """
    if evaluator not in ("full", "simplified"):
        raise ValueError(f"evaluator must be 'full' or 'simplified', got {evaluator!r}")
    times = _engine_times("n_dimers", protocol.n_dimers, protocol.n_dimers, times)
    freqs, e_const, e_cos, e_sin = _energy_tables(protocol)
    weight = np.sum(np.abs(e_cos) + np.abs(e_sin), axis=0)
    keep = weight > np.finfo(float).eps * np.sum(np.abs(e_const))
    freqs, e_cos, e_sin = freqs[:, keep], e_cos[:, keep], e_sin[:, keep]
    block = max(1, min(_TIME_BLOCK, _BLOCK_ELEMENTS // max(1, freqs.size)))
    out = np.empty(times.size, dtype=float)
    reducing = threading.Lock()

    def fill(lo: int, hi: int) -> None:
        ph = freqs[:, :, None] * times[None, None, lo:hi]  # (N, F, T)
        # the sum order (const + cos part) + sin part fixes the bits; sines overwrite the phases
        e = np.einsum("nf,nft->nt", e_cos, np.cos(ph))
        e += e_const[:, None]
        e += np.einsum("nf,nft->nt", e_sin, np.sin(ph, out=ph))
        # one thread reduces at a time: each of the reduction's short numpy
        # calls releases the GIL, and two threads reducing together would pass
        # it back and forth between cores
        with reducing:
            out[lo:hi] = compensated_sum_axis0(e)

    _fill_blocks(fill, times.size, block)
    return out


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

    Every cosine column whose frequency is at most ``EQUAL_FREQ_TOL`` is
    time independent and enters the constant: the 2 w' terms of a band whose
    charging frequency vanishes (a flat band at a gap closing).  The w1'-w2'
    column, whose frequency vanishes where the charging bands are degenerate,
    carries no more than rounding there: ``eigh``'s mixing of such bands
    shows up in the w1'+w2' column instead.
    """
    freqs, e_const, e_cos, _ = _energy_tables(protocol)
    static = np.where(freqs <= EQUAL_FREQ_TOL, e_cos, 0.0)
    return compensated_sum(e_const + np.sum(static, axis=1))
