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

``energy_at_times``, the XY time kernel, builds its tables instead from the
matching matrix M_q = V_q^dag U_q between the battery's and the charger's 4x4
Bloch eigenbases (``_bloch_eigensystems``, the one eigensolve here): with
D(t) = diag(e^{-i w1' t}, e^{-i w2' t}, e^{+i w1' t}, e^{+i w2' t}) and
T = M_q^dag D M_q, n_s = |T_{s,3}|^2 + |T_{s,4}|^2 expands into a constant
plus oscillations at w1'-w2', 2 w1', w1'+w2', 2 w2': the paper's quadruple
sum (both cosine families, overall factor 2).  Both evaluator names,
``"full"`` and ``"simplified"``, run this sum.  Before its time loop it drops
every frequency column whose weight sum_q (|e_cos| + |e_sin|) is at most
eps sum_q |e_const|, which cannot move a result by more than one rounding
unit: on a gapped chain the two cross-band columns, so only 2 w1' and 2 w2'
run.  Where ``eigh`` mixes nearly degenerate charging bands
(gamma (delta0 + delta1) ~ 0) up to all four columns are kept.  Each sample
depends only on its own time, so the kernel splits every grid into
contiguous shares over min(cores, a sweep's ``workers``, samples) threads,
which together hold one serial block's memory (numpy releases the GIL in the
trig, the einsum and the reduction); the result does not depend on the
thread count.

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

from .sums import compensated_sum, compensated_sum_axis0
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

# An XY kernel block holds at most _TIME_BLOCK times and _BLOCK_ELEMENTS floats
# per temporary (modes x kept columns x times).  With all 4 frequency columns
# kept (a gapped chain keeps 2), full blocks of 4096 times fit up to 600 XY
# modes (2400 floats per time).  When k threads split a grid, each runs its
# share in blocks 1/k as long, so the memory in flight stays one block's
# worth.  The phase-block kernel's temporaries hold _BLOCK_ELEMENTS together.
# _WORKERS bounds the threads: a sweep's or scaling run's ``workers``, else None (no bound).
_TIME_BLOCK = 4096
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


def _fill_blocks(fill, size: int, block: int) -> None:
    """``fill(lo, hi)`` over consecutive blocks of at most ``block`` that cover range(size).

    k = min(cores, :data:`_WORKERS`, size) threads run k contiguous shares,
    of lengths within one, in blocks of block // k (at k = 1, the caller runs
    it all).  Thread j is pinned to every k-th CPU of the affinity mask from
    the j-th on: a scheduler that does not balance load keeps a thread on the
    core that started it.  Threads run in copies of the caller's context, so
    ``np.errstate`` holds in them.  The first exception of any thread is
    raised once all have stopped; an interrupt while waiting is raised at
    once, and the threads stop after their current block.
    """
    budget = _WORKERS.get()
    threads = min(_cores(), size if budget is None else budget, size)
    if threads <= 1:
        for lo in range(0, size, block):
            fill(lo, lo + block)
        return
    width = max(1, block // threads)
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
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


def _bloch_eigensystems(gamma: float, delta: float, n_dimers: int):
    """``(omegas, vecs)``: bands (n, 2) and eigenvectors (n, 4, 4) of every mode's H_q.

    With Z = -((1 + d) + (1 - d) e^{-ik}), W = -g ((1 + d) - (1 - d) e^{-ik}) at
    k = 2 pi q / n_dimers, and rows particle-A, particle-B, hole-A, hole-B,

        H_q = [[0, Z, 0, -W], [Z*, 0, W*, 0], [0, W, 0, -Z], [-W*, 0, -Z*, 0]]

    and the chain is (J/2) sum_q Psi_q^dag H_q Psi_q, so the eigenvalues are the
    bands, w1 >= w2 >= 0.  Columns are ordered (+w1, +w2, -w1, -w2), each phase
    fixed so its largest-modulus entry (the lowest row on a tie) is exactly real
    positive: FMA products can leave a one-ulp imaginary residue there, so that
    entry is overwritten with its modulus.
    """
    phase = np.exp(-1j * (2.0 * np.pi * (np.arange(n_dimers) + 0.5) / n_dimers))
    z = -((1.0 + delta) + (1.0 - delta) * phase)
    w = -gamma * ((1.0 + delta) - (1.0 - delta) * phase)
    h = np.zeros((n_dimers, 4, 4), dtype=complex)
    h[:, 0, 1], h[:, 1, 0], h[:, 2, 3], h[:, 3, 2] = z, np.conj(z), -z, -np.conj(z)
    h[:, 2, 1], h[:, 1, 2], h[:, 0, 3], h[:, 3, 0] = w, np.conj(w), -w, -np.conj(w)
    vals, vecs = np.linalg.eigh(h)
    order = [3, 2, 0, 1]  # eigh's ascending (-w1, -w2, +w2, +w1) -> (+w1, +w2, -w1, -w2)
    vecs = vecs[:, :, order]
    idx = np.argmax(np.abs(vecs), axis=1)[:, None, :]
    lead = np.take_along_axis(vecs, idx, axis=1)
    vecs = vecs * np.conj(lead) / np.abs(lead)
    rotated = np.take_along_axis(vecs, idx, axis=1)
    np.put_along_axis(vecs, idx, np.abs(rotated).astype(complex), axis=1)
    return np.maximum(vals[:, order[:2]], 0.0), vecs


def _energy_tables(protocol: QuenchProtocol):
    """``(freqs, e_const, e_cos, e_sin)``: the stored energy's Fourier tables.

    Each occupation |T_{s,j}|^2 expands over ``_PAIR_TABLE`` into a constant
    and cos/sin coefficients at [w1'-w2', 2 w1', w1'+w2', 2 w2']; the battery
    bands weight them.  Shapes (N, 4), (N,), (N, 4), (N, 4).
    """
    (omega, u), (omega_p, v) = (
        _bloch_eigensystems(protocol.gamma, delta, protocol.n_dimers)
        for delta in (protocol.delta0, protocol.delta0 + protocol.delta1)
    )
    m = np.conj(np.transpose(v, (0, 2, 1))) @ u  # matching matrices M_q = V_q^dag U_q
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

    The XY time kernel, on the F weighted frequency columns of the module
    docstring (2 on a gapped chain, up to 4).  Times run in blocks of at most
    _TIME_BLOCK, sized so that each (N, F, T) temporary holds at most
    _BLOCK_ELEMENTS floats, split over threads by :func:`_fill_blocks`.  Modes
    are reduced in ascending-q order with compensated accumulation, so the
    result is independent of the block length and the thread count.
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

    The exactly rounded sum of |d| sin^2 dphi over the modes of both chains
    whose frequency 4 |d'| exceeds ``EQUAL_FREQ_TOL``; a mode of a flat
    charging band (a gap closing) does not oscillate and stores nothing.
    """
    norm, norm_p, sin2_dphi = _xy_chains(
        protocol.gamma, protocol.delta0, protocol.delta1, protocol.n_dimers
    )
    return compensated_sum((norm * sin2_dphi)[4.0 * norm_p > EQUAL_FREQ_TOL])
