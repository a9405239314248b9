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

with one cosine column per chain, on the phase-block kernel that the Ising
closed form runs too (``_phase_block_sum``), so dE(0) = 0 exactly, as is
every dE(t) of a null quench (delta1 = 0).  Both evaluator names,
``"full"`` and ``"simplified"``, run this sum.  Its frequencies 2 w_s' are
the charger's 4x4 Bloch bands (``_bloch_bands``, the one eigensolve here),
not the closed form 4 |d'|, which differs from them in the last bits: on
flat charging bands (delta0 + delta1 = 1) several window samples tie for
the maximum, and which one comes first depends on those bits.  A sweep row
therefore settles its window candidates with ``_exact_energy``, which sums
the modes exactly rounded, so each sample keeps its bits on any grid it is
part of.  ``QuenchProtocol.kernel_tables`` builds the tables both kernels
run, so a sweep row builds them once for all its calls.

Each parameter class, :class:`QuenchProtocol` or ``ising.IsingParams``, is
a model supplier: its size and the size's name, closed-form chain-mode
tables (amp, freq = 4 |d'|), kernel tables, default window factors and the
ED oracle's (battery, charger) spin chains (``ed_kinds``), whose kinds
:class:`DimerizedXY` and ``ising.TransverseIsing`` ``ed`` re-exports.
The engines read only those, so each takes either class; one resolution
rule (``resolution_bound``) reads the chain-mode frequencies of both.
Engines keep nothing between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sums import compensated_sum, compensated_sum_axis0
from .xy import ChainParams, _check_finite, _check_parameters, _xy_chains

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

# _TILE_ELEMENTS floats is 2 MB.  The phase-block kernel's temporaries, and
# the phases and energies of one chunk of times of ``_exact_energy``, hold at
# most _TILE_ELEMENTS floats together, on either model's grid.
_TILE_ELEMENTS = 2**18

# A grid is uniform for the phase-block kernel when it departs from an exact
# arithmetic progression by at most this many ulp of its largest time.
_UNIFORM_ULPS = 4


@dataclass(frozen=True)
class DimerizedXY:
    """Battery chain: bonds 1 - (-1)^j delta with anisotropy gamma."""

    gamma: float
    delta: float


@dataclass(frozen=True)
class QuenchProtocol:
    """Double quench of the dimerization at fixed anisotropy.

    The battery Hamiltonian uses delta0, the charging Hamiltonian
    delta0 + delta1.  delta1 = 0 is legal and stores no energy.  The XY
    model supplier (module docstring).
    """

    gamma: float
    delta0: float
    delta1: float
    n_dimers: int

    size_name = "n_dimers"
    # Recurrence search window as multiples of the size: 300 dimers give [600, 800].
    window_factors = (2.0, 8.0 / 3.0)

    def __post_init__(self):
        # ChainParams re-validates gamma/n_dimers; the dimerizations it is
        # given are checked here first so that errors name the inputs.
        _check_parameters(delta0=self.delta0, delta1=self.delta1)
        for name, value in (("delta0", self.delta0), ("delta1", self.delta1)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        _check_parameters(**{"delta0 + delta1": self.delta0 + self.delta1})
        ChainParams(self.gamma, self.delta0, self.n_dimers)

    @property
    def size(self) -> int:
        return self.n_dimers

    def chain_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(amp, freq), shape (n_dimers, 2): |d| sin^2 dphi and 4 |d'| of both chains."""
        norm, norm_p, sin2_dphi = _xy_chains(self.gamma, self.delta0, self.delta1, self.n_dimers)
        return norm * sin2_dphi, 4.0 * norm_p

    def kernel_tables(self, times):
        """(times, amp, freq) of the time kernels: ``times`` checked (``_engine_times``),
        then both chains' tables, shape (n_dimers, 2), built once.

        dE(t) = sum_{q,s} amp [1 - cos(freq t)], with amp = |d| sin^2 dphi from the
        closed form and freq = 2 w_s' from the charger's Bloch bands, one eigh.
        """
        times = _engine_times(self, self.n_dimers, times)
        bands = _bloch_bands(self.gamma, self.delta0 + self.delta1, self.n_dimers)
        return times, self.chain_modes()[0], 2.0 * bands

    def ed_kinds(self) -> tuple[DimerizedXY, DimerizedXY]:
        """(battery, charger) spin chains of the ED oracle: delta0, then delta0 + delta1."""
        return (DimerizedXY(self.gamma, self.delta0),
                DimerizedXY(self.gamma, self.delta0 + self.delta1))


@dataclass(frozen=True)
class EnergyTrace:
    """Stored energy sampled on an ascending time grid (units of 1/J).

    ``protocol`` is the model supplier that generated the trace, or None.
    ValueError, naming the field, unless times and values are finite 1-D
    arrays of one shape and the times strictly ascend.
    """

    times: np.ndarray
    values: np.ndarray
    protocol: object

    def __post_init__(self):
        for name, array in (("times", self.times), ("values", self.values)):
            if array.ndim != 1 or not np.isfinite(array).all():
                raise ValueError(f"{name} must be a finite 1-D array, got shape {array.shape}")
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have matching shapes")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly ascending")
        self.times.setflags(write=False)
        self.values.setflags(write=False)


# ----------------------------------------------------------------------
# scaffolding shared by both models
# ----------------------------------------------------------------------

def _as_times(times) -> np.ndarray:
    """``times`` as a float array; ValueError unless it is 1-D with every |t| <= MAX_TIME."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a 1-D array, got shape {times.shape}")
    if not (np.abs(times) <= MAX_TIME).all():
        raise ValueError(f"times must be finite and at most {MAX_TIME:.0e} in magnitude")
    return times


def _engine_times(params, modes: int, times) -> np.ndarray:
    """``times`` as a float array, checked before any per-mode table of ``params`` is built.

    ValueError unless it is 1-D, finite and >= 0 and modes x len(times) fits
    MAX_MODE_SAMPLES; the message names the size and, if it differs, the modes.
    """
    times = _as_times(times)
    if times.size and float(np.min(times)) < 0:
        raise ValueError("times must be >= 0")
    if modes * times.size > MAX_MODE_SAMPLES:
        name, size = params.size_name, params.size
        counted = "" if modes == size else f" ({modes} modes)"
        raise ValueError(
            f"{name}={size}{counted} x {times.size} samples exceeds the engine's work budget "
            f"of {MAX_MODE_SAMPLES:.0e} mode-samples; raise dt or lower {name}"
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
    temporaries hold at most _TILE_ELEMENTS floats together, and the tiles
    are summed in ascending order.  A matrix-vector product gives every
    output element to one BLAS thread, so a result depends only on the grid
    and the modes, not on the BLAS thread count.
    """
    block, step = _phase_block(times)
    starts = times[::block]
    offsets = step * np.arange(block)
    tile = max(1, _TILE_ELEMENTS // (3 * starts.size + 2 * block))
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


def _exact_energy(times: np.ndarray, amp: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """sum_q amp_q [1 - cos(freq_q t)] at every time t of ``times``, exactly rounded over the modes.

    Either model's kernel tables, shape (M, F) with F chains per mode (XY's
    two bands) or (M,).  Each mode's energy sum_s amp_s - sum_s amp_s
    cos(freq_s t) is formed in the same operations at every sample, and the
    modes are added by ``compensated_sum_axis0``, so a sample keeps its bits
    on any grid it is part of: a sweep row evaluates only its window
    candidates and still picks among tied maxima as the whole grid would
    (module docstring).  The times run in chunks whose (M, F, T) phases and
    (M, T) energies hold at most _TILE_ELEMENTS floats together (at least
    one time).  It agrees with :func:`_phase_block_sum` to rounding.
    """
    amp, freq = amp.reshape(len(amp), -1), freq.reshape(len(freq), -1)
    e_cos, e_const = -amp, amp.sum(axis=1)
    width = max(1, _TILE_ELEMENTS // (freq.size + len(freq)))
    out = np.empty(times.size)
    for lo in range(0, times.size, width):
        ph = np.multiply.outer(freq, times[lo : lo + width])
        e = np.einsum("nf,nft->nt", e_cos, np.cos(ph, out=ph))
        e += e_const[:, None]
        out[lo : lo + width] = compensated_sum_axis0(e)
    return out


def _energy(params, times) -> np.ndarray:
    """Stored energy of either model on times >= 0: :func:`_phase_block_sum` over its kernel tables.

    The body of ``energy_at_times`` and ``ising.ising_energy_at_times``, which
    never call each other: ``bench/traced.py`` hooks both names and reads
    n_dimers off every ``energy_at_times`` call, so other engines call this.
    """
    times, amp, freq = params.kernel_tables(times)
    return _phase_block_sum(times, amp.ravel(), freq.ravel())


def energy_at_times(params, times: np.ndarray, evaluator: str = "full") -> np.ndarray:
    """Stored energy of either model on an arbitrary grid of times >= 0 (:func:`_energy`)."""
    if evaluator not in ("full", "simplified"):
        raise ValueError(f"evaluator must be 'full' or 'simplified', got {evaluator!r}")
    return _energy(params, times)


def resolution_bound(params) -> float:
    """Largest trace step that resolves the fastest oscillation: pi / (10 f), f the
    largest per-mode mean of the supplier's chain-mode frequencies 4 |d'|.

    An XY mode's two chains give f = 2 |d1'| + 2 |d2'| = w1' + w2' exactly,
    which lies between 2 max_q w1' and half of it, so 10 to 20 samples per
    period of the fastest column; Ising's one chain gives f = 2 w_q, 20 per
    period of the fastest chain.
    """
    freq = params.chain_modes()[1]
    fastest = float(np.max(freq.reshape(len(freq), -1).mean(axis=1)))
    return np.pi / (SAMPLES_PER_PERIOD_FACTOR * fastest)


def energy_trace(params, t_end: float, dt: float) -> EnergyTrace:
    """Stored energy on the uniform grid {0, dt, 2dt, ...} up to t_end.

    t_end plays the role of the charging duration tau: once the quench is
    switched off the battery Hamiltonian conserves its own expectation, so
    the stored energy simply stays frozen at the last value of the trace.

    Rejects steps coarser than :func:`resolution_bound`; an aliased grid
    would silently corrupt downstream regime detection.
    """
    times = _uniform_times(0.0, t_end, dt, resolution_bound(params))
    return EnergyTrace(times=times, values=_energy(params, times), protocol=params)


def asymptotic_energy(params) -> float:
    """Time-independent part of the stored energy (infinite-time average).

    The exactly rounded sum of the supplier's chain-mode amplitudes whose
    frequency 4 |d'| exceeds ``EQUAL_FREQ_TOL``; a mode of a flat charging
    band (a gap closing, never an Ising mode) does not oscillate and stores nothing.
    """
    amp, freq = params.chain_modes()
    return compensated_sum(amp[freq > EQUAL_FREQ_TOL])
