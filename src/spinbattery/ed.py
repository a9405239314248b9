"""Brute-force spin-space oracle for small chains.

Everything here works in raw spin space with periodic boundaries and knows
nothing about fermions or Bloch bands: it exists to verify the momentum-space
engines independently.  Both models commute with the parity
P = prod_j sz_j and with a translation T that moves every spin `step` sites
along the ring (two for the dimerized XY chain, one for Ising), so each
parity sector splits into L = N / step momentum sectors k = 2 pi m / L.
Each sector is assembled directly over orbit representatives, the textbook
momentum-state construction (Sandvik, AIP Conf. Proc. 1297, 135 (2010)); no
matrix over a whole parity sector, let alone the 2^N space, is ever built.
The initial state is the even-parity ground state, and the evolution stays
in its momentum sector.  Time evolution uses one full eigendecomposition of
the charging Hamiltonian's sector (no stepping error).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .quench import EnergyTrace, _as_times

__all__ = [
    "DimerizedXY",
    "TransverseIsing",
    "SpinHamiltonian",
    "DegenerateGroundStateWarning",
    "DegenerateGroundStateError",
    "check_oracle_size",
    "build_hamiltonian",
    "even_sector_ground_state",
    "oracle_energy_trace",
]

MAX_SITES = 14

# Largest (sector dim)^2 x samples an oracle run may ask for: the 14-site
# XY default grid (1172^2 x 501 = 6.9e8) fits.
MAX_EVOLUTION_WORK = 10**10

# Times per GEMM in oracle_energy_trace; bounds the block's temporaries.
_TIME_BLOCK = 64


@dataclass(frozen=True)
class DimerizedXY:
    """Battery chain: bonds 1 - (-1)^j delta with anisotropy gamma."""

    gamma: float
    delta: float


@dataclass(frozen=True)
class TransverseIsing:
    """H = (1/2) sum_j [sx_j sx_{j+1} + h sz_j]."""

    h: float


@dataclass(frozen=True)
class SpinHamiltonian:
    """The periodic spin Hamiltonian of ``kind`` on a ring of n_sites spins.

    It holds no matrix: the oracle assembles the (parity, momentum) sector
    blocks it needs on demand, each over that sector's orbit representatives.
    """

    n_sites: int
    kind: DimerizedXY | TransverseIsing


class DegenerateGroundStateWarning(UserWarning):
    """Ground state selection is ambiguous at the 1e-10 level."""


class DegenerateGroundStateError(RuntimeError):
    """The even-sector ground state is degenerate: there is no unique reference."""


def _site_bit(j: int, n: int) -> int:
    """Bit of site j (1-based, periodic) in a basis index; site 1 is the top bit."""
    return 1 << (n - 1 - (j - 1) % n)


def _check_sites(n_sites: int) -> None:
    if int(n_sites) != n_sites or not 2 <= n_sites <= MAX_SITES:
        raise ValueError(f"n_sites must be an integer in [2, {MAX_SITES}], got {n_sites}")


def _step(kind: DimerizedXY | TransverseIsing, n_sites: int) -> int:
    """Sites per translation that leaves ``kind`` on n_sites spins invariant."""
    if isinstance(kind, DimerizedXY):
        if n_sites % 2 != 0:
            raise ValueError("the dimerized XY chain needs an even number of sites")
        return 2
    if isinstance(kind, TransverseIsing):
        return 1
    raise TypeError(f"unknown Hamiltonian kind {kind!r}")


def _orbits(n_sites: int, step: int):
    """Orbits of every basis index under T, which moves site j to j + step.

    Returns (rep, shift, period, parity, length): the orbit representative
    (the smallest index in the orbit), the l with T^l s = rep, the orbit
    period R (the least R >= 1 with T^R s = s), popcount(s) % 2, and the
    number L = n_sites / step of distinct translations.
    """
    length = n_sites // step
    full = 2**n_sites - 1
    idx = np.arange(2**n_sites)
    rep, shift, fixed = idx.copy(), np.zeros_like(idx), np.ones_like(idx)
    moved = idx
    for r in range(1, length):
        moved = (moved >> step) | ((moved << (n_sites - step)) & full)
        lower = moved < rep
        rep[lower], shift[lower] = moved[lower], r
        fixed += moved == idx
    # The r < L with T^r s = s form a subgroup of order L / R, r = 0
    # included, so the count is never zero (also when L = 1).
    period = length // fixed
    parity = sum((idx >> bit) & 1 for bit in range(n_sites)) % 2
    return rep, shift, period, parity, length


def _sector_basis(orbits, parity: int, m: int) -> np.ndarray:
    """Ascending representatives of one (parity, m) sector.

    A representative of period R carries momentum k = 2 pi m / L only when
    k R is a multiple of 2 pi; otherwise its momentum state vanishes.
    """
    rep, _, period, par, length = orbits
    idx = np.arange(rep.size)
    return idx[(rep == idx) & (par == parity) & (m * period % length == 0)]


def _sector(kind: DimerizedXY | TransverseIsing, n_sites: int, parity: int, m: int) -> np.ndarray:
    """Block of the periodic spin Hamiltonian on one (parity, momentum) sector.

    The basis states are |a(k)> = sum_{r<L} e^{ikr} T^r |a> / (L / sqrt(R_a))
    over the sector's ascending representatives a (see :func:`_sector_basis`),
    with k = 2 pi m / L.  Each bond sends |a> to one basis index t = a ^ mask,
    with the same amplitudes as in spin space: sx_a sx_b and sy_a sy_b give 1
    and -1 or +1 as the two bits agree or not, and sz_a is the diagonal +-1.
    With T^l t = b for the representative b, the entry <b(k)|H|a(k)> gains
    that amplitude times sqrt(R_a / R_b) e^{ikl}; a b outside the sector has
    no momentum-k state and is dropped.  The block is complex Hermitian.
    """
    step = _step(kind, n_sites)
    orbits = _orbits(n_sites, step)
    rep, shift, period, _, length = orbits
    basis = _sector_basis(orbits, parity, m)
    dim = basis.size
    pos = np.full(rep.size, -1)
    pos[basis] = np.arange(dim)
    cols = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    k = 2.0 * np.pi * m / length
    for j in range(1, n_sites + 1):
        mask = _site_bit(j, n_sites) | _site_bit(j + 1, n_sites)
        target = basis ^ mask
        image = rep[target]
        rows = pos[image]
        keep = rows >= 0
        factor = np.sqrt(period[basis] / period[image]) * np.exp(1j * k * shift[target])
        if isinstance(kind, DimerizedXY):
            pair = basis & mask
            agree = np.where((pair == 0) | (pair == mask), 1.0, -1.0)
            bond = 1.0 - (-1.0) ** j * kind.delta
            amp = bond * (1.0 - kind.gamma) / 2.0 * agree - bond * (1.0 + kind.gamma) / 2.0
        else:
            amp = np.full(dim, 0.5)
            up = np.where(basis & _site_bit(j, n_sites), -1.0, 1.0)
            h[cols, cols] += 0.5 * kind.h * up
        # Within one bond every column is written once, so += does not drop
        # repeated entries.
        h[rows[keep], cols[keep]] += (amp * factor)[keep]
    return h


def check_oracle_size(kind: DimerizedXY | TransverseIsing, n_sites: int, samples: int) -> None:
    """Reject an oracle run before any allocation: the size range, then the work.

    The evolution costs about (sector dim)^2 per time sample.  The dimension
    of the largest even-parity momentum sector is counted from the orbit
    representatives; runs above MAX_EVOLUTION_WORK raise ValueError.
    """
    _check_sites(n_sites)
    orbits = _orbits(n_sites, _step(kind, n_sites))
    dim = max(_sector_basis(orbits, 0, m).size for m in range(orbits[-1]))
    if dim * dim * samples > MAX_EVOLUTION_WORK:
        raise ValueError(
            f"{samples} samples on the {n_sites}-site oracle: {dim}^2 x {samples} "
            f"exceeds its work budget of {MAX_EVOLUTION_WORK:.0e}; raise dt"
        )


def build_hamiltonian(kind: DimerizedXY | TransverseIsing, n_sites: int) -> SpinHamiltonian:
    """The periodic spin Hamiltonian of ``kind``, checked but not assembled.

    Raises ValueError outside [2, MAX_SITES] sites or for an odd XY ring, and
    TypeError for an unknown kind.  Its sector blocks are built where they
    are used (see :func:`_sector`).
    """
    _check_sites(n_sites)
    _step(kind, n_sites)
    return SpinHamiltonian(n_sites=n_sites, kind=kind)


def even_sector_ground_state(ham: SpinHamiltonian) -> tuple[np.ndarray, int]:
    """Lowest even-parity eigenvector and its momentum index m*.

    The spectrum of every even and every odd momentum sector is computed:
    together the even sectors hold the whole even-parity spectrum, so the
    ground sector is found, not assumed (a +-k pair of sectors can hold it,
    e.g. on odd Ising rings).  The spin Hamiltonian is real, so sector L - m
    is the complex conjugate of sector m and shares its spectrum: only
    m <= L / 2 is diagonalised.  Warns with
    :class:`DegenerateGroundStateWarning` when the odd-sector minimum lies
    within 1e-10 of the even ground energy.  Raises
    :class:`DegenerateGroundStateError` when another even state does: then
    there is no unique ground state to return.  The normalized vector comes
    from one ``eigh`` of sector m* and is given in that sector's basis.
    """
    length = ham.n_sites // _step(ham.kind, ham.n_sites)
    spectra = []
    for parity in (0, 1):
        half = [
            np.linalg.eigvalsh(_sector(ham.kind, ham.n_sites, parity, m))
            for m in range(length // 2 + 1)
        ]
        spectra.append(half + half[1:(length + 1) // 2][::-1])
    lowest = [[s[0] if s.size else np.inf for s in sectors] for sectors in spectra]
    vals = np.sort(np.concatenate(spectra[0]))
    odd_min = min(lowest[1])
    if abs(odd_min - vals[0]) < 1e-10:
        warnings.warn(
            f"even and odd sector ground energies within {abs(odd_min - vals[0]):.3e}",
            DegenerateGroundStateWarning,
        )
    if vals[1] - vals[0] < 1e-10:
        raise DegenerateGroundStateError(
            f"even-sector ground state degenerate within {vals[1] - vals[0]:.3e}: "
            "no unique initial state"
        )
    m_star = int(np.argmin(lowest[0]))
    _, vecs = np.linalg.eigh(_sector(ham.kind, ham.n_sites, 0, m_star))
    return vecs[:, 0].copy(), m_star


def oracle_energy_trace(
    battery: SpinHamiltonian, charger: SpinHamiltonian, times: np.ndarray
) -> EnergyTrace:
    """dE(t) = <psi(t)|H_B|psi(t)> - E_gs with psi evolved exactly by the charger.

    The initial state is the battery's even-parity ground state, in momentum
    sector m*; the evolution stays there because both Hamiltonians commute
    with parity and translation, so everything is done in that sector's
    block.  There, with the charger's H_C = Q diag(w) Q^+ and c = Q^+ psi(0),
    the amplitudes a(t) = c e^{-iwt} give dE(t) = a(t)^+ (Q^+ H_B Q) a(t) -
    E_gs, one GEMM per block of times.  ``times`` must be a strictly
    ascending 1-D array of finite values; negative ones are allowed.  The
    order and the work budget of :func:`check_oracle_size` are checked
    before anything is diagonalised.  Raises
    :class:`DegenerateGroundStateError` when the battery's even-sector ground
    state is degenerate.
    """
    if battery.n_sites != charger.n_sites or type(battery.kind) is not type(charger.kind):
        raise ValueError("battery and charger must be the same model on the same n_sites")
    times = _as_times(times)
    if np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly ascending")
    check_oracle_size(battery.kind, battery.n_sites, times.size)
    psi0, m_star = even_sector_ground_state(battery)
    hb = _sector(battery.kind, battery.n_sites, 0, m_star)
    e0 = float(np.real(psi0.conj() @ hb @ psi0))
    w, qmat = np.linalg.eigh(_sector(charger.kind, charger.n_sites, 0, m_star))
    coeff = qmat.conj().T @ psi0
    hb_rot = qmat.conj().T @ hb @ qmat
    values = np.empty(times.size, dtype=float)
    for lo in range(0, times.size, _TIME_BLOCK):
        block = times[lo:lo + _TIME_BLOCK]
        amps = coeff[:, None] * np.exp(-1j * np.outer(w, block))
        energy = np.einsum("ij,ij->j", amps.conj(), hb_rot @ amps)
        values[lo:lo + block.size] = energy.real - e0
    return EnergyTrace(
        times=times.copy(),
        values=values,
        protocol=(battery.kind, charger.kind, battery.n_sites),
    )
