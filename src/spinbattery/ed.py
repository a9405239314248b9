"""Brute-force spin-space oracle for small chains.

Everything here works in raw spin space with periodic boundaries and knows
nothing about fermions or momentum space: it exists to verify the
momentum-space engines independently.  Both models commute with the parity
P = prod_j sz_j and the initial state is the even-sector ground state, so
only the dense 2^(N-1)-dimensional even block is built; the odd block is
built only to compare ground energies.  Time evolution uses one full
eigendecomposition of the charging Hamiltonian (no stepping error).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .quench import EnergyTrace

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

MAX_SITES = 12

# Largest (even-block dim)^2 x samples an oracle run may ask for: the
# 12-site default grid (2048^2 x 501 = 2.1e9) fits.
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
    """Even-parity block of the Hamiltonian of a periodic chain of n_sites spins.

    ``matrix`` is dense, 2^(N-1) x 2^(N-1), over the even basis states in
    ascending order of their index.
    """

    n_sites: int
    matrix: np.ndarray
    kind: DimerizedXY | TransverseIsing

    def __post_init__(self):
        self.matrix.setflags(write=False)


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


def check_oracle_size(n_sites: int, samples: int) -> None:
    """Reject an oracle run before any allocation: the size range, then the work.

    The evolution costs about (even-block dim)^2 per time sample; runs above
    MAX_EVOLUTION_WORK raise ValueError.
    """
    _check_sites(n_sites)
    dim = 2 ** (n_sites - 1)
    if dim * dim * samples > MAX_EVOLUTION_WORK:
        raise ValueError(
            f"{samples} samples on the {n_sites}-site oracle: {dim}^2 x {samples} "
            f"exceeds its work budget of {MAX_EVOLUTION_WORK:.0e}; raise dt"
        )


def _block(kind: DimerizedXY | TransverseIsing, n_sites: int, parity: int) -> np.ndarray:
    """Block of the periodic spin Hamiltonian on one sector of P = prod_j sz_j.

    The basis is the ascending indices s with popcount(s) % 2 == parity
    (bit 0 is spin up, so parity 0 is P = +1).  There sx_a sx_b and sy_a sy_b
    both send |s> to |s ^ mask>, which stays in the sector, with amplitudes 1
    and -1 or +1 as the two bits agree or not, and sz_a is the diagonal +-1.
    Each bond's entries are written straight into the block, in site order.
    """
    idx = np.arange(2**n_sites)
    states = idx[sum((idx >> bit) & 1 for bit in range(n_sites)) % 2 == parity]
    dim = states.size
    pos = np.empty_like(idx)
    pos[states] = np.arange(dim)
    rows = np.arange(dim) * dim
    h = np.zeros((dim, dim))
    flat = h.reshape(-1)
    if isinstance(kind, DimerizedXY):
        if n_sites % 2 != 0:
            raise ValueError("the dimerized XY chain needs an even number of sites")
        for j in range(1, n_sites + 1):
            mask = _site_bit(j, n_sites) | _site_bit(j + 1, n_sites)
            entries = rows + pos[states ^ mask]
            pair = states & mask
            agree = np.where((pair == 0) | (pair == mask), 1.0, -1.0)
            bond = 1.0 - (-1.0) ** j * kind.delta
            flat[entries] -= bond * (1.0 + kind.gamma) / 2.0
            flat[entries] += bond * (1.0 - kind.gamma) / 2.0 * agree
    elif isinstance(kind, TransverseIsing):
        for j in range(1, n_sites + 1):
            mask = _site_bit(j, n_sites) | _site_bit(j + 1, n_sites)
            flat[rows + pos[states ^ mask]] += 0.5
            up = np.where(states & _site_bit(j, n_sites), -1.0, 1.0)
            flat[np.arange(dim) * (dim + 1)] += 0.5 * kind.h * up
    else:
        raise TypeError(f"unknown Hamiltonian kind {kind!r}")
    return h


def build_hamiltonian(kind: DimerizedXY | TransverseIsing, n_sites: int) -> SpinHamiltonian:
    """The even-parity block of the periodic spin Hamiltonian, bond by bond.

    No 2^N x 2^N matrix is built: the block is assembled directly over the
    2^(N-1) even basis states (see :func:`_block`).
    """
    _check_sites(n_sites)
    return SpinHamiltonian(n_sites=n_sites, matrix=_block(kind, n_sites, 0), kind=kind)


def even_sector_ground_state(ham: SpinHamiltonian) -> np.ndarray:
    """Normalized lowest eigenvector of the even block, in the block's basis.

    Warns with :class:`DegenerateGroundStateWarning` when the odd-sector
    minimum lies within 1e-10 of the even ground energy.  Raises
    :class:`DegenerateGroundStateError` when another even state does: then
    there is no unique ground state to return.
    """
    odd_min = float(np.linalg.eigvalsh(_block(ham.kind, ham.n_sites, 1))[0])
    vals, vecs = np.linalg.eigh(ham.matrix)
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
    # Only the ground vector is kept: the full eigenbasis would raise the
    # oracle's peak memory by a block's worth.
    return vecs[:, 0].copy()


def oracle_energy_trace(
    battery: SpinHamiltonian, charger: SpinHamiltonian, times: np.ndarray
) -> EnergyTrace:
    """dE(t) = <psi(t)|H_B|psi(t)> - E_gs with psi evolved exactly by the charger.

    The initial state is the even-sector ground state of the battery; the
    evolution stays in that sector because both Hamiltonians commute with
    parity, so everything is done inside the even block.  There, with the
    charger's H_C = Q diag(w) Q^T (Q real) and c = Q^T psi(0), the amplitudes
    a(t) = c e^{-iwt} give dE(t) = Re a(t)^+ (Q^T H_B Q) a(t) - E_gs, one GEMM
    per block of times.  Raises :class:`DegenerateGroundStateError` when the
    battery's even-sector ground state is degenerate.
    """
    if battery.n_sites != charger.n_sites:
        raise ValueError("battery and charger must share n_sites")
    times = np.asarray(times, dtype=float)
    psi0 = even_sector_ground_state(battery)
    hb = battery.matrix
    e0 = float(psi0 @ hb @ psi0)
    w, qmat = np.linalg.eigh(charger.matrix)
    coeff = qmat.T @ psi0
    hb_rot = qmat.T @ hb @ qmat
    values = np.empty(times.size, dtype=float)
    for lo in range(0, times.size, _TIME_BLOCK):
        block = times[lo:lo + _TIME_BLOCK]
        amps = coeff[:, None] * np.exp(-1j * np.outer(w, block))
        # Columns re, im, re, im, ...: H_B' is real, so one real GEMM serves both.
        parts = amps.view(float)
        energy = np.einsum("ij,ij->j", parts, hb_rot @ parts)
        values[lo:lo + block.size] = energy.reshape(-1, 2).sum(axis=1) - e0
    return EnergyTrace(
        times=times.copy(),
        values=values,
        protocol=(battery.kind, charger.kind, battery.n_sites),
    )
