"""Brute-force spin-space oracle for small chains.

Everything here works on the dense 2^N-dimensional spin Hamiltonian with
periodic boundaries and knows nothing about fermions or momentum space: it
exists to verify the momentum-space engines independently.  Ground states
are taken inside the even sector of the parity operator P = prod_j sz_j,
and time evolution uses one full eigendecomposition of the charging
Hamiltonian (no stepping error).
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
    "parity_diagonal",
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
    """Dense 2^N x 2^N Hamiltonian of a periodic chain of n_sites spins."""

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


def build_hamiltonian(kind: DimerizedXY | TransverseIsing, n_sites: int) -> SpinHamiltonian:
    """Assemble the dense periodic spin Hamiltonian bond by bond.

    In the computational basis (bit 0 is spin up) sx_a sx_b and sy_a sy_b
    both send |s> to |s ^ mask>, with amplitudes 1 and -1 or +1 as the two
    bits agree or not, and sz_a is the diagonal +-1.  Each bond's entries are
    written straight into the matrix, in site order.
    """
    _check_sites(n_sites)
    dim = 2**n_sites
    idx = np.arange(dim)
    h = np.zeros((dim, dim))
    flat = h.reshape(-1)
    if isinstance(kind, DimerizedXY):
        if n_sites % 2 != 0:
            raise ValueError("the dimerized XY chain needs an even number of sites")
        for j in range(1, n_sites + 1):
            mask = _site_bit(j, n_sites) | _site_bit(j + 1, n_sites)
            entries = idx * dim + (idx ^ mask)
            pair = idx & mask
            agree = np.where((pair == 0) | (pair == mask), 1.0, -1.0)
            bond = 1.0 - (-1.0) ** j * kind.delta
            flat[entries] -= bond * (1.0 + kind.gamma) / 2.0
            flat[entries] += bond * (1.0 - kind.gamma) / 2.0 * agree
    elif isinstance(kind, TransverseIsing):
        for j in range(1, n_sites + 1):
            mask = _site_bit(j, n_sites) | _site_bit(j + 1, n_sites)
            flat[idx * dim + (idx ^ mask)] += 0.5
            up = np.where(idx & _site_bit(j, n_sites), -1.0, 1.0)
            flat[idx * (dim + 1)] += 0.5 * kind.h * up
    else:
        raise TypeError(f"unknown Hamiltonian kind {kind!r}")
    return SpinHamiltonian(n_sites=n_sites, matrix=h, kind=kind)


def parity_diagonal(n_sites: int) -> np.ndarray:
    """Diagonal of P = prod_j sz_j over the computational basis."""
    idx = np.arange(2**n_sites)
    pop = np.zeros_like(idx)
    for bit in range(n_sites):
        pop += (idx >> bit) & 1
    return np.where(pop % 2 == 0, 1.0, -1.0)


def _even_indices(n_sites: int) -> np.ndarray:
    return np.nonzero(parity_diagonal(n_sites) > 0)[0]


def _even_block(ham: SpinHamiltonian) -> np.ndarray:
    idx = _even_indices(ham.n_sites)
    return ham.matrix[np.ix_(idx, idx)]


def _even_ground(hb: np.ndarray, ham: SpinHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """eigh of the even block hb of ham; warns when the odd sector reaches its minimum."""
    vals, vecs = np.linalg.eigh(hb)
    odd_idx = np.nonzero(parity_diagonal(ham.n_sites) < 0)[0]
    odd_min = float(np.min(np.linalg.eigvalsh(ham.matrix[np.ix_(odd_idx, odd_idx)])))
    if abs(odd_min - vals[0]) < 1e-10:
        warnings.warn(
            f"even and odd sector ground energies within {abs(odd_min - vals[0]):.3e}",
            DegenerateGroundStateWarning,
        )
    return vals, vecs


def _even_degeneracy(vals: np.ndarray) -> str | None:
    if len(vals) > 1 and vals[1] - vals[0] < 1e-10:
        return f"even-sector ground state degenerate within {vals[1] - vals[0]:.3e}"
    return None


def even_sector_ground_state(ham: SpinHamiltonian) -> np.ndarray:
    """Normalized lowest eigenvector with parity +1, in the full 2^N space.

    Warns with :class:`DegenerateGroundStateWarning` when the selection is
    ambiguous: another even state, or the odd-sector minimum, lies within
    1e-10 of the even ground energy.
    """
    idx = _even_indices(ham.n_sites)
    vals, vecs = _even_ground(_even_block(ham), ham)
    message = _even_degeneracy(vals)
    if message:
        warnings.warn(message, DegenerateGroundStateWarning)
    full = np.zeros(ham.matrix.shape[0], dtype=complex)
    full[idx] = vecs[:, 0]
    return full


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
    hb = _even_block(battery)
    vals, vecs = _even_ground(hb, battery)
    message = _even_degeneracy(vals)
    if message:
        raise DegenerateGroundStateError(f"{message}: no unique initial state")
    # Keep the ground state only: the full eigenbasis would outlive the
    # evolution and raise the peak memory by a block's worth.
    psi0 = vecs[:, 0].copy()
    del vals, vecs
    e0 = float(psi0 @ hb @ psi0)
    w, qmat = np.linalg.eigh(_even_block(charger))
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
        evaluator="ed-oracle",
    )
