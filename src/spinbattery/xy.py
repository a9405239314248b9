"""Momentum-space description of the dimerized anisotropic XY chain.

The chain of N = 2*n_dimers spins with bond strengths 1 -+ delta and
anisotropy gamma maps, in its even-parity sector, onto free fermions with
half-integer momentum labels q in {1/2, 3/2, ..., n_dimers - 1/2}.  Each q
carries a 4x4 Hermitian Bloch matrix whose spectrum (+w1, +w2, -w1, -w2)
gives the two quasiparticle bands

    w_{1/2}(q) = 2 sqrt((1 +- g d)^2 cos^2(pi q / Nd) + (d +- g)^2 sin^2(pi q / Nd))

in units of the overall exchange scale J = 1 (hbar = 1).  Everything here is
a pure function of its inputs; all containers are immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .sums import compensated_sum

__all__ = [
    "ChainParams",
    "Phase",
    "bloch_stack",
    "eigensystem_stack",
    "dispersion_curves",
    "classify_phase",
    "ground_energy",
]

# Tolerance band for the critical-line classifiers; inputs are exact reals.
CRITICAL_TOL = 1e-12

# Largest chain size (n_dimers or n_sites); XY tables alone cost ~1.6 KB per mode.
MAX_SIZE = 10**6

# Largest magnitude of a model parameter (gamma, delta, h), far above any
# physical value; much larger ones overflow the dispersions.
MAX_PARAMETER = 1e6


@dataclass(frozen=True)
class ChainParams:
    """Anisotropy, dimerization and size of one XY chain instance.

    Energies and times are in units of the exchange constant J = 1 and 1/J.
    """

    gamma: float
    delta: float
    n_dimers: int

    def __post_init__(self):
        _check_parameters(gamma=self.gamma, delta=self.delta)
        if not self.gamma > 0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.delta < 0:
            raise ValueError(f"delta must be >= 0, got {self.delta}")
        _check_size("n_dimers", self.n_dimers)

    @property
    def n_sites(self) -> int:
        return 2 * self.n_dimers


class Phase(Enum):
    """Ground-state regions of the (gamma, delta) plane and its two critical lines."""

    FERROMAGNET_X = 1
    SPIN1_ANTIFERROMAGNET_X = 2
    DIMER_ALIGNED_Z = 3
    DIMER_ANTIALIGNED_Z = 4
    CRITICAL_GAMMA_DELTA = 5
    CRITICAL_DELTA_GAMMA = 6

    @property
    def region(self) -> int | None:
        return self.value if self.value <= 4 else None

    @property
    def label(self) -> str:
        return self.name.lower().replace("_", "-")


def _check_finite(**values: float) -> None:
    """Reject NaN and infinite parameters, naming the offending one."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_parameters(**values: float) -> None:
    """Reject model parameters that are not finite or exceed MAX_PARAMETER in magnitude."""
    _check_finite(**values)
    for name, value in values.items():
        if abs(value) > MAX_PARAMETER:
            raise ValueError(
                f"{name} must be at most {MAX_PARAMETER:.0e} in magnitude, got {value}"
            )


def _check_size(name: str, n: int) -> None:
    """Reject a chain size ``name`` that is not an integer in [2, MAX_SIZE]."""
    if int(n) != n or n < 2:
        raise ValueError(f"{name} must be an integer >= 2, got {n}")
    if n > MAX_SIZE:
        raise ValueError(f"{name} must be at most {MAX_SIZE}, got {n}")


# ----------------------------------------------------------------------
# per-mode quantities, batched over the mode set (row i is q = i + 1/2)
# ----------------------------------------------------------------------

def structure_constants(gamma: float, delta: float, k: np.ndarray | float):
    """Z and W entries of the Bloch matrix at momentum k = 2 pi q / n_dimers."""
    phase = np.exp(-1j * np.asarray(k))
    z = -((1.0 + delta) + (1.0 - delta) * phase)
    w = -gamma * ((1.0 + delta) - (1.0 - delta) * phase)
    return z, w


def _bloch_entries(z, w) -> np.ndarray:
    """Bloch matrices from structure constants, shape z.shape + (4, 4).

    Layout (rows/cols ordered as particle-A, particle-B, hole-A, hole-B):

        [[ 0,   Z,   0,  -W ],
         [ Z*,  0,   W*,  0 ],
         [ 0,   W,   0,  -Z ],
         [-W*,  0,  -Z*,  0 ]]

    Hermitian with zero diagonal and zero trace; the spectrum is symmetric
    about zero because the matrix anticommutes with diag(1, -1, 1, -1).
    """
    h = np.zeros(np.shape(z) + (4, 4), dtype=complex)
    h[..., 0, 1] = z
    h[..., 1, 0] = np.conj(z)
    h[..., 0, 3] = -w
    h[..., 3, 0] = -np.conj(w)
    h[..., 1, 2] = np.conj(w)
    h[..., 2, 1] = w
    h[..., 2, 3] = -z
    h[..., 3, 2] = -np.conj(z)
    return h


def bloch_stack(gamma: float, delta: float, n_dimers: int) -> np.ndarray:
    """Bloch matrices for every q, shape (n_dimers, 4, 4).

    Convention: the chain Hamiltonian equals (J/2) sum_q Psi_q^dag H_q Psi_q
    over the half-integer mode set, with Psi_q mixing the two dimer-sublattice
    fermions at q with their conjugates at n_dimers - q.  The 1/2 compensates
    the q <-> n_dimers - q double counting, so the eigenvalues of H_q are the
    band energies themselves.
    """
    q = np.arange(n_dimers) + 0.5
    k = 2.0 * np.pi * q / n_dimers
    return _bloch_entries(*structure_constants(gamma, delta, k))


def _gauge_fix_columns(vecs: np.ndarray) -> np.ndarray:
    """Make the largest-modulus entry of each column real positive.

    FMA-based complex products can leave a one-ulp imaginary residue on
    z * conj(z), so the rotated lead entry is overwritten with its modulus
    to pin the convention exactly.
    """
    idx = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    lead = np.take_along_axis(vecs, idx, axis=-2)[..., 0, :]
    vecs = vecs * np.conj(lead)[..., None, :] / np.abs(lead)[..., None, :]
    rotated = np.take_along_axis(vecs, idx, axis=-2)
    np.put_along_axis(vecs, idx, np.abs(rotated).astype(complex), axis=-2)
    return vecs


# eigh ascending order is (-w1, -w2, +w2, +w1); map to (+w1, +w2, -w1, -w2)
_BAND_ORDER = np.array([3, 2, 0, 1])


def eigensystem_stack(bloch: np.ndarray):
    """Eigen-decompose a (n, 4, 4) Bloch stack.

    Returns ``(omegas, vecs)`` with ``omegas[:, 0] >= omegas[:, 1] >= 0`` and
    ``vecs`` columns ordered to (+w1, +w2, -w1, -w2).  Each column is phase
    fixed so its largest-modulus entry is real positive (ties broken by the
    lowest row index).  A failed eigensolver raises
    ``numpy.linalg.LinAlgError`` (never returns garbage).
    """
    vals, vecs = np.linalg.eigh(bloch)
    vals = vals[:, _BAND_ORDER]
    vecs = vecs[:, :, _BAND_ORDER]
    vecs = _gauge_fix_columns(vecs)
    omegas = np.maximum(vals[:, :2], 0.0)
    return omegas, vecs


def dispersion_curves(gamma: float, delta: float, n_dimers: int) -> np.ndarray:
    """Closed-form bands, shape (n_dimers, 2) ordered (w1, w2) per mode.

    The two branches never cross for gamma > 0, delta >= 0 (their squared
    difference is 16 gamma delta), so the '+' branch is always w1 >= w2.
    """
    q = np.arange(n_dimers) + 0.5
    x = np.pi * q / n_dimers
    cos2 = np.cos(x) ** 2
    sin2 = np.sin(x) ** 2
    plus = 2.0 * np.sqrt((1.0 + gamma * delta) ** 2 * cos2 + (delta + gamma) ** 2 * sin2)
    minus = 2.0 * np.sqrt((1.0 - gamma * delta) ** 2 * cos2 + (delta - gamma) ** 2 * sin2)
    return np.column_stack([plus, minus])


def classify_phase(gamma: float, delta: float) -> Phase:
    """Place (gamma, delta) in the phase diagram.

    Boundary labels take precedence inside the tolerance band
    |g^2 d^2 - 1| <= 1e-12 or |d^2 - g^2| <= 1e-12; at the multicritical
    point gamma = delta = 1 both hold and CRITICAL_GAMMA_DELTA is reported.
    """
    _check_parameters(gamma=gamma, delta=delta)
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    if abs(gamma**2 * delta**2 - 1.0) <= CRITICAL_TOL:
        return Phase.CRITICAL_GAMMA_DELTA
    if abs(delta**2 - gamma**2) <= CRITICAL_TOL:
        return Phase.CRITICAL_DELTA_GAMMA
    if gamma * delta < 1.0:
        return Phase.FERROMAGNET_X if delta < gamma else Phase.DIMER_ANTIALIGNED_Z
    return Phase.DIMER_ALIGNED_Z if delta < gamma else Phase.SPIN1_ANTIFERROMAGNET_X


def ground_energy(params: ChainParams) -> float:
    """Even-sector ground energy -(1/2) sum_q (omega1 + omega2)."""
    bands = dispersion_curves(params.gamma, params.delta, params.n_dimers)
    return -0.5 * compensated_sum(bands[:, 0] + bands[:, 1])

