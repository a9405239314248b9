"""Momentum-space description of the dimerized anisotropic XY chain.

The chain of N = 2*n_dimers spins with bond strengths 1 -+ delta and
anisotropy gamma maps, in its even-parity sector, onto free fermions with
half-integer momentum labels q in {1/2, 3/2, ..., n_dimers - 1/2}.  Each q
holds two Ising-like Majorana chains, (a, b) = (1 +- g d, d +- g) (Lieb,
Schultz and Mattis 1961; Barouch and McCoy 1971), with d = (a cos x, b sin x)
at x = pi q / Nd, whose norms are the two quasiparticle bands:

    w_{1/2}(q) = 2 |d| = 2 sqrt((1 +- g d)^2 cos^2 x + (d +- g)^2 sin^2 x)

in units of J = 1 (hbar = 1).  ``_chain_modes`` gives every per-mode quantity,
the XY time kernel's amplitudes included; only that kernel's frequencies come
from elsewhere, the charger's 4x4 Bloch bands in ``quench``.  Everything here
is a pure function of its inputs; all containers are immutable.
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
    "dispersion_curves",
    "classify_phase",
    "ground_energy",
]

# Tolerance band for the critical-line classifiers; inputs are exact reals.
CRITICAL_TOL = 1e-12

# Largest chain size (n_dimers or n_sites); building the XY time kernel's tables
# peaks near 0.7 KB per mode, most of it the charger's Bloch eigensolve.
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
        _check_point(self.gamma, self.delta)
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


def _check_point(gamma: float, delta: float) -> None:
    """Reject a (gamma, delta) point off the XY plane gamma > 0, delta >= 0."""
    _check_parameters(gamma=gamma, delta=delta)
    if not gamma > 0:
        raise ValueError(f"gamma must be > 0, got {gamma}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")


def _check_size(name: str, n: int) -> None:
    """Reject a chain size ``name`` that is not an integer in [2, MAX_SIZE]."""
    if int(n) != n or n < 2:
        raise ValueError(f"{name} must be an integer >= 2, got {n}")
    if n > MAX_SIZE:
        raise ValueError(f"{name} must be at most {MAX_SIZE}, got {n}")


# ----------------------------------------------------------------------
# per-mode quantities, batched over the mode set (row i is q = i + 1/2)
# ----------------------------------------------------------------------

def _chain_modes(a, b, a_p, b_p, cross, x):
    """Per-mode ``(|d|, |d'|, sin^2 dphi)`` of one Majorana chain at the mode angles x.

    d = (a cos x, b sin x) is the battery's, d' = (a_p cos x, b_p sin x) the
    charger's, and dphi the angle between them: 0, not 0/0, where |d| |d'| = 0.
    The model passes ``cross`` = a b' - a' b in closed form; formed from the
    rounded pairs it would lose relative precision on a small quench.
    """
    cos2 = np.cos(x) ** 2
    sin2 = np.sin(x) ** 2
    sq = a**2 * cos2 + b**2 * sin2
    sq_p = a_p**2 * cos2 + b_p**2 * sin2
    cross2 = cross**2 * (cos2 * sin2)
    norms2 = sq * sq_p
    sin2_dphi = np.divide(cross2, norms2, out=np.zeros_like(norms2), where=norms2 > 0)
    return np.sqrt(sq), np.sqrt(sq_p), sin2_dphi


def _xy_chains(gamma: float, delta: float, step: float, n_dimers: int):
    """``_chain_modes`` of both chains at delta (battery) and delta + step (charger).

    Three (n_dimers, 2) arrays; row i is q = i + 1/2, column s chain (band) s.
    Both chains have a b' - a' b = step (1 - gamma)(1 + gamma).
    """
    x = np.pi * (np.arange(n_dimers) + 0.5) / n_dimers
    pairs = [
        ((1.0 + gamma * d, d + gamma), (1.0 - gamma * d, d - gamma)) for d in (delta, delta + step)
    ]
    cross = step * (1.0 - gamma) * (1.0 + gamma)
    chains = [_chain_modes(*ab, *ab_p, cross, x) for ab, ab_p in zip(*pairs)]
    return tuple(np.column_stack(arrays) for arrays in zip(*chains))


def dispersion_curves(gamma: float, delta: float, n_dimers: int) -> np.ndarray:
    """Closed-form bands 2 |d|, shape (n_dimers, 2) ordered (w1, w2) per mode.

    The two branches never cross for gamma > 0, delta >= 0 (their squared
    difference is 16 gamma delta), so the '+' chain is always w1 >= w2.
    """
    return 2.0 * _xy_chains(gamma, delta, 0.0, n_dimers)[0]


def classify_phase(gamma: float, delta: float) -> Phase:
    """Place (gamma, delta) in the phase diagram.

    Boundary labels take precedence inside the tolerance band
    |g^2 d^2 - 1| <= 1e-12 or |d^2 - g^2| <= 1e-12; at the multicritical
    point gamma = delta = 1 both hold and CRITICAL_GAMMA_DELTA is reported.
    """
    _check_point(gamma, delta)
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

