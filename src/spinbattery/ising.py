"""Closed-form stored energy for the transverse-field Ising chain.

Same double-quench protocol as the XY battery, but for
H(h) = (1/2) sum_j [sx_j sx_{j+1} + h sz_j] the whole calculation collapses
to one Bogoliubov rotation per mode and the stored energy has the closed
form

    dE(t) = sum_q  h1^2 sin^2(k) / (2 eps_q w_q^2) * [1 - cos(2 w_q t)]

with k = 2 pi q / N over the half-integer set {1/2, ..., N - 1/2},
eps_q the dispersion at h0 and w_q the dispersion at h0 + h1.  The
Bogoliubov angles, (sin 2theta, cos 2theta) = (sin k, h - cos k) / eps_q,
enter only through this amplitude, which is eps_q sin^2(2theta' - 2theta) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quench import EnergyTrace, _lock, _mode_sum_at_times, _resolution_bound, _uniform_times
from .sums import compensated_sum
from .xy import _check_finite

__all__ = [
    "IsingParams",
    "ising_energy_stored",
    "ising_energy_at_times",
    "ising_energy_trace",
    "ising_asymptotic_energy",
    "ising_resolution_bound",
]


@dataclass(frozen=True)
class IsingParams:
    """Initial transverse field h0, quench amplitude h1, chain length N."""

    h0: float
    h1: float
    n_sites: int

    def __post_init__(self):
        _check_finite(h0=self.h0, h1=self.h1)
        if int(self.n_sites) != self.n_sites or self.n_sites < 2:
            raise ValueError(f"n_sites must be an integer >= 2, got {self.n_sites}")


@lru_cache(maxsize=32)
def _mode_arrays(params: IsingParams):
    """(omega, amplitude) arrays: dE(t) = sum_q amp_q [1 - cos(2 w_q t)].

    For odd N the mode q = N/2 sits at k = pi, where sin k = 0: the field
    quench does not couple it, so its amplitude is exactly 0.  Only there
    can a dispersion vanish (at h0 = -1 or h0 + h1 = -1).
    """
    n = params.n_sites
    k = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    eps = np.sqrt(1.0 + params.h0**2 - 2.0 * params.h0 * np.cos(k))
    hf = params.h0 + params.h1
    omega = np.sqrt(1.0 + hf**2 - 2.0 * hf * np.cos(k))
    sin_k = np.sin(k)
    if n % 2:
        sin_k[n // 2] = 0.0
    amp = np.divide(
        params.h1**2 * sin_k**2, 2.0 * eps * omega**2, out=np.zeros(n), where=sin_k != 0.0
    )
    _lock(omega, amp)
    return omega, amp


def ising_energy_at_times(params: IsingParams, times: np.ndarray) -> np.ndarray:
    """Stored energy on an arbitrary grid of times >= 0."""
    omega, amp = _mode_arrays(params)
    return _mode_sum_at_times(
        times, lambda chunk: amp[:, None] * (1.0 - np.cos(2.0 * omega[:, None] * chunk[None, :]))
    )


def ising_energy_stored(params: IsingParams, t: float) -> float:
    """Closed-form stored energy at a single time t >= 0."""
    return float(ising_energy_at_times(params, np.array([t]))[0])


def ising_asymptotic_energy(params: IsingParams) -> float:
    """Infinite-time average: the [1 - cos] bracket averages to 1."""
    _, amp = _mode_arrays(params)
    return compensated_sum(amp)


def ising_resolution_bound(params: IsingParams) -> float:
    """Trace-step bound, ten samples per period of the fastest mode 2 w_q."""
    omega, _ = _mode_arrays(params)
    return _resolution_bound(2.0 * float(np.max(omega)))


def ising_energy_trace(params: IsingParams, t_end: float, dt: float) -> EnergyTrace:
    """Stored energy on the uniform grid {0, dt, 2dt, ...} up to t_end."""
    times = _uniform_times(t_end, dt, ising_resolution_bound(params))
    values = ising_energy_at_times(params, times)
    return EnergyTrace(times=times, values=values, protocol=params, evaluator="closed-form")
