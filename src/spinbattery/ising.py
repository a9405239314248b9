"""Closed-form stored energy for the transverse-field Ising chain.

Same double-quench protocol as the XY battery, but for
H(h) = (1/2) sum_j [sx_j sx_{j+1} + h sz_j] the whole calculation collapses
to one Bogoliubov rotation per mode and the stored energy has the closed
form

    dE(t) = sum_q  h1^2 sin^2(k) / (2 eps_q w_q^2) * [1 - cos(2 w_q t)]

with k = 2 pi q / N over the half-integer set {1/2, ..., N - 1/2},
eps_q the dispersion at h0 and w_q the dispersion at h0 + h1.  Angles are
carried as (sin 2theta, cos 2theta) pairs; only 2theta ever enters a
formula, so no branch of theta itself is chosen anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quench import EnergyTrace, _lock, _mode_sum_at_times, _resolution_bound, _uniform_times
from .sums import compensated_sum
from .xy import _check_finite

__all__ = [
    "IsingParams",
    "IsingModeData",
    "ising_dispersion",
    "bogoliubov_angle",
    "ising_mode_data",
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


@dataclass(frozen=True)
class IsingModeData:
    """Per-mode spectra and Bogoliubov angle pairs for both field values."""

    q: float
    eps: float
    omega: float
    angle_initial: tuple[float, float]  # (sin 2theta, cos 2theta) at h0
    angle_charging: tuple[float, float]  # same at h0 + h1


def _check_mode(n_sites: int, q: float) -> float:
    two_q = 2.0 * q
    if two_q != round(two_q) or round(two_q) % 2 != 1 or not 0 < q < n_sites:
        raise ValueError(f"q={q} not in the half-integer mode set of N={n_sites}")
    return 2.0 * math.pi * q / n_sites


def ising_dispersion(h: float, n_sites: int, q: float) -> float:
    """eps_q = sqrt(1 + h^2 - 2 h cos(2 pi q / N))."""
    k = _check_mode(n_sites, q)
    return math.sqrt(1.0 + h * h - 2.0 * h * math.cos(k))


def bogoliubov_angle(h: float, n_sites: int, q: float) -> tuple[float, float]:
    """(sin 2theta, cos 2theta) = (sin k, h - cos k) / eps_q.

    eps_q = sqrt(1 + h^2 - 2 h cos k) equals hypot(sin k, h - cos k)
    identically; the hypot form keeps the pair normalized to machine
    precision even where the quadratic form cancels.
    """
    k = _check_mode(n_sites, q)
    s, c = math.sin(k), h - math.cos(k)
    eps = math.hypot(s, c)
    if eps == 0.0:
        raise ZeroDivisionError(
            f"dispersion vanished at q={q}, h={h}; Bogoliubov angle undefined"
        )
    return s / eps, c / eps


def ising_mode_data(params: IsingParams, q: float) -> IsingModeData:
    """Bundle dispersion and angle pairs of one mode for both field values."""
    return IsingModeData(
        q=q,
        eps=ising_dispersion(params.h0, params.n_sites, q),
        omega=ising_dispersion(params.h0 + params.h1, params.n_sites, q),
        angle_initial=bogoliubov_angle(params.h0, params.n_sites, q),
        angle_charging=bogoliubov_angle(params.h0 + params.h1, params.n_sites, q),
    )


@lru_cache(maxsize=32)
def _mode_arrays(params: IsingParams):
    """(omega, amplitude) arrays: dE(t) = sum_q amp_q [1 - cos(2 w_q t)]."""
    n = params.n_sites
    k = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    eps = np.sqrt(1.0 + params.h0**2 - 2.0 * params.h0 * np.cos(k))
    hf = params.h0 + params.h1
    omega = np.sqrt(1.0 + hf**2 - 2.0 * hf * np.cos(k))
    if np.any(omega == 0.0) or np.any(eps == 0.0):
        raise ZeroDivisionError(
            "a mode dispersion vanished exactly; half-integer q should prevent this"
        )
    amp = params.h1**2 * np.sin(k) ** 2 / (2.0 * eps * omega**2)
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
