"""Closed-form stored energy for the transverse-field Ising chain.

Same double-quench protocol as the XY battery, but for
H(h) = (1/2) sum_j [sx_j sx_{j+1} + h sz_j] each mode is one Majorana chain
with (a, b) = ((1 - h)/2, (1 + h)/2) at x = k/2 = pi q / N (``xy._chain_modes``).
The dispersion is eps_q = 2 |d| at h0 and w_q = 2 |d'| at h0 + h1, with no
cancellation near h = 1, and the stored energy has the closed form

    dE(t) = sum_q  2 |d| sin^2 dphi * [1 - cos(2 w_q t)]
          = sum_q  h1^2 sin^2(k) / (eps_q w_q^2) * [1 - cos(2 w_q t)]

over the half zone q = 1/2, ..., N/2 - 1/2 (0 < k < pi).  Modes q and N - q
store the same energy, so each mirror pair enters once, at twice the
per-mode amplitude; the k = pi mode of an odd ring is its own mirror, is not
coupled by the field quench and never enters.

``ising_energy_at_times`` evaluates the sum with the phase-block kernel of
``quench`` (``_phase_block_sum``).  It matches the mode-by-mode sum, exactly
rounded over modes, to within 1e-12 max(1, E^inf) up to t = 10^3, a bound
that grows in proportion to t past it with the rounding of the phases
2 w_q t, so a trace and pointwise calls at its times agree to that
tolerance, not bit for bit.  A result depends only on the parameters and the
time grid, not on the worker or BLAS thread count.  Each call builds the
per-mode arrays it needs and keeps nothing once it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quench import (
    EnergyTrace,
    _build_trace,
    _engine_times,
    _phase_block_sum,
    _resolution_bound,
)
from .sums import compensated_sum
from .xy import _chain_modes, _check_parameters, _check_size

__all__ = [
    "IsingParams",
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
        _check_parameters(h0=self.h0, h1=self.h1)
        _check_size("n_sites", self.n_sites)


def _mode_arrays(params: IsingParams):
    """(omega, amplitude) over the half zone: dE(t) = sum_q amp_q [1 - cos(2 w_q t)]."""
    n = params.n_sites
    x = np.pi * (np.arange(n // 2) + 0.5) / n
    battery, charger = (((1.0 - h) / 2, (1.0 + h) / 2) for h in (params.h0, params.h0 + params.h1))
    norm, norm_p, sin2_dphi = _chain_modes(*battery, *charger, params.h1 / 2, x)
    return 2.0 * norm_p, 2.0 * norm * sin2_dphi


def _ising_tables(params: IsingParams, times):
    """(times, amp, freq) of ``ising_energy_at_times``: ``times`` checked
    (``_engine_times``), then the half zone's amplitudes and frequencies 2 w_q."""
    times = _engine_times("n_sites", params.n_sites, params.n_sites // 2, times)
    omega, amp = _mode_arrays(params)
    return times, amp, 2.0 * omega


def ising_energy_at_times(params: IsingParams, times: np.ndarray) -> np.ndarray:
    """Stored energy on an arbitrary grid of times >= 0."""
    return _phase_block_sum(*_ising_tables(params, times))


def ising_asymptotic_energy(params: IsingParams) -> float:
    """Infinite-time average: the [1 - cos] bracket averages to 1."""
    _, amp = _mode_arrays(params)
    return compensated_sum(amp)


def ising_resolution_bound(params: IsingParams) -> float:
    """Trace-step bound: twenty samples per period of 2 max_q w_q over the half zone."""
    omega, _ = _mode_arrays(params)
    return _resolution_bound(2.0 * float(np.max(omega)))


def ising_energy_trace(params: IsingParams, t_end: float, dt: float) -> EnergyTrace:
    """Stored energy on the uniform grid {0, dt, 2dt, ...} up to t_end."""
    return _build_trace(ising_energy_at_times, ising_resolution_bound, params, t_end, dt)
