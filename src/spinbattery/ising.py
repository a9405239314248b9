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

:class:`IsingParams` is the Ising model supplier of ``quench`` (see there),
one chain per mode, so the shared engines run the sum on the phase-block
kernel (``quench._phase_block_sum``), the one resolution rule reads its
frequencies 2 w_q, and a sweep row runs the same recipe as an XY row
(``regimes._regime_point``).  Callers pass it to the ``quench`` engines;
the two ``ising_*`` names are one-line entries to them that the benchmark in
``bench/`` calls.  The kernel matches the mode-by-mode sum, exactly rounded
over modes, to within 1e-12 max(1, E^inf) up to t = 10^3, a bound that grows
in proportion to t past it with the rounding of the phases 2 w_q t, so a
trace and pointwise calls at its times agree to that tolerance, not bit for
bit.  A result depends only on the parameters and the time grid, not on the
worker or BLAS thread count.  Each call builds the per-mode arrays it needs
and keeps nothing once it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quench import _energy, _engine_times, resolution_bound
from .xy import _chain_modes, _check_parameters, _check_size

__all__ = ["IsingParams", "ising_energy_at_times", "ising_resolution_bound"]


@dataclass(frozen=True)
class TransverseIsing:
    """H = (1/2) sum_j [sx_j sx_{j+1} + h sz_j]."""

    h: float


@dataclass(frozen=True)
class IsingParams:
    """Initial transverse field h0, quench amplitude h1, chain length N; the
    Ising model supplier (module docstring)."""

    h0: float
    h1: float
    n_sites: int

    size_name = "n_sites"
    # Recurrence search window as multiples of the size: 600 sites give [280, 350].
    window_factors = (7.0 / 15.0, 7.0 / 12.0)

    def __post_init__(self):
        _check_parameters(h0=self.h0, h1=self.h1)
        _check_size("n_sites", self.n_sites)

    @property
    def size(self) -> int:
        return self.n_sites

    def chain_modes(self) -> tuple[np.ndarray, np.ndarray]:
        """(amp, freq) over the half zone, dE(t) = sum_q amp_q [1 - cos(freq_q t)]:
        amp_q = 2 |d| sin^2 dphi and freq_q = 2 w_q = 4 |d'|."""
        n = self.n_sites
        x = np.pi * (np.arange(n // 2) + 0.5) / n
        battery, charger = (((1.0 - h) / 2, (1.0 + h) / 2) for h in (self.h0, self.h0 + self.h1))
        norm, norm_p, sin2_dphi = _chain_modes(*battery, *charger, self.h1 / 2, x)
        return 2.0 * norm * sin2_dphi, 4.0 * norm_p

    def kernel_tables(self, times):
        """(times, amp, freq) of the time kernel: ``times`` checked for the half zone's
        n_sites // 2 modes (``quench._engine_times``), then :meth:`chain_modes`."""
        return (_engine_times(self, self.n_sites // 2, times), *self.chain_modes())

    def ed_kinds(self) -> tuple[TransverseIsing, TransverseIsing]:
        """(battery, charger) spin chains of the ED oracle: h0, then h0 + h1."""
        return TransverseIsing(self.h0), TransverseIsing(self.h0 + self.h1)


def ising_energy_at_times(params: IsingParams, times: np.ndarray) -> np.ndarray:
    """Stored energy on an arbitrary grid of times >= 0 (``quench._energy``)."""
    return _energy(params, times)


def ising_resolution_bound(params: IsingParams) -> float:
    """Trace-step bound (``quench.resolution_bound``)."""
    return resolution_bound(params)
