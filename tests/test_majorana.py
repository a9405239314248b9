"""The engines against the real-space Majorana covariance reference.

Unlike the ED oracle, the reference reaches the paper's sizes, and unlike the
Bloch-matrix checks it shares no momentum decomposition with the engines.
Each stored energy must agree to 1e-9 max(1, max|dE|).
"""

import numpy as np
import pytest

import majorana_reference as majorana
from spinbattery import (
    ChainParams,
    IsingParams,
    QuenchProtocol,
    energy_at_times,
    ground_energy,
    ising_energy_at_times,
)
from spinbattery.ed import DimerizedXY, TransverseIsing


def _deviation(engine, reference):
    return np.max(np.abs(engine - reference)) / max(1.0, float(np.max(np.abs(reference))))


def test_ground_energy_needs_the_antiperiodic_bond():
    # the even spin sector is the antiperiodic fermion chain; at 10 dimers
    # the periodic one is off by 4.0e-8
    kind, exact = DimerizedXY(1.25, 0.3), ground_energy(ChainParams(1.25, 0.3, 10))
    assert abs(majorana.ground_energy(kind, 20) - exact) <= 1e-12
    assert abs(majorana.ground_energy(kind, 20, boundary=1.0) - exact) > 1e-9


@pytest.mark.parametrize("n_dimers", [10, 40])
def test_xy_engine_on_small_rings(n_dimers):
    times = np.linspace(0.0, 3.0 * n_dimers, 61)
    engine = energy_at_times(QuenchProtocol(1.25, 0.3, 0.6, n_dimers), times)
    reference = majorana.stored_energy(
        DimerizedXY(1.25, 0.3), DimerizedXY(1.25, 0.9), 2 * n_dimers, times
    )
    assert _deviation(engine, reference) <= 1e-9


def test_xy_engine_at_the_papers_size():
    # the reference protocol at 300 dimers: the first maximum tau_s, the
    # plateau, and the recurrence tau_r in its window [600, 800]
    times = np.array([3.297, 50.0, 150.0, 400.0, 679.14])
    engine = energy_at_times(QuenchProtocol(1.25, 0.3, 0.6, 300), times)
    reference = majorana.stored_energy(DimerizedXY(1.25, 0.3), DimerizedXY(1.25, 0.9), 600, times)
    assert _deviation(engine, reference) <= 1e-9


def test_ising_engine_on_a_ring():
    # the CLI's default Ising protocol, through its recurrence window [280, 350]
    times = np.linspace(0.0, 350.0, 36)
    engine = ising_energy_at_times(IsingParams(0.8, 0.7, 600), times)
    reference = majorana.stored_energy(TransverseIsing(0.8), TransverseIsing(1.5), 600, times)
    assert _deviation(engine, reference) <= 1e-9
