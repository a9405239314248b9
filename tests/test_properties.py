"""Property-based checks of both engines, over generic and exactly critical protocols.

For any protocol the stored energy is a finite, non-negative function of
time that starts at zero, its infinite-time average is non-negative, and
every XY band occupation lies in [0, 1], each to 1e-10 per mode.  Critical
protocols sit exactly on a gap-closing line: the parameters are dyadic
(multiples of 1/16 or powers of two), so their sums land on the line with no
rounding.  The Ising sizes include odd rings, whose mode set holds k = pi.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbattery import (
    IsingParams,
    QuenchProtocol,
    asymptotic_energy,
    energy_at_times,
    ising_asymptotic_energy,
    ising_energy_at_times,
    occupations_all,
)

TIMES = np.array([0.0, 0.37, 1.9, 13.0, 271.5, 1e6])

SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=100)

DIMERS = st.integers(2, 9)
SITES = st.integers(2, 15)

# Multiples of 1/16 in [0, 3]: sums and differences of two are exact.
DYADIC = st.integers(0, 48).map(lambda i: i / 16)


def _split(total: float):
    """(a, total - a) with a a multiple of total / 16 in [0, total]: both exact."""
    return st.integers(0, 16).map(lambda j: (total * j / 16, total - total * j / 16))


@st.composite
def xy_critical(draw):
    """A protocol whose battery or charger lies on delta = gamma or gamma delta = 1."""
    line = draw(st.sampled_from(["charger", "charger-inverse", "battery", "battery-inverse"]))
    n = draw(DIMERS)
    if line.endswith("inverse"):
        gamma = 2.0 ** draw(st.integers(-2, 2))
        critical = 1.0 / gamma
    else:
        gamma = draw(DYADIC.filter(lambda x: x > 0))
        critical = gamma
    if line.startswith("charger"):
        delta0, delta1 = draw(_split(critical))
    else:
        delta0, delta1 = critical, draw(DYADIC)
    return QuenchProtocol(gamma, delta0, delta1, n)


XY_GENERIC = st.builds(
    QuenchProtocol,
    gamma=st.floats(0.05, 3.0),
    delta0=st.floats(0.0, 3.0),
    delta1=st.floats(0.0, 3.0),
    n_dimers=DIMERS,
)


@st.composite
def ising_critical(draw):
    """h0 = +-1 (battery) or h0 + h1 = +-1 (charger), exactly."""
    sign = draw(st.sampled_from([1.0, -1.0]))
    h = draw(DYADIC) - 1.5
    h0, h1 = draw(st.sampled_from([(sign, h), (h, sign - h)]))
    return IsingParams(h0, h1, draw(SITES))


ISING_GENERIC = st.builds(
    IsingParams, h0=st.floats(-3.0, 3.0), h1=st.floats(-3.0, 3.0), n_sites=SITES
)


def _check_energy(values, e_inf, n):
    assert np.all(np.isfinite(values)) and np.isfinite(e_inf)
    assert abs(values[0]) <= 1e-10 * n
    assert np.min(values) >= -1e-10 * n
    assert e_inf >= -1e-10 * n


def _check_xy(p):
    _check_energy(energy_at_times(p, TIMES), asymptotic_energy(p), p.n_dimers)
    for t in TIMES:
        occ = occupations_all(p, t)
        assert np.all(np.isfinite(occ))
        assert np.min(occ) >= -1e-10 and np.max(occ) <= 1.0 + 1e-10


def _check_ising(params):
    values = ising_energy_at_times(params, TIMES)
    _check_energy(values, ising_asymptotic_energy(params), params.n_sites)


@SETTINGS
@given(XY_GENERIC)
def test_xy_generic(p):
    _check_xy(p)


@SETTINGS
@given(xy_critical())
def test_xy_critical(p):
    _check_xy(p)


@SETTINGS
@given(ISING_GENERIC)
def test_ising_generic(params):
    _check_ising(params)


@SETTINGS
@given(ising_critical())
def test_ising_critical(params):
    _check_ising(params)
