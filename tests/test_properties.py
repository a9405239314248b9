"""Property-based checks of both engines, over generic and exactly critical protocols.

For any protocol the stored energy is a finite, non-negative function of
time that starts at zero, its infinite-time average is non-negative, and
every XY band occupation lies in [0, 1], each to 1e-10 per mode.  Critical
protocols sit exactly on a gap-closing line: the parameters are dyadic
(multiples of 1/16 or powers of two), so their sums land on the line with no
rounding.  The Ising sizes include odd rings, whose mode set holds k = pi.
On either model the one resolution bound equals the model's own former
rule bit for bit, the Ising supplier's half-zone tables equal their
written-out formula bit for bit, and each supplier's ED spin chains equal
those the CLI's model table once built from the same options.  An XY
chain's mirror modes k and 2 pi - k, which the time kernel folds into one
row, have the same Bloch bands to 16 eps of the largest band.
The ``trace`` command, given any window, end time and step around its
defaults, exits 0, 2 or 3 and never raises, and on any grid the window's
samples are those of the mask (times >= min) & (times <= max).  The CLI's
vectorized float cells are the bytes of ``format(x, ".16e")`` for any doubles,
subnormals, signed zeros, NaN and infinities included.
"""

import os
import tempfile
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbattery import (
    DimerizedXY,
    IsingParams,
    QuenchProtocol,
    TransverseIsing,
    asymptotic_energy,
    default_recurrence_window,
    energy_at_times,
    ising_energy_at_times,
    ising_recurrence_window,
    ising_resolution_bound,
    occupations_all,
    resolution_bound,
)
from spinbattery import cli
from spinbattery.cli import main
from spinbattery.quench import _uniform_times
from spinbattery.regimes import _window_span

from bloch_reference import bloch_stack, eigensystem_stack
from test_ising import _written_out_chain_modes
from test_quench import _two_rule_bound

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
    _check_energy(values, asymptotic_energy(params), params.n_sites)


@SETTINGS
@given(XY_GENERIC)
def test_xy_generic(p):
    _check_xy(p)


@SETTINGS
@given(xy_critical())
def test_xy_critical(p):
    _check_xy(p)


# Any XY chain up to 400 dimers, vanishing anisotropies and null quenches included.
XY_CHAINS = XY_GENERIC | xy_critical() | st.builds(
    QuenchProtocol,
    gamma=st.floats(1e-12, 3.0),
    delta0=st.floats(0.0, 3.0),
    delta1=st.just(0.0) | st.floats(0.0, 3.0),
    n_dimers=st.integers(2, 400),
)


@SETTINGS
@given(XY_CHAINS)
def test_mirror_modes_share_their_bands(p):
    # the time kernel runs mode n - 1 - i (k -> 2 pi - k) at the bands of mode
    # i; eigh of the full zone gives the two the same bands to rounding
    n, eps = p.n_dimers, np.finfo(float).eps
    for delta in (p.delta0, p.delta0 + p.delta1):
        bands = eigensystem_stack(bloch_stack(p.gamma, delta, n))[0]
        gap = np.max(np.abs(bands[: n // 2] - bands[::-1][: n // 2]))
        assert gap <= 16.0 * eps * np.max(bands)


@SETTINGS
@given(ISING_GENERIC)
def test_ising_generic(params):
    _check_ising(params)


@SETTINGS
@given(ising_critical())
def test_ising_critical(params):
    _check_ising(params)


@SETTINGS
@given(ISING_GENERIC | ising_critical())
def test_ising_chain_modes_equal_the_written_out_formula(params):
    amp, freq = params.chain_modes()
    expected_amp, expected_freq = _written_out_chain_modes(params)
    assert np.array_equal(amp, expected_amp)
    assert np.array_equal(freq, expected_freq)


# Either model at any size up to 400 dimers or 800 sites, vanishing
# anisotropies and null quenches included.
RULE_PARAMS = (
    XY_CHAINS
    | ISING_GENERIC
    | ising_critical()
    | st.builds(
        IsingParams,
        h0=st.floats(-3.0, 3.0),
        h1=st.just(0.0) | st.floats(-3.0, 3.0),
        n_sites=st.integers(2, 800),
    )
)


@SETTINGS
@given(RULE_PARAMS)
def test_one_resolution_rule_equals_both_model_rules(params):
    assert resolution_bound(params) == _two_rule_bound(params)


# The ED (battery, charger) kinds that cli._MODELS built from the options
# before each supplier named its own (ed_kinds).
_FORMER_CLI_KINDS = {
    "xy": lambda opts: (
        DimerizedXY(opts["gamma"], opts["delta0"]),
        DimerizedXY(opts["gamma"], opts["delta0"] + opts["delta1"])),
    "ising": lambda opts: (
        TransverseIsing(opts["h0"]), TransverseIsing(opts["h0"] + opts["h1"])),
}


@SETTINGS
@given(RULE_PARAMS)
def test_ed_kinds_are_the_former_cli_kinds(params):
    # the options a command builds the supplier from are its fields; repr
    # compares the kinds' classes and each field's bits, signed zeros included
    (model,) = [name for name, row in cli._MODELS.items() if row[0] is type(params)]
    former = _FORMER_CLI_KINDS[model](asdict(params))
    assert params.ed_kinds() == former
    assert repr(params.ed_kinds()) == repr(former)


@st.composite
def trace_args(draw):
    """``trace`` arguments: a small chain at the defaults, and a window, t-end and dt
    drawn around the default window and the resolution bound, or left out.  The
    window's width is a few steps or a span of the window's size."""
    if draw(st.booleans()):
        n = draw(st.integers(4, 12))
        args = ["--n-dimers", str(n)]
        window = default_recurrence_window(n)
        bound = resolution_bound(QuenchProtocol(1.25, 0.3, 0.6, n))
    else:
        n = draw(st.integers(4, 24))
        args = ["--model", "ising", "--n-sites", str(n)]
        window = ising_recurrence_window(n)
        bound = ising_resolution_bound(IsingParams(0.8, 0.7, n))
    times = st.floats(0.0, 1.5).map(lambda x: x * window[1])
    steps = st.floats(0.05, 1.5).map(lambda x: x * bound)
    widths = st.floats(0.0, 2.0).map(lambda x: x * bound) | times
    lo, width = draw(st.none() | times), draw(st.none() | widths)
    hi = None if width is None else (window[0] if lo is None else lo) + width
    t_end, dt = draw(st.none() | times), draw(st.none() | steps)
    flags = ["--window-min", "--window-max", "--t-end", "--dt"]
    for flag, value in zip(flags, [lo, hi, t_end, dt]):
        if value is not None:
            args += [flag, repr(value)]
    return args


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(trace_args())
@example(["--n-dimers", "20", "--window-min", "0", "--window-max", "0.01", "--t-end", "20"])
@example(["--model", "ising", "--n-sites", "20", "--window-min", "0", "--window-max", "0.001",
          "--t-end", "20"])
def test_trace_exits_with_a_verdict(args):
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["trace", *args, "--out", os.path.join(tmp, "t.csv")]) in (0, 2, 3)


@st.composite
def grid_and_window(draw):
    """A grid dt k, or start + dt k, and a window whose edges each sit on a sample,
    between two samples or past either end of the grid."""
    dt = draw(st.floats(1e-3, 10.0))
    start = draw(st.just(0.0) | st.floats(0.0, 1e3))
    times = _uniform_times(start, start + dt * draw(st.floats(1e-3, 40.0)), dt, np.inf)
    n = len(times)

    def edge():
        i = draw(st.integers(0, n - 1))
        return draw(st.sampled_from([
            times[i],
            times[i] + dt * draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            times[0] - dt * draw(st.floats(0.0, 5.0, exclude_min=True)),
            times[-1] + dt * draw(st.floats(0.0, 5.0, exclude_min=True)),
        ]))

    return times, (edge(), edge())


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(grid_and_window())
def test_window_span_is_the_window_mask(case):
    times, window = case
    index = np.nonzero((times >= window[0]) & (times <= window[1]))[0]
    if index.size == 0:
        with pytest.raises(ValueError, match="holds none of the"):
            _window_span(times, window)
    else:
        assert _window_span(times, window) == (index[0], index[-1] + 1)
        assert index.size == index[-1] + 1 - index[0]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.lists(st.floats(allow_subnormal=True) | st.sampled_from([0.0, -0.0]), min_size=1))
def test_float_cells_are_format_bytes(values):
    expected = "".join(format(x, ".16e") + "\n" for x in values)
    assert cli._table_text([values], "\n") == expected
