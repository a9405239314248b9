"""Workload definitions: the CLI invocations each benchmark workload runs.

Seed 0 gives the canonical inputs, whose outputs are compared with the
recorded references in ``reference/``.  Any other seed shifts gamma (or the
fields) and the grid endpoints by small seed-derived offsets, so a claim can
be checked on inputs not seen while a change was written.  The offsets are
kept small enough that the amount of work (modes x samples) moves by well
about 0.5% or less, which keeps run-to-run spread across seeds down to timing noise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("trace-xy", "sweep-xy", "sweep-ising", "oracle")

# The CLI process pool gets as many workers as the 2-core machine the
# benchmark was written for has cores; the driver itself stays one process.
SWEEP_XY_WORKERS = 2

# Mirrors regimes.DEFAULT_SHORT_SPAN, the CLI's --t-short default.
T_SHORT = 50.0


@dataclass(frozen=True)
class Invocation:
    """One ``spinbattery`` CLI call: arguments and the files it writes."""

    kind: str  # "trace", "sweep" or "oracle"
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    workers: int = 1

    def with_workers(self, workers: int) -> "Invocation":
        """The same call with another --workers value (sweeps only)."""
        if self.kind != "sweep":
            return self
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(workers)
        return Invocation(self.kind, tuple(argv), self.outputs, workers)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    invocations: tuple[Invocation, ...]
    inputs: dict = field(default_factory=dict)

    @property
    def canonical(self) -> bool:
        return self.seed == 0


def _num(x: float) -> str:
    return repr(float(x))


def _offset(rng: random.Random | None, half_width: float) -> float:
    return 0.0 if rng is None else rng.uniform(-half_width, half_width)


def make_workload(name: str, seed: int) -> Workload:
    """Inputs of workload ``name`` for ``seed``; seed 0 is canonical."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = None if seed == 0 else random.Random(f"{name}:{seed}")

    if name == "trace-xy":
        inputs = {
            "model": "xy",
            "gamma": 1.25 + _offset(rng, 0.005),
            "delta0": 0.3 + _offset(rng, 0.005),
            "delta1": 0.6,
            "n_dimers": 300,
        }
        # t_end and dt stay at the CLI defaults: the recurrence window end
        # and half the resolution bound.
        argv = (
            "trace", "--gamma", _num(inputs["gamma"]), "--delta0", _num(inputs["delta0"]),
            "--delta1", _num(inputs["delta1"]), "--n-dimers", str(inputs["n_dimers"]),
            "--out", "trace.csv",
        )
        invs = (Invocation("trace", argv, ("trace.csv", "trace.report.json")),)

    elif name == "sweep-xy":
        lo = 0.05 + _offset(rng, 0.005)
        inputs = {
            "model": "xy",
            "gamma": 1.1 + _offset(rng, 0.003),
            "delta1": 0.8,
            "n_dimers": 300,
            "grid": [lo + i * 0.05 for i in range(8)],
            "workers": SWEEP_XY_WORKERS,
        }
        argv = (
            "sweep", "--gamma", _num(inputs["gamma"]), "--delta1", _num(inputs["delta1"]),
            "--n-dimers", str(inputs["n_dimers"]),
            "--param-min", _num(lo), "--param-max", _num(lo + 7 * 0.05), "--param-step", "0.05",
            "--workers", str(SWEEP_XY_WORKERS), "--out", "sweep.csv",
        )
        invs = (Invocation("sweep", argv, ("sweep.csv",), SWEEP_XY_WORKERS),)

    elif name == "sweep-ising":
        lo = 0.4 + _offset(rng, 0.003)
        inputs = {
            "model": "ising",
            "h1": 0.25 + _offset(rng, 0.003),
            "n_sites": 600,
            "grid": [lo + i * 0.02 for i in range(31)],
            "workers": 1,
        }
        argv = (
            "sweep", "--model", "ising", "--h1", _num(inputs["h1"]),
            "--n-sites", str(inputs["n_sites"]),
            "--param-min", _num(lo), "--param-max", _num(lo + 30 * 0.02), "--param-step", "0.02",
            "--workers", "1", "--out", "sweep.csv",
        )
        invs = (Invocation("sweep", argv, ("sweep.csv",), 1),)

    else:  # oracle
        inputs = {
            "n_sites": 10,
            "t_end": 50.0,
            "dt": 0.1,
            "gamma": 1.25 + _offset(rng, 0.05),
            "delta0": 0.3 + _offset(rng, 0.05),
            "delta1": 0.6 + _offset(rng, 0.05),
            "h0": 0.8 + _offset(rng, 0.05),
            "h1": 0.7 + _offset(rng, 0.05),
        }
        common = ("--n-sites", "10", "--t-end", "50.0", "--dt", "0.1")
        invs = (
            Invocation("oracle", (
                "oracle-check", "--model", "xy", *common,
                "--gamma", _num(inputs["gamma"]), "--delta0", _num(inputs["delta0"]),
                "--delta1", _num(inputs["delta1"]),
            )),
            Invocation("oracle", (
                "oracle-check", "--model", "ising", *common,
                "--h0", _num(inputs["h0"]), "--h1", _num(inputs["h1"]),
            )),
        )
    return Workload(name, seed, invs, inputs)


def _grid_len(t_start: float, t_end: float, dt: float) -> int:
    # Same count as regimes._uniform_grid and the CLI's trace grid.
    return int(math.floor((t_end - t_start) / dt)) + 1


def mode_samples(workload: Workload) -> dict[str, int]:
    """Modes x time samples the engines evaluate for one pass of the workload.

    Counted from the inputs and the grids the CLI builds at this commit
    (dt = half the resolution bound, the short span and the recurrence
    window); the ED part of ``oracle`` counts eigenmodes of the 2^(N-1)
    even block times samples.  Imports the library to get the bounds.
    """
    from spinbattery.ising import IsingParams, ising_resolution_bound
    from spinbattery.quench import QuenchProtocol, resolution_bound
    from spinbattery.regimes import (
        DT_SAFETY,
        default_recurrence_window,
        ising_recurrence_window,
    )

    p = workload.inputs
    counts = {"engine": 0, "ed": 0}
    if workload.name == "trace-xy":
        proto = QuenchProtocol(p["gamma"], p["delta0"], p["delta1"], p["n_dimers"])
        dt = DT_SAFETY * resolution_bound(proto)
        t_end = default_recurrence_window(p["n_dimers"])[1]
        counts["engine"] = p["n_dimers"] * _grid_len(0.0, t_end, dt)
    elif workload.name == "sweep-xy":
        window = default_recurrence_window(p["n_dimers"])
        for d0 in p["grid"]:
            proto = QuenchProtocol(p["gamma"], d0, p["delta1"], p["n_dimers"])
            dt = DT_SAFETY * resolution_bound(proto)
            samples = _grid_len(0.0, T_SHORT, dt) + _grid_len(*window, dt)
            counts["engine"] += p["n_dimers"] * samples
    elif workload.name == "sweep-ising":
        window = ising_recurrence_window(p["n_sites"])
        for h0 in p["grid"]:
            params = IsingParams(h0, p["h1"], p["n_sites"])
            dt = DT_SAFETY * ising_resolution_bound(params)
            samples = _grid_len(0.0, T_SHORT, dt) + _grid_len(*window, dt)
            counts["engine"] += p["n_sites"] * samples
    else:
        samples = _grid_len(0.0, p["t_end"], p["dt"])
        n = p["n_sites"]
        counts["engine"] = (n // 2 + n) * samples  # xy: n/2 dimers; ising: n sites
        counts["ed"] = 2 * 2 ** (n - 1) * samples
    return counts
