"""Traced replay of one workload, for the benchmark's per-layer numbers.

``run.py`` starts this script in a fresh interpreter, so every replay sees
cold tables exactly as a CLI process does.  It wraps each public function of
the package's modules (``cli``, ``regimes``, ``quench``, ``xy``, ``ising``,
``sums``, ``ed``) from outside, so every call into one records a span: name,
start, end and parent.  Spans stay in memory and are written out when the
replay ends; a layer's self time is its spans minus their child spans.

The run has phases, each a root span:

* ``replay``: ``cli.main`` with the workload's arguments and ``--workers 1``,
  the library calls the CLI subcommand makes, in this process;
* ``warm``: every engine call of the replay again, with its tables cached,
  which is the time kernel alone;
* ``tables.cold`` / ``tables.warm``: one-sample engine calls on a fresh
  protocol (a parameter nudged by one ulp) per distinct replay protocol;
  cold minus warm is the per-mode table build;
* ``probe*``: the same measurements at the smallest sizes (5 dimers, 10
  sites, ED on 6 sites, 501 samples) with the workload's parameters.  A
  metric whose layer the workload never calls is taken from the probe and
  named in ``probed``, so it is defined but does not enter the workload's
  wall time.

Usage: traced.py --workload NAME --seed N --workdir DIR --result FILE --spans FILE
"""

import argparse
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import sys
import time
import warnings

import numpy as np

from check import DEVIATION
from workloads import make_workload

LAYERS = ("cli", "regimes", "quench", "xy", "ising", "sums", "ed")

# Private helpers that carry a layer's work named in the metrics.
EXTRA_SPANS = {"cli": ("_csv_text",)}

# Shape of the current XY time kernel, for the computed counts: F cosine and
# F sine families per mode, and (modes, F, block) float64 temporaries for the
# phases, their cosines and their sines.
KERNEL_FREQS = {"full": 4, "simplified": 2}
KERNEL_BLOCK = 4096
KERNEL_TEMPORARIES = 3

# Parameters a workload does not set take the CLI's trace defaults.
PROBE_DEFAULTS = {"gamma": 1.25, "delta0": 0.3, "delta1": 0.6, "h0": 0.8, "h1": 0.7}
PROBE_DIMERS = 5
PROBE_SITES = 10
PROBE_ED_SITES = 6
PROBE_TIMES = 0.1 * np.arange(501)


class Tracer:
    """Spans in parallel lists, plus small per-call records from hooks."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.info: dict[int, object] = {}
        self.phases: dict[str, tuple[int, int]] = {}  # name -> span index range
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float) -> None:
        self.ends[idx] = time.perf_counter()
        self.starts[idx] = t0
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """Root span ``phase.<name>``; the spans opened inside belong to it."""
        idx = self._open("phase." + name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0)
            self.phases[name] = (idx, len(self.names))

    def wrap(self, name: str, fn, hook=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            if hook is not None:
                self.info[idx] = hook(*args, **kwargs)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, t0)

        traced.__wrapped__ = fn
        return traced

    def duration(self, idx: int) -> float:
        return self.ends[idx] - self.starts[idx]

    def records(self, phase: str, name: str) -> list:
        """Hook records of the calls to ``name`` inside ``phase``, in call order."""
        lo, hi = self.phases[phase]
        return [self.info[i] for i in range(lo + 1, hi) if self.names[i] == name]

    def totals(self, phase: str) -> dict:
        """Span name -> [calls, total seconds, self seconds] inside ``phase``."""
        lo, hi = self.phases[phase]
        child = {}
        for i in range(lo + 1, hi):
            p = self.parents[i]
            child[p] = child.get(p, 0.0) + self.duration(i)
        out: dict = {}
        for i in range(lo + 1, hi):
            rec = out.setdefault(self.names[i], [0, 0.0, 0.0])
            d = self.duration(i)
            rec[0] += 1
            rec[1] += d
            rec[2] += d - child.get(i, 0.0)
        return out

    def dump(self, path: str) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": [
                        [self.names[i], self.starts[i] - t0, self.ends[i] - t0, self.parents[i]]
                        for i in range(len(self.names))
                    ],
                },
                fh,
            )


def _engine_hook(params, times, *args, **kwargs):
    return (params, np.asarray(times, dtype=float), args, kwargs)


def _rows_hook(values):
    return int(np.shape(values)[0])


def _grid_hook(*args, **kwargs):
    # sweep_delta0(gamma, delta1, n, grid) / sweep_field(h1, n, grid)
    return len(list(args[-1]))


def _ed_hook(battery, charger, times):
    return int(battery.n_sites)


HOOKS = {
    "quench.energy_at_times": _engine_hook,
    "ising.ising_energy_at_times": _engine_hook,
    "sums.compensated_sum_axis0": _rows_hook,
    "sums.compensated_sum": _rows_hook,
    "regimes.sweep_delta0": _grid_hook,
    "regimes.sweep_field": _grid_hook,
    "ed.oracle_energy_trace": _ed_hook,
}


def install(tracer: Tracer) -> dict:
    """Replace every public function of every layer by a traced wrapper.

    Modules bind each other's functions at import time, so every module
    attribute that *is* one of the originals is replaced.  Returns the
    layer modules by name.
    """
    modules = {layer: importlib.import_module(f"spinbattery.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in EXTRA_SPANS.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj, HOOKS.get(name)))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "spinbattery" and not mod_name.startswith("spinbattery."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
    return modules


# Span name (prefix) whose presence in the replay shows that the workload
# calls what a per-layer metric measures, by metric name or else by layer.
# Without it the metric comes from the probe.  The cli and sums layers are
# used by every workload.
SOURCES = {
    "quench.": "quench.energy_at_times",
    "quench.asymptotic_s": "quench.asymptotic_energy",
    "xy.": "xy.",
    "regimes.point_s": "regimes.sweep_",
    "regimes.extract_s": "regimes.",
    "ising.": "ising.ising_energy_at_times",
    "ed.": "ed.oracle_energy_trace",
}


def _nudged(params):
    """Equal-sized protocol with a fresh cache key (one parameter +1 ulp)."""
    field = "delta0" if hasattr(params, "delta0") else "h0"
    value = getattr(params, field)
    return dataclasses.replace(params, **{field: float(np.nextafter(value, np.inf))})


def repeat_engines(tracer: Tracer, mods: dict, prefix: str) -> None:
    """Warm repeats of the engine calls of ``<prefix>replay``, and table builds."""
    funcs = {
        "quench.energy_at_times": mods["quench"].energy_at_times,
        "ising.ising_energy_at_times": mods["ising"].ising_energy_at_times,
    }
    calls = [
        (funcs[name], rec) for name in funcs for rec in tracer.records(prefix + "replay", name)
    ]
    with tracer.phase(prefix + "warm"):
        for fn, (params, times, args, kwargs) in calls:
            fn(params, times, *args, **kwargs)
    seen, fresh = [], []
    for fn, (params, times, args, kwargs) in calls:
        if params not in seen:
            seen.append(params)
            fresh.append((fn, _nudged(params), times[:1], args, kwargs))
    for temperature in ("cold", "warm"):
        with tracer.phase(prefix + "tables." + temperature):
            for fn, params, times, args, kwargs in fresh:
                fn(params, times, *args, **kwargs)


def replay(tracer: Tracer, mods: dict, workload) -> dict:
    """The workload's CLI calls, in this process, with one worker."""
    out = io.StringIO()
    codes = []
    with tracer.phase("replay"), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out):
            for inv in workload.invocations:
                codes.append(mods["cli"].main(list(inv.with_workers(1).argv)))
    edge = mods["regimes"].RecurrenceWindowWarning
    text = out.getvalue()
    files = [f for inv in workload.invocations for f in inv.outputs]
    deviations = [float(m) for m in DEVIATION.findall(text)]
    return {
        "exit_codes": codes,
        "regimes.window_edge_hits": sum(1 for w in caught if issubclass(w.category, edge)),
        "cli.bytes_out": len(text.encode()) + sum(os.path.getsize(f) for f in files if os.path.exists(f)),
        "ed.max_deviation": max(deviations, default=0.0),
    }


def probe(tracer: Tracer, mods: dict, inputs: dict) -> dict:
    """Every layer once at the smallest sizes, with the workload's parameters."""
    quench, ising, regimes, ed = mods["quench"], mods["ising"], mods["regimes"], mods["ed"]
    given = dict(inputs)
    if "grid" in inputs:
        given["delta0" if inputs["model"] == "xy" else "h0"] = inputs["grid"][0]
    g, d0, d1, h0, h1 = (given.get(k, v) for k, v in PROBE_DEFAULTS.items())
    proto = quench.QuenchProtocol(g, d0, d1, PROBE_DIMERS)
    params = ising.IsingParams(h0, h1, PROBE_SITES)
    with tracer.phase("probe.replay"), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        e_inf = quench.asymptotic_energy(proto)
        ising.ising_energy_at_times(params, PROBE_TIMES)
        regimes.sweep_delta0(g, d1, PROBE_DIMERS, [d0])
        window = regimes.default_recurrence_window(PROBE_DIMERS)
        trace = quench.energy_trace(proto, window[1], 0.5 * quench.resolution_bound(proto))
        regimes.analyze_trace(trace, e_inf, window)
        battery = ed.build_hamiltonian(ed.DimerizedXY(g, d0), PROBE_ED_SITES)
        charger = ed.build_hamiltonian(ed.DimerizedXY(g, d0 + d1), PROBE_ED_SITES)
        oracle = ed.oracle_energy_trace(battery, charger, PROBE_TIMES)
        small = quench.QuenchProtocol(g, d0, d1, PROBE_ED_SITES // 2)
        engine = quench.energy_at_times(small, PROBE_TIMES)
    # One worker against two on a two-point grid: mostly pool start-up.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        t0 = time.perf_counter()
        regimes.sweep_delta0(g, d1, PROBE_DIMERS, [d0, d0 + 0.05], workers=1)
        t1 = time.perf_counter()
        regimes.sweep_delta0(g, d1, PROBE_DIMERS, [d0, d0 + 0.05], workers=2)
        t2 = time.perf_counter()
    return {
        "ed.max_deviation": float(np.max(np.abs(engine - oracle.values))),
        "regimes.parallel_efficiency": (t1 - t0) / (2.0 * (t2 - t1)),
    }


def layer_metrics(tracer: Tracer, prefix: str) -> dict:
    """Per-layer numbers from the phases ``<prefix>replay``, ``warm``, ``tables.*``."""
    replay_t = tracer.totals(prefix + "replay")
    warm_t = tracer.totals(prefix + "warm")
    cold_t = tracer.totals(prefix + "tables.cold")
    hot_t = tracer.totals(prefix + "tables.warm")

    def total(table, name, column=1):
        return table.get(name, (0, 0.0, 0.0))[column]

    def layer(prefix_, column):
        return sum(v[column] for name, v in replay_t.items() if name.startswith(prefix_))

    def records(name):
        return tracer.records(prefix + "replay", name)

    samples = trig = block = 0
    for params, times, args, kwargs in records("quench.energy_at_times"):
        freqs = KERNEL_FREQS[args[0] if args else kwargs.get("evaluator", "full")]
        samples += params.n_dimers * times.size
        trig += 2 * freqs * params.n_dimers * times.size
        width = min(times.size, KERNEL_BLOCK)
        block = max(block, KERNEL_TEMPORARIES * params.n_dimers * freqs * width * 8)
    warm_kernel = total(warm_t, "quench.energy_at_times")
    points = sum(records("regimes.sweep_delta0")) + sum(records("regimes.sweep_field"))
    sweep_s = total(replay_t, "regimes.sweep_delta0") + total(replay_t, "regimes.sweep_field")
    ground = total(replay_t, "ed.even_sector_ground_state")
    return {
        "cli.format_s": sum(
            total(replay_t, name, 2)
            for name in ("cli.format_float", "cli.deterministic_json", "cli._csv_text")
        ),
        "quench.kernel_s": total(warm_t, "quench.energy_at_times", 2),
        "quench.table_build_s": (
            total(cold_t, "quench.energy_at_times") - total(hot_t, "quench.energy_at_times")
        ),
        "quench.asymptotic_s": total(replay_t, "quench.asymptotic_energy"),
        "quench.mode_samples_per_s": samples / warm_kernel if warm_kernel else 0.0,
        "quench.trig_evals": trig,
        "quench.block_bytes": block,
        "xy.tables_s": layer("xy.", 2),
        "xy.tables_calls": layer("xy.", 0),
        "sums.reduce_s": layer("sums.", 2),
        "sums.rows_reduced": sum(records("sums.compensated_sum_axis0"))
        + sum(records("sums.compensated_sum")),
        "regimes.point_s": sweep_s / points if points else 0.0,
        "regimes.extract_s": layer("regimes.", 2),
        "ising.kernel_s": total(warm_t, "ising.ising_energy_at_times", 2),
        "ising.table_build_s": (
            total(cold_t, "ising.ising_energy_at_times")
            - total(hot_t, "ising.ising_energy_at_times")
        ),
        "ising.mode_samples": sum(
            p.n_sites * t.size for p, t, _, _ in records("ising.ising_energy_at_times")
        ),
        "ed.build_s": total(replay_t, "ed.build_hamiltonian"),
        "ed.ground_state_s": ground,
        "ed.evolve_s": total(replay_t, "ed.oracle_energy_trace") - ground,
        "ed.dim": max((2 ** (n - 1) for n in records("ed.oracle_energy_trace")), default=0),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args(argv)

    workload = make_workload(args.workload, args.seed)
    os.chdir(args.workdir)
    tracer = Tracer()
    mods = install(tracer)

    replayed = replay(tracer, mods, workload)
    codes = replayed.pop("exit_codes")
    replay_root = tracer.phases["replay"][0]
    repeat_engines(tracer, mods, "")
    probe_only = probe(tracer, mods, workload.inputs)
    repeat_engines(tracer, mods, "probe.")

    own = layer_metrics(tracer, "")
    own.update(replayed)
    alt = layer_metrics(tracer, "probe.")
    alt.update(probe_only)
    called = tracer.totals("replay")
    metrics, probed = {}, []
    for name, value in own.items():
        source = SOURCES.get(name, SOURCES.get(name.split(".")[0] + "."))
        if source is None or any(span.startswith(source) for span in called):
            metrics[name] = value
        else:
            metrics[name] = alt[name]
            probed.append(name)

    tracer.dump(args.spans)
    result = {
        "exit_codes": codes,
        "metrics": metrics,
        "probed": probed,
        "probe_parallel_efficiency": alt["regimes.parallel_efficiency"],
        "replay_s": tracer.duration(replay_root),
        "spans": len(tracer.names),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if all(c == 0 for c in codes) else 1


if __name__ == "__main__":
    sys.exit(main())
