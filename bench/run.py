"""Benchmark of the spinbattery CLI: end-to-end runs and a traced run per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all          # every workload, one table

``--trace 0`` runs the workload's CLI calls as child processes of this one
process, one at a time (a closed loop with one client), again and again for
``--seconds``, and reports medians of the end-to-end metrics.  ``--trace 1``
measures interpreter and import set-up, runs the CLI once untraced for the
tracing overhead (and, for sweeps, with one and two workers for the
parallel efficiency), then replays the workload in traced child
interpreters (``traced.py``) for ``--seconds`` and reports the per-layer
medians.  Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Nothing pins CPUs or controls the clock frequency; the record printed with
each result says what the machine was.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import check
from workloads import WORKLOADS, make_workload, mode_samples

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# A run ends within this many seconds even if a child hangs: children still
# running then are killed with their process group and count as failed.
HARD_LIMIT_S = 170.0

# Least number of fresh interpreters started per run for the set-up
# metrics; the median of them is reported.
SETUP_REPEATS = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "mode_samples_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.python_s": "s",
    "setup.numpy_import_s": "s",
    "setup.spinbattery_import_s": "s",
    "cli.format_s": "s",
    "cli.bytes_out": "bytes",
    "quench.kernel_s": "s",
    "quench.table_build_s": "s",
    "quench.asymptotic_s": "s",
    "quench.mode_samples_per_s": "1/s",
    "quench.trig_evals": "count",
    "quench.block_bytes": "bytes",
    "xy.tables_s": "s",
    "xy.tables_calls": "count",
    "sums.reduce_s": "s",
    "sums.rows_reduced": "count",
    "regimes.point_s": "s",
    "regimes.extract_s": "s",
    "regimes.parallel_efficiency": "ratio",
    "regimes.window_edge_hits": "count",
    "ising.kernel_s": "s",
    "ising.table_build_s": "s",
    "ising.mode_samples": "count",
    "ed.build_s": "s",
    "ed.ground_state_s": "s",
    "ed.evolve_s": "s",
    "ed.dim": "count",
    "ed.max_deviation": "J",
    "trace.overhead_ratio": "ratio",
}

# Counts computed from array sizes and the kernel's design, not measured.
COMPUTED = ("quench.trig_evals", "quench.block_bytes")


# BLAS thread variables that children get as "1" unless already set.  With
# its default of one thread per core, OpenBLAS spins a second thread during
# the ED eigh calls: on 2 cores that costs CPU time, tripled the pass-to-pass
# spread of `oracle`, and puts `sweep-xy`'s two workers over the core count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    return env


def spawn(argv: list[str], cwd: Path, stdout_path: Path, deadline: float) -> dict:
    """Run one child to completion; wall time and rusage from ``os.wait4``.

    The child gets its own process group, which is killed at ``deadline``
    (a ``time.perf_counter`` value), pool workers included.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=out, stderr=err, start_new_session=True
        )
        killer = threading.Timer(max(0.0, deadline - t0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
    # os.wait4 reaped the child; tell Popen so it does not wait again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "t0": t0,
        "t1": t1,
        # children's rusage includes the pool workers they reaped
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def cli_argv(inv) -> list[str]:
    return [sys.executable, "-m", "spinbattery.cli", *inv.argv]


def run_pass(workload, workdir: Path, deadline: float, invocations=None) -> dict:
    """One pass over the workload's CLI calls, one process at a time."""
    invocations = workload.invocations if invocations is None else invocations
    runs, texts = [], {}
    for i, inv in enumerate(invocations):
        out = workdir / f"stdout{i}.txt"
        run = spawn(cli_argv(inv), workdir, out, deadline)
        runs.append(run)
        if run["rc"] == 0:
            texts.update(check.output_texts(workload, i, workdir, out.read_text()))
    return {
        "wall_s": runs[-1]["t1"] - runs[0]["t0"],
        "cpu_s": sum(r["cpu_s"] for r in runs),
        "peak_rss_mb": max(r["maxrss_kb"] for r in runs) / 1024.0,
        "exit_codes": [r["rc"] for r in runs],
        "texts": texts,
    }


def check_pass(workload, result: dict, reference) -> tuple[int, list[str], int]:
    """(failed invocations, problems, byte-identical outputs) of one pass."""
    problems = [f"exit code {rc}" for rc in result["exit_codes"] if rc != 0]
    identical = 0
    if not problems:
        try:
            problems += check.invariants(workload, result["texts"])
            if workload.canonical:
                errs, identical = check.against_reference(workload, result["texts"], reference)
                problems += errs
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    failed = len(workload.invocations) if problems else 0
    return failed, problems, identical


def time_python(code: str, workdir: Path, deadline: float) -> float:
    run = spawn([sys.executable, "-c", code], workdir, workdir / "setup.txt", deadline)
    if run["rc"] != 0:
        raise RuntimeError(f"python3 -c {code!r} exited with {run['rc']}")
    return run["t1"] - run["t0"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(workload) -> dict:
    """Facts about the machine and software a result was measured on."""
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": {var: child_env()[var] for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "workers": [inv.workers for inv in workload.invocations],
        "pinning": "none; no CPU pinning or frequency control",
    }


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _blas_name(np) -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def measure_end_to_end(workload, seconds: float, workdir: Path, hard: float) -> tuple[dict, dict]:
    reference = check.load_reference() if workload.canonical else None
    samples = mode_samples(workload)
    # Set-up samples are spread over the run, one after each pass, so they
    # see the same machine load as the passes.
    setup = [time_python("import spinbattery.cli", workdir, hard)]
    passes = []
    deadline = min(time.perf_counter() + seconds, hard)
    while not passes or time.perf_counter() < deadline:
        result = run_pass(workload, workdir, hard)
        result["failed"], result["problems"], result["identical"] = check_pass(
            workload, result, reference
        )
        del result["texts"]
        passes.append(result)
        setup.append(time_python("import spinbattery.cli", workdir, hard))
    while len(setup) < SETUP_REPEATS:
        setup.append(time_python("import spinbattery.cli", workdir, hard))

    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    outputs_per_pass = sum(max(1, len(inv.outputs)) for inv in workload.invocations)
    metrics = {
        "wall_s": wall,
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "mode_samples_per_s": (samples["engine"] + samples["ed"]) / wall,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    detail = {
        "passes": len(passes),
        "quartiles": {
            "wall_s": quartiles(walls),
            "cpu_s": quartiles([p["cpu_s"] for p in passes]),
            "setup_s": quartiles(setup),
            "peak_rss_mb": quartiles([p["peak_rss_mb"] for p in passes]),
        },
        "mode_samples_per_pass": samples,
        "attempted": len(passes) * len(workload.invocations),
        "failed": sum(p["failed"] for p in passes),
        "problems": sorted({msg for p in passes for msg in p["problems"]}),
        "byte_identical_outputs": (
            f"{sum(p['identical'] for p in passes)}/{len(passes) * outputs_per_pass}"
            if workload.canonical else "n/a (off-canonical seed)"
        ),
    }
    return metrics, detail


def measure_layers(workload, seconds: float, workdir: Path, hard: float) -> tuple[dict, dict]:
    start = time.perf_counter()
    setup = {"pass": [], "import numpy": [], "import spinbattery.cli": []}
    for _ in range(SETUP_REPEATS):
        for code in setup:
            setup[code].append(time_python(code, workdir, hard))
    med = {code: statistics.median(v) for code, v in setup.items()}

    # Untraced baselines: the replayed arguments (one worker) for the tracing
    # overhead; for sweeps also two workers, for the parallel efficiency.
    reference = check.load_reference() if workload.canonical else None
    serial = tuple(inv.with_workers(1) for inv in workload.invocations)
    baselines = [run_pass(workload, workdir, hard, serial)]
    parallel = None
    if any(inv.kind == "sweep" for inv in workload.invocations):
        two = tuple(inv.with_workers(2) for inv in serial)
        baselines.append(run_pass(workload, workdir, hard, two))
        parallel = baselines[0]["wall_s"] / (2.0 * baselines[1]["wall_s"])
    base = baselines[0]
    attempted, failed, problems = 0, 0, []
    for result in baselines:
        n_failed, errs, _ = check_pass(workload, result, reference)
        attempted += len(serial)
        failed += n_failed
        problems += errs

    children, started = [], 0
    deadline = min(start + seconds, hard)
    while not started or time.perf_counter() < deadline:
        i = started
        started += 1
        result_path = workdir / f"traced{i}.json"
        run = spawn(
            [
                sys.executable, str(ROOT / "bench" / "traced.py"),
                "--workload", workload.name, "--seed", str(workload.seed),
                "--workdir", str(workdir), "--result", str(result_path),
                "--spans", str(WORK / f"spans-{workload.name}-seed{workload.seed}.json"),
            ],
            workdir,
            workdir / f"traced{i}.txt",
            hard,
        )
        attempted += len(workload.invocations)
        if run["rc"] != 0 or not result_path.exists():
            failed += len(workload.invocations)
            problems.append((workdir / f"traced{i}.err").read_text()[-2000:])
            break
        children.append(json.loads(result_path.read_text()))

    metrics = {
        "setup.python_s": med["pass"],
        "setup.numpy_import_s": med["import numpy"] - med["pass"],
        "setup.spinbattery_import_s": med["import spinbattery.cli"] - med["import numpy"],
    }
    probed = children[0]["probed"] if children else []
    for name in PER_LAYER:
        if children and name in children[0]["metrics"]:
            metrics[name] = statistics.median(c["metrics"][name] for c in children)
    if parallel is None:
        if children:
            metrics["regimes.parallel_efficiency"] = statistics.median(
                c["probe_parallel_efficiency"] for c in children
            )
        probed = probed + ["regimes.parallel_efficiency"]
    else:
        metrics["regimes.parallel_efficiency"] = parallel
    if children:
        # Traced replay against the untraced CLI work, i.e. its wall time less
        # the interpreter and import set-up of each CLI process.
        untraced = base["wall_s"] - len(serial) * med["import spinbattery.cli"]
        replayed = statistics.median(c["replay_s"] for c in children)
        metrics["trace.overhead_ratio"] = replayed / untraced
    detail = {
        "traced_runs": started,
        "untraced_serial_wall_s": base["wall_s"],
        "traced_replay_s": [c["replay_s"] for c in children],
        "spans_per_run": [c["spans"] for c in children],
        "probed": probed,
        "computed": list(COMPUTED),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    return metrics, detail


def run_one(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    hard = time.perf_counter() + HARD_LIMIT_S
    workload = make_workload(name, seed)
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        measure = measure_layers if trace else measure_end_to_end
        metrics, detail = measure(workload, seconds, workdir, hard)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["workload"] = name
    detail["seed"] = seed
    detail["inputs"] = workload.inputs
    detail["env"] = environment(workload)
    return metrics, detail


def result_line(metrics: dict, units: dict, attempted: int, failed: int) -> str:
    return json.dumps({
        "correct": failed == 0 and attempted > 0 and all(n in metrics for n in units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units if n in metrics},
    })


def print_table(name: str, metrics: dict, units: dict, detail: dict) -> None:
    print(f"== {name} (seed {detail['seed']})")
    quart = detail.get("quartiles", {})
    for metric, unit in units.items():
        if metric not in metrics:
            print(f"  {metric:32s} missing")
            continue
        note = ""
        if metric in quart:
            q1, _, q3 = quart[metric]
            note = f"  (q1 {q1:.4g}, q3 {q3:.4g})"
        if metric in detail.get("probed", ()):
            note += "  [probe: layer not used by this workload]"
        if metric in COMPUTED:
            note += "  [computed]"
        print(f"  {metric:32s} {metrics[metric]:<14.6g} {unit}{note}")
    frac = detail["failed"] / detail["attempted"] if detail["attempted"] else 1.0
    print(f"  failed_frac {frac:g} ({detail['failed']}/{detail['attempted']} CLI invocations)")
    for problem in detail.get("problems", ()):
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "spinbattery" / "cli.py").is_file():
        print(f"error: no spinbattery package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    units = PER_LAYER if args.trace else END_TO_END
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    results = {}
    for name in names:
        try:
            metrics, detail = run_one(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = (metrics, detail)
        print_table(name, metrics, units, detail)
        print("record " + json.dumps(detail, default=str))

    if len(names) == 1:
        metrics, detail = results[names[0]]
        print(result_line(metrics, units, detail["attempted"], detail["failed"]))
    else:
        merged = {f"{n}.{m}": v for n, (ms, _) in results.items() for m, v in ms.items()}
        merged_units = {f"{n}.{m}": u for n in names for m, u in units.items()}
        attempted = sum(d["attempted"] for _, d in results.values())
        failed = sum(d["failed"] for _, d in results.values())
        print(result_line(merged, merged_units, attempted, failed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
