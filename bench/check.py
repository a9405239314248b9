"""Correctness checks on the outputs of one workload pass.

Every seed gets the invariant checks: exit code 0, every number finite,
dE(0) = 0 to the noise floor, E^inf not above the trace maximum, tau_r
inside its recurrence window and, for ``oracle``, a deviation from exact
diagonalization of at most 1e-8.  The canonical seed 0 is also compared,
number by number, with the references recorded in ``reference/``:
|x - ref| <= 1e-9 * max(1, |ref|), the full-vs-simplified tolerance of the
acceptance suite.  Byte identity with the reference is reported as an
information count, not checked, because a kernel change may legitimately
move last digits.
"""

from __future__ import annotations

import hashlib
import json
import lzma
import math
import re
import sys
from array import array
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_INDEX = REFERENCE_DIR / "seed0.json"

REL_TOL = 1e-9
ORACLE_TOL = 1e-8
# Traces vanish at t = 0 to 1e-10 per dimer (the library's noise floor).
NOISE_PER_MODE = 1e-10
SWEEP_HEADER = "param,e_s_per,e_r_per,e_inf_per,tau_s,tau_r"
TRACE_HEADER = "t,delta_e"

# A number in CSV, JSON or a printed line, not part of a word like "delta0".
_NUMBER = re.compile(
    r"(?<![\w.])(?:[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|[-+]?inf)(?![\w.])"
)
DEVIATION = re.compile(r"max deviation = (\S+)")


def numbers(text: str) -> list[float]:
    """Every numeric field of an output, in order of appearance."""
    return [float(tok) for tok in _NUMBER.findall(text)]


def output_texts(workload, inv_index: int, workdir: Path, stdout: str) -> dict[str, str]:
    """Output name -> text for one invocation (files it writes, else stdout)."""
    inv = workload.invocations[inv_index]
    if not inv.outputs:
        return {f"stdout{inv_index}": stdout}
    return {name: (workdir / name).read_text() for name in inv.outputs}


def load_reference() -> tuple[dict, array]:
    index = json.loads(REFERENCE_INDEX.read_text())
    values = array("d")
    values.frombytes(lzma.decompress((REFERENCE_DIR / index["values"]).read_bytes()))
    if sys.byteorder != index["byteorder"]:
        values.byteswap()
    return index, values


def _csv(text: str, header: str) -> list[list[float]]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"expected CSV header {header!r}")
    return [[float(cell) for cell in line.split(",")] for line in lines[1:]]


def _in_window(tau: float, window: tuple[float, float], dt: float) -> bool:
    # Parabolic refinement may move tau by up to one grid step.
    return window[0] - dt <= tau <= window[1] + dt


def invariants(workload, texts: dict[str, str]) -> list[str]:
    """Seed-independent checks; returns the problems found."""
    errors = []
    for name, text in texts.items():
        if not all(math.isfinite(x) for x in numbers(text)):
            errors.append(f"{name}: non-finite number")
    p = workload.inputs
    if workload.name == "trace-xy":
        rows = _csv(texts["trace.csv"], TRACE_HEADER)
        report = json.loads(texts["trace.report.json"])["report"]
        params = json.loads(texts["trace.report.json"])["params"]
        floor = NOISE_PER_MODE * p["n_dimers"]
        peak = max(v for _, v in rows)
        if len(rows) < 3:
            errors.append("trace has fewer than 3 samples")
        if abs(rows[0][0]) != 0.0 or abs(rows[0][1]) > floor:
            errors.append(f"dE(0) = {rows[0][1]!r} exceeds the noise floor {floor:g}")
        if report["e_inf"] > peak + floor:
            errors.append(f"E^inf {report['e_inf']!r} above the trace maximum {peak!r}")
        if not _in_window(report["tau_r"], report["window_r"], params["dt"]):
            errors.append(f"tau_r {report['tau_r']!r} outside {report['window_r']}")
        if not 0.0 < report["tau_s"] < report["window_r"][0]:
            errors.append(f"tau_s {report['tau_s']!r} not before the recurrence window")
    elif workload.name in ("sweep-xy", "sweep-ising"):
        rows = _csv(texts["sweep.csv"], SWEEP_HEADER)
        if workload.name == "sweep-xy":
            size = p["n_dimers"]
            window = (2.0 * size, 8.0 / 3.0 * size)
        else:
            size = p["n_sites"]
            window = (7.0 / 15.0 * size, 7.0 / 12.0 * size)
        if [r[0] for r in rows] != p["grid"]:
            errors.append(f"sweep rows {[r[0] for r in rows]} differ from the grid {p['grid']}")
        floor = NOISE_PER_MODE
        for param, e_s, e_r, e_inf, tau_s, tau_r in rows:
            if not e_inf <= max(e_s, e_r) + floor:
                errors.append(f"param {param!r}: E^inf/n {e_inf!r} above both maxima")
            if not 0.0 < tau_s < window[0]:
                errors.append(f"param {param!r}: tau_s {tau_s!r} out of range")
            if not window[0] - 1.0 <= tau_r <= window[1] + 1.0:
                errors.append(f"param {param!r}: tau_r {tau_r!r} outside {window}")
    else:
        for name, text in texts.items():
            found = DEVIATION.search(text)
            if found is None:
                errors.append(f"{name}: no deviation printed")
            elif not float(found.group(1)) <= ORACLE_TOL:
                errors.append(f"{name}: deviation {found.group(1)} above {ORACLE_TOL:g}")
    return errors


def against_reference(workload, texts: dict[str, str], reference) -> tuple[list[str], int]:
    """Compare every number with the seed-0 reference.

    Returns the problems found and how many outputs are byte-identical.
    """
    index, values = reference
    errors, identical = [], 0
    for name, text in texts.items():
        entry = index["outputs"][workload.name][name]
        if hashlib.sha256(text.encode()).hexdigest() == entry["sha256"]:
            identical += 1
        got = numbers(text)
        ref = values[entry["offset"] : entry["offset"] + entry["count"]]
        if len(got) != len(ref):
            errors.append(f"{name}: {len(got)} numbers, reference has {len(ref)}")
            continue
        worst = max(
            (abs(g - r) / max(1.0, abs(r)), i) for i, (g, r) in enumerate(zip(got, ref))
        ) if got else (0.0, -1)
        if not worst[0] <= REL_TOL:
            i = worst[1]
            errors.append(
                f"{name}: number {i} is {got[i]!r}, reference {ref[i]!r} "
                f"(relative {worst[0]:.3g} > {REL_TOL:g})"
            )
    return errors, identical
