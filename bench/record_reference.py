"""Record the seed-0 reference outputs that ``check.py`` compares against.

Run from the root of a checkout, only when a change is meant to move
results beyond the benchmark's tolerance:

    python3 bench/record_reference.py

Writes ``reference/seed0.json`` (per output: SHA-256, and where its numbers
sit) and ``reference/seed0.f64.xz`` (every number of every output as
native-endian float64, xz-compressed).
"""

from __future__ import annotations

import hashlib
import json
import lzma
import shutil
import sys
import time
from array import array

import check
from run import SRC, WORK, environment, run_pass
from workloads import WORKLOADS, make_workload


def main() -> int:
    sys.path.insert(0, str(SRC))
    outputs, values = {}, array("d")
    workdir = WORK / "record-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in WORKLOADS:
            workload = make_workload(name, 0)
            result = run_pass(workload, workdir, time.perf_counter() + 600.0)
            if any(result["exit_codes"]):
                print(f"error: {name} exited with {result['exit_codes']}", file=sys.stderr)
                return 1
            problems = check.invariants(workload, result["texts"])
            if problems:
                print(f"error: {name} fails its invariants: {problems}", file=sys.stderr)
                return 1
            outputs[name] = {}
            for out_name, text in result["texts"].items():
                nums = check.numbers(text)
                outputs[name][out_name] = {
                    "sha256": hashlib.sha256(text.encode()).hexdigest(),
                    "offset": len(values),
                    "count": len(nums),
                }
                values.extend(nums)
            print(f"{name}: {sum(o['count'] for o in outputs[name].values())} numbers")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(make_workload(WORKLOADS[0], 0))
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    blob = "seed0.f64.xz"
    if sys.byteorder != "little":
        values.byteswap()
    (check.REFERENCE_DIR / blob).write_bytes(lzma.compress(values.tobytes(), preset=9))
    index = {
        "recorded_at": env["git_sha"],
        "values": blob,
        "byteorder": "little",
        "outputs": outputs,
    }
    check.REFERENCE_INDEX.write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
