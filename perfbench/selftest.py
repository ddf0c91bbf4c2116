#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (a few seconds per workload).

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload in BENCHMARK.json it
runs the smoke mode (`--smoke 1`) untraced and traced, and asserts that:

  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, and the run is correct;
  * the untraced run emits exactly the end-to-end metrics, the traced run
    exactly the per-layer metrics, each with a number and the unit
    BENCHMARK.json declares;
  * the referee rejects every deliberately perturbed reference
    (`--referee-selftest 1`), so a referee that never fails cannot pass.

Exits 0 when every check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke", "1"]
    if trace == 0:
        cmd += ["--referee-selftest", "1"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)


def check(workload, trace, expected, errors):
    proc = run(workload, trace)
    where = f"{workload} trace={trace}"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        errors.append(f"{where}: run not correct: {lines[-1][:200]}")
    metrics = result["metrics"]
    missing = set(expected) - set(metrics)
    extra = set(metrics) - set(expected)
    if missing or extra:
        errors.append(f"{where}: missing {sorted(missing)} extra {sorted(extra)}")
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            continue
        if not isinstance(m.get("value"), (int, float)) or m.get("unit") != unit:
            errors.append(f"{where}: {name} = {m}, want unit {unit}")
    if trace == 0:
        selftest = [l for l in lines if l.startswith("# selftest ")]
        if not selftest or any("ACCEPTED" in l for l in selftest):
            errors.append(f"{where}: referee self-test: {selftest}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for w in spec["workloads"]:
        check(w["name"], 0, e2e, errors)
        check(w["name"], 1, layer, errors)
        print(f"{w['name']}: {'ok' if not errors else 'FAILED'}", flush=True)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "PASS" if not errors else "FAIL")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
