#!/usr/bin/env python3
"""Runs workloads repeatedly and prints each metric's median and quartiles.

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1,2,3] [--sets 1|2] \
        [--seconds 20] [--trace 0] [--out perfbench/baseline.json]

Run from the root of a checkout. For every workload it runs
`perfbench/run.py` once per seed and reports, per metric, the median and
the spread (q3 - q1) / median, with q1 and q3 the quartiles Python's
statistics.quantiles(n=4) gives. For end-to-end metrics the spread is also
shown as a share of the metric's bound in BENCHMARK.json, which is how the
bounds were chosen.

--sets 2 adds a second set of seeds (each seed + 100) and interleaves the
two sets run by run, so a machine that drifts moves both alike. It then
also prints, per end-to-end metric, by how much the second set's median is
worse than the first's, as a share of the first and of the metric's bound:
two sets of the same code must agree within the bounds.

--out writes the numbers (quartiles and every run's value too), with the
machine's nproc, cpu_features and selected kernel, as JSON. A run that
fails is reported on stderr and makes its workload not correct; the other
runs still count.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SET_SEED_STEP = 100


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env, result = {}, None
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        # The host's CPU steal in the window, shown beside the metrics it
        # moves (not a metric of the benchmark).
        for line in lines:
            if line.startswith("# samples ") and "host_steal_pct=" in line:
                steal = float(line.split("host_steal_pct=")[1].split()[0])
                result["metrics"]["host_steal_pct"] = {"value": steal,
                                                       "unit": "%"}
    if proc.returncode != 0 or result is None:
        print(f"{workload} seed {seed}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
    return env, result, proc.returncode == 0


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seeds = [int(s) for s in args.seeds.split(",")]
    seed_sets = [[s + SET_SEED_STEP * k for s in seeds]
                 for k in range(args.sets)]

    report = {"seconds": args.seconds, "trace": args.trace,
              "seed_sets": seed_sets, "workloads": {}}
    for workload in args.workloads.split(","):
        per_set = [{} for _ in seed_sets]
        units, ok = {}, True
        for i in range(len(seeds)):
            for k, seed_set in enumerate(seed_sets):
                env, result, exit_ok = run_once(workload, seed_set[i],
                                                args.seconds, args.trace)
                if env:
                    report["env"] = {key: env.get(key) for key in
                                     ("nproc", "cpu_features", "kernel")}
                ok &= exit_ok and result is not None and \
                    result["correct"] and result["failed"] == 0
                if result is None:
                    continue
                for name, m in result["metrics"].items():
                    per_set[k].setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
        print(f"== {workload} ({len(seeds)} runs x {len(seed_sets)} sets, "
              f"correct={ok})")
        head = f"{'metric':44s}"
        for _ in seed_sets:
            head += f" {'median':>13s} {'spread':>7s} {'/bound':>6s}"
        if len(seed_sets) == 2:
            head += f" {'worse':>7s} {'/bound':>6s}"
        print(head)
        sets_out, worse_by = [{} for _ in seed_sets], {}
        for name in per_set[0]:
            line = f"{name:44s}"
            bound = bounds.get(name)
            for k in range(len(seed_sets)):
                values = per_set[k].get(name, [])
                if len(values) < 2:
                    line += f" {'-':>13s} {'-':>7s} {'-':>6s}"
                    continue
                s = summarize(values)
                s["unit"] = units[name]
                sets_out[k][name] = s
                rel = f"{s['spread'] / bound:6.2f}" if bound else "     -"
                line += f" {s['median']:13.6g} {s['spread']:7.3f} {rel}"
            if len(seed_sets) == 2 and bound and all(
                    name in s for s in sets_out):
                first = sets_out[0][name]["median"]
                second = sets_out[1][name]["median"]
                worse = (second - first) / first
                if better[name] == "higher":
                    worse = -worse
                worse_by[name] = worse
                line += f" {worse:7.3f} {worse / bound:6.2f}"
            print(line)
        entry = {"correct": ok, "metrics": sets_out[0]}
        if len(seed_sets) == 2:
            entry["second_set"] = sets_out[1]
            entry["second_worse_by"] = worse_by
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
