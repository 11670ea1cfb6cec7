#!/usr/bin/env python3
"""Run-to-run spread of the service benchmark's end-to-end metrics.

    python3 perfbench/spread.py --seeds 10 [--first-seed 1]
        [--workloads ingest,scan_hot,mixed_cold] [--out runs.jsonl]
        [--compare earlier.jsonl]

Runs run.py once per (seed, workload), interleaving the workloads so that
drift over time spreads across all of them, and prints for every metric
its median and its quartile spread (Q3 - Q1) / median next to the bound
in BENCHMARK.json. With --compare, also prints how far each median moved
from the medians of an earlier --out file, in the bad direction.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def medians(rows):
    values = {}
    for row in rows:
        for name, metric in row["metrics"].items():
            values.setdefault((row["workload"], name), []).append(metric["value"])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads")
    parser.add_argument("--out")
    parser.add_argument("--compare")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    rows = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"run failed: {' '.join(cmd)}")
            result = json.loads(lines[-1])
            result.update(workload=workload, seed=seed)
            if not result["correct"] or result["failed"]:
                print(f"incorrect result: {workload} seed {seed}", file=sys.stderr)
            rows.append(result)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(result) + "\n")

    before = medians(load(args.compare)) if args.compare else {}
    print(f"{'workload':<11} {'metric':<22} {'median':>12} {'spread':>7} "
          f"{'bound':>6} {'moved':>7}")
    for (workload, name), values in sorted(medians(rows).items()):
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        meta = metrics.get(name, {})
        moved = ""
        if (workload, name) in before:
            old = statistics.median(before[(workload, name)])
            sign = 1 if meta.get("better") == "lower" else -1
            moved = f"{sign * (med - old) / old:+.3f}" if old else ""
        print(f"{workload:<11} {name:<22} {med:>12.5g} {spread:>7.3f} "
              f"{meta.get('bound', float('nan')):>6} {moved:>7}")


if __name__ == "__main__":
    main()
