#!/usr/bin/env python3
"""Measures the run-to-run spread of the benchmark's metrics.

Usage (from the repository root):

  python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace 0]
                              [--workload ward_fanout ...]

Runs perfbench/run.py once per seed on each workload (sequentially, one
process at a time), appends every result line to
perfbench/runs/<workload>.trace<t>.jsonl, and prints for each metric the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out_dir = ROOT / "perfbench" / "runs"
    out_dir.mkdir(exist_ok=True)

    status = 0
    for workload in workloads:
        values = {}
        shares = set()
        log = out_dir / f"{workload}.trace{args.trace}.jsonl"
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            with log.open("a") as f:
                f.write(json.dumps({"seed": seed, **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: INCORRECT")
                status = 1
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{workload}: {args.runs} runs, failed share(s) {sorted(shares)}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = ""
            if bound is not None:
                note = f"bound {bound:.2f}" + (
                    "" if spread <= bound / 3 or name == "setup_s"
                    else "  <-- above bound/3")
            print(f"  {name:36s} median {med:14.4f}  q1 {q1:14.4f}  "
                  f"q3 {q3:14.4f}  spread {spread:7.4f}  {note}")
    sys.exit(status)


if __name__ == "__main__":
    main()
