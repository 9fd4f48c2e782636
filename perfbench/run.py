#!/usr/bin/env python3
"""Builds and runs the event-bus wall-clock benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload ward_fanout --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-test

The first invocation configures and builds the amuse library and the
`perfbench` binary into .bench_build/perfbench (RelWithDebInfo, the
project's default flags); later invocations only re-check the build. The
binary's last stdout line is one JSON object: correct, attempted, failed,
metrics. Build output goes to stderr so stdout stays parseable. The run
length defaults to BENCHMARK.json's run_seconds; the binary checks the
workload name.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(root: Path) -> Path:
    bench_dir = root / "perfbench"
    build_dir = root / ".bench_build" / "perfbench"
    for needed in ("src/CMakeLists.txt", "cmake/BuildFlags.cmake",
                   "cmake/NetFeatures.cmake"):
        if not (root / needed).is_file():
            fail(f"{needed} is missing: the benchmark builds the program "
                 "from the sources of its checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 1)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail(f"build step failed: {' '.join(cmd)}", 1)
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary", 1)
    return binary


def main():
    root = Path(__file__).resolve().parent.parent
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="prove every output check rejects a faulty record")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    binary = build(root)
    if args.self_test:
        cmd = [str(binary), "--self-test"]
    else:
        cmd = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
