#!/usr/bin/env python3
"""Build and run the raefs wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fileserver --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

The first form runs one workload and prints, as its last stdout line, one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.
--all runs every workload untraced and prints each report with its
correctness verdict. The benchmark is built from the sources in this
checkout into .bench_build/ (CMake; Ninja when available).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
SPANS = ROOT / ".bench_build" / "spans"
BINARY = BUILD / "perfbench"
WORKLOADS = ["fileserver", "varmail-4c", "fileserver-faults"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "rae" / "supervisor.h").is_file():
        sys.exit(f"perfbench: raefs sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD), *gen],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def run_one(workload, seed, seconds, trace):
    """Run the benchmark binary; return (exit code, its stdout lines)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", str(SPANS)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced and report each")
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        sys.exit(f"perfbench: build failed: {e}")

    if args.all:
        status = 0
        for w in WORKLOADS:
            code, lines = run_one(w, args.seed, args.seconds, 0)
            print("\n".join(lines[:-1]))
            status = status or code
        return status

    try:
        code, lines = run_one(args.workload, args.seed, args.seconds,
                              args.trace)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("\n".join(lines), file=sys.stderr)
        sys.exit(f"perfbench: run failed (exit {code}) without a result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
