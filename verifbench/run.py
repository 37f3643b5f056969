#!/usr/bin/env python3
"""Builds and runs the end-to-end verification benchmark.

Run from the repository root:

    python3 verifbench/run.py --workload prove --seed 1 --seconds 20 --trace 0
    python3 verifbench/run.py --report --seed 1 --seconds 20

One run builds the benchmark package (`verifbench/Cargo.toml`, release
profile, into `$CARGO_TARGET_DIR` or `verifbench/target`), runs the timed
binary (`--trace 0`) or the traced one (`--trace 1`) and passes its output
through; the last line is the JSON result.  `--report` runs every workload
timed and traced and prints every metric with its unit, then the tracing
overhead of each workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["prove", "bug-hunt", "certify", "serve-mix"]
# A run stops starting passes at --seconds; one pass of the longest workload
# takes about 21 s on a 2-core x86-64 host.
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")


def build():
    manifest = os.path.join(HERE, "Cargo.toml")
    command = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
    return subprocess.run(command, stdout=sys.stderr).returncode == 0


def run_binary(workload, seed, seconds, traced):
    """Runs one workload; returns its stdout lines, or None on failure."""
    name = "verifbench-traced" if traced else "verifbench"
    binary = os.path.join(target_dir(), "release", name)
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        traces = os.path.join(target_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(traces, f"{workload}-{seed}.jsonl")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"verifbench: {workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print(f"verifbench: {workload} exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        json.loads(lines[-1])
    except ValueError:
        print(f"verifbench: {workload} printed no result line", file=sys.stderr)
        return None
    return lines


def metrics(lines):
    """The `metric <name> <value> <unit> [n=<samples>]` lines, by name."""
    found = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 4 and parts[0] == "metric":
            found[parts[1]] = (float(parts[2]), parts[3], " ".join(parts[4:]))
    return found


def report(seed, seconds):
    overhead = []
    for workload in WORKLOADS:
        for traced in (False, True):
            lines = run_binary(workload, seed, seconds, traced)
            if lines is None:
                return 1
            print(f"== {workload} ({'traced' if traced else 'timed'})")
            for line in lines[:-1]:
                if not line.startswith("metric "):
                    print(line)
            for name, (value, unit, note) in metrics(lines).items():
                print(f"  {name:<26} {value:>16.6g} {unit:<6} {note}")
            result = json.loads(lines[-1])
            print(f"  correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
            if traced:
                found = metrics(lines)
                overhead.append((workload, timed_wall, found["wall_s"][0], found["harness.uncovered_share"][0]))
            else:
                timed_wall = metrics(lines)["wall_s"][0]
    print("== tracing overhead (wall_s of one pass)")
    print(f"  {'workload':<10} {'timed s':>10} {'traced s':>10} {'overhead':>9} {'uncovered':>10}")
    for workload, timed, traced, uncovered in overhead:
        print(f"  {workload:<10} {timed:>10.3f} {traced:>10.3f} {100 * (traced / timed - 1):>8.1f}% {100 * uncovered:>9.3f}%")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true", help="run every workload, timed and traced")
    args = parser.parse_args()
    if not args.report and args.workload is None:
        parser.error("--workload or --report is required")
    if not build():
        print("verifbench: build failed", file=sys.stderr)
        return 1
    if args.report:
        return report(args.seed, args.seconds)
    lines = run_binary(args.workload, args.seed, args.seconds, args.trace == 1)
    if lines is None:
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
