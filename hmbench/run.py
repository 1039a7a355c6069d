#!/usr/bin/env python3
"""Build and run the HeteroMap benchmark.

Run from the repository root:

    python3 hmbench/run.py --workload net-zipf-hot --seed 1 --seconds 15 --trace 0
    python3 hmbench/run.py --all --seed 1 --seconds 15
    python3 hmbench/run.py --self-test

The first call configures and builds hmbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR, or .bench_build when that
is unset; later calls only rebuild what changed. The benchmark's own
output (workload properties and a table of every metric with its unit
and sample count) is relayed, then one JSON line with the metrics that
BENCHMARK.json lists: the end_to_end ones with --trace 0, the
per_layer ones with --trace 1. setup_s is the median over
SETUP_REPEATS set-ups, each in its own process. The exit code is
non-zero when the build fails, the run fails, or any answer disagrees
with the library reference. --all runs every workload traced and prints
every end-to-end and per-layer metric of each.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 5
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def run_quiet(command, timeout):
    """Run a build step with its output on stderr."""
    try:
        return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build(target):
    out = build_dir()
    started = time.monotonic()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    left = BUILD_TIMEOUT_S - (time.monotonic() - started)
    if run_quiet(["cmake", "--build", out, "-j", jobs, "--target", target],
                 left):
        fail(f"building {target} failed")
    return os.path.join(out, target)


def run_binary(command, deadline):
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"benchmark exited {proc.returncode} without a result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"benchmark exited {proc.returncode} without a result")
    return proc.returncode, lines[:-1], result


def trace_path(workload, seed):
    return os.path.join(build_dir(), f"trace-{workload}-{seed}.json")


def run_all(spec, args):
    """Run every workload traced; return non-zero if any run failed."""
    binary = build("hmbench")
    worst = 0
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"== {workload}", flush=True)
        code, lines, _ = run_binary(
            [binary, "--workload", workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", "1",
             "--trace-out", trace_path(workload, args.seed)],
            time.monotonic() + RUN_TIMEOUT_S)
        for line in lines:
            print(line)
        print(f"exit code {code}", flush=True)
        worst = worst or code
    return worst


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload traced, print all metrics")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.self_test:
        tests = build("hmbench_tests")
        sys.exit(subprocess.run([tests]).returncode)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.all:
        sys.exit(run_all(spec, args))
    if not args.workload:
        parser.error("--workload is required")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build("hmbench")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    base = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]

    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            code, _, result = run_binary(base + ["--setup-only"], deadline)
            if code != 0:
                fail(f"set-up run exited {code}")
            setups.append(result["metrics"]["setup_s"]["value"])
    command = base
    if args.trace:
        command = base + ["--trace-out", trace_path(args.workload, args.seed)]
    code, lines, result = run_binary(command, deadline)
    for line in lines:
        print(line)

    metrics = result["metrics"]
    if "setup_s" in metrics:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
        metrics["setup_s"]["samples"] = len(setups)
        print("setup_s over %d set-ups: %s" %
              (len(setups), ", ".join("%.4f" % s for s in setups)))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        fail("benchmark did not report " + ", ".join(missing))
    for m in wanted:
        if metrics[m["name"]]["unit"] != m["unit"]:
            fail(f"{m['name']} is in {metrics[m['name']]['unit']}, "
                 f"BENCHMARK.json says {m['unit']}")
    out = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": metrics[m["name"]]["unit"]}
                    for m in wanted},
    }
    print(json.dumps(out), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
