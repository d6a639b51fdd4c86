#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload <soak|storm|evict> --seed <n> \
        --seconds <s> --trace <0|1>

Builds the driver (perfbench/CMakeLists.txt, which compiles the simulator
from src/) into .bench_build/perfbench, runs one workload, passes the
driver's metric lines through, and prints as the last line the JSON object
with the metrics BENCHMARK.json declares: the end-to-end set with
--trace 0, the per-layer set with --trace 1. The driver's own JSON line
carries every metric it measured; BENCHMARK.json is the only list of which
of them are declared. Exits nonzero, without a JSON line, when the build
or the driver fails or a declared metric was not measured, and with the
driver's nonzero code after the JSON line when an output check failed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once and builds the driver; quiet unless it fails."""
    os.makedirs(BUILD, exist_ok=True)
    # One build at a time per checkout, even when runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=subprocess.PIPE,
                                   stderr=subprocess.STDOUT, text=True,
                                   timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(cmd))
            if r.returncode != 0:
                sys.stderr.write(r.stdout)
                fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()
    names = declared(args.trace == "1")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace]
    if args.trace == "1":
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%s.json" % (args.workload, args.seed))]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(r.stdout)
        fail("driver exited %d without a result" % r.returncode)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        sys.stdout.write(r.stdout)
        fail("declared metrics not measured: " + ", ".join(missing))
    result["metrics"] = {n: result["metrics"][n] for n in names}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    sys.exit(r.returncode)


if __name__ == "__main__":
    main()
