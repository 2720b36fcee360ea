#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload hashmap-burst --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds
the benchmark package (perfbench/CMakeLists.txt: the simulator library
plus the perfbench program, Release) under .bench_build/perfbench;
later runs only rebuild what changed. Build output goes to stderr, so
the last line of stdout is the program's JSON result. Before passing
the result on, the metric names and units it carries are checked
against BENCHMARK.json, so the program and the declared contract cannot
drift apart.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "dolos", "system.hh")):
        fail(f"no simulator sources under {ROOT}/src")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def check_against_contract(result, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    declared = contract["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    if want != got:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"undeclared {extra}, unit mismatch {units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode:
        sys.stderr.write(proc.stdout)
        fail(f"perfbench exited with {proc.returncode}")
    lines = proc.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("perfbench printed nothing")
    check_against_contract(json.loads(lines[-1]), args.trace)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
