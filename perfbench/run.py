#!/usr/bin/env python3
"""Build and run the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload conus_patch --seed 1 --seconds 30 --trace 0

Builds perfbench/ (which compiles the model from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs the
benchmark's arithmetic self-tests, then one benchmark run.  Build output
goes to stderr; stdout carries the run's report, and its last line is the
result JSON.  The result's metric names and units are checked against
BENCHMARK.json before anything is printed.  Any failure exits non-zero
without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last line is not JSON: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: got {sorted(got.items())}, "
             f"want {sorted(want.items())}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["conus_patch", "decomp_2x2", "service_mix"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=38)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    build(build_dir)

    selftest = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr, timeout=60)
    if selftest.returncode != 0:
        fail("self-tests failed")

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"benchmark exited with {run.returncode}")
    lines = run.stdout.rstrip("\n").split("\n")
    check_result(lines[-1], args.trace)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
