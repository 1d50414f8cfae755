#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 chirpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds chirpbench (Release) into
.bench_build/, runs one workload, checks that the result names every
metric BENCHMARK.json lists for the mode with its unit, and prints the
JSON result as the last line of stdout.  Exits non-zero, printing no
result, when the build, the run or that check fails.  See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "chirpbench")
BINARY = os.path.join(BUILD_DIR, "chirpbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("chirpbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def check_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has the wrong keys")
    metrics = result["metrics"]
    for metric in expected_metrics(trace):
        got = metrics.get(metric["name"])
        if got is None:
            fail("metric %s missing" % metric["name"])
        if got.get("unit") != metric["unit"]:
            fail("metric %s has unit %r, expected %r"
                 % (metric["name"], got.get("unit"), metric["unit"]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small suite, for the benchmark's own tests")
    parser.add_argument("--perturb-digest", action="store_true",
                        help="corrupt one job's digest (self-test)")
    args = parser.parse_args()

    build()
    work = os.path.join(BUILD_ROOT, "work-%d" % os.getpid())
    spans_dir = os.path.join(BUILD_ROOT, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--golden", os.path.join(HERE, "golden.txt"),
           "--spans", os.path.join(spans_dir, "%s-seed%d.json"
                                   % (args.workload, args.seed))]
    if args.tiny:
        cmd.append("--tiny")
    if args.perturb_digest:
        cmd.append("--perturb-digest")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("run failed with exit code %d" % done.returncode)
    check_result(lines[-1], args.trace)
    for line in lines:
        print(line)


if __name__ == "__main__":
    main()
