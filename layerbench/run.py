#!/usr/bin/env python3
"""Builds and runs the layer-attributed benchmark (see README.md).

Usage, from the root of a checkout:

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds layerbench/ (which compiles the library from src/) into the
directory named by $CARGO_TARGET_DIR, default .bench_build, runs one
workload, checks its result against BENCHMARK.json and prints it as the
last line of stdout: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones; a layer the workload does not run reports 0. Exits
non-zero, without a result, when the build or the run fails.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"layerbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "layerbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(root, build_dir)

    cmd = [os.path.join(build_dir, "layerbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--repo-root", root, "--out-dir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not a result: {lines[-1]!r}")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    known = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    got = result["metrics"]
    for name, m in got.items():
        if name not in known or m["unit"] != known[name]:
            fail(f"metric {name} ({m['unit']}) is not declared in BENCHMARK.json")
    metrics = {}
    for m in wanted:
        if m["name"] in got:
            value = got[m["name"]]["value"]
        elif args.trace:
            value = 0  # the workload does not run this layer
        else:
            fail(f"end-to-end metric {m['name']} missing")
        if value is None or not math.isfinite(value) or (not args.trace and value <= 0):
            fail(f"metric {m['name']} has the invalid value {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
