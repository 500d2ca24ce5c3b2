#!/usr/bin/env python3
"""Builds and runs the DSSDDI serving benchmark.

One run (what BENCHMARK.json's command names):

    python3 servebench/run.py --workload explain_json --seed 1 --seconds 25 --trace 0

builds the `servebench` binary from this checkout's sources into
.bench_build/servebench/build (the first time, or when a source changed),
then runs it. Its last stdout line is the JSON result.

Repeat mode runs one workload N times on consecutive seeds and prints, per
metric, the median, the quartiles and whether the quartile spread (as a share
of the median) fits the metric's bound in BENCHMARK.json:

    python3 servebench/run.py --repeat 10 --workload explain_json [--first-seed 1]
        [--seconds 25] [--trace 0]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "servebench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "servebench")
BUILD_DIR = os.path.join(WORK_DIR, "build")
BINARY = os.path.join(BUILD_DIR, "servebench")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "servebench",
                   "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("servebench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run_once(workload, seed, seconds, trace, capture):
    """Runs the binary once; returns (exit code, last stdout line or None)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", WORK_DIR]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, None
    if not capture:
        return done.returncode, None
    lines = done.stdout.decode().strip().splitlines()
    return done.returncode, lines[-1] if lines else None


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for m in spec["per_layer"]:
        bounds.setdefault(m["name"], None)
    return spec, bounds


def repeat(args):
    spec, bounds = load_bounds()
    seconds = args.seconds or spec["run_seconds"]
    results = []
    for i in range(args.repeat):
        seed = args.first_seed + i
        code, line = run_once(args.workload, seed, seconds, args.trace, True)
        if code != 0 or line is None:
            print("servebench: seed %d failed (exit %d)" % (seed, code),
                  file=sys.stderr)
            return 1
        result = json.loads(line)
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.6g" % (k, v["value"])
                     for k, v in result["metrics"].items())), flush=True)
    print("\n%-26s %12s %12s %12s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "fits"))
    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = bounds.get(name)
        fits = "-" if bound is None else ("yes" if spread <= bound else "NO")
        print("%-26s %12.6g %12.6g %12.6g %8.4f %6s %s" % (
            name, median, q1, q3, spread,
            "-" if bound is None else "%.2f" % bound, fits))
    failed_shares = {r["failed"] / r["attempted"] for r in results}
    print("\ncorrect with no failed request in every run: %s; "
          "failed share per run: %s" % (
        ok, sorted(failed_shares)))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if not build():
        return 1
    if args.repeat > 0:
        return repeat(args)
    if args.seed is None or args.seconds is None:
        parser.error("--seed and --seconds are required for one run")
    seconds = args.seconds
    seconds_text = str(int(seconds)) if seconds == int(seconds) else str(seconds)
    code, _ = run_once(args.workload, args.seed, seconds_text, args.trace, False)
    return code


if __name__ == "__main__":
    sys.exit(main())
