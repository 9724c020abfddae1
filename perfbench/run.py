#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the library and the benchmark program
from source into .bench_build/ (the first run takes a minute or so), runs
the program's arithmetic self-test, then runs the workload in its own
process. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Build output goes to stderr. Exits non-zero, printing no result,
when the build or the run fails.

--workload all runs every workload, each in its own process, and ends with
one object whose metric names are prefixed by the workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["train_narrow_offload", "train_wide_adaptive", "serve_bursty"]
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
RUN_TIMEOUT_S = 170


def build():
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "perfbench_selftest", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, trace, selftest_ok):
    """Runs one workload in its own process; returns its result object."""
    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--commit", commit()],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: perfbench exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    # The arithmetic self-test is one more output check of every run.
    result["attempted"] += 1
    if not selftest_ok:
        result["failed"] += 1
        result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for validating "
                             f"a claimed gain)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        build()
        selftest = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                                  stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=60)
        selftest_ok = selftest.returncode == 0
        names = WORKLOADS if args.workload == "all" else [args.workload]
        results = {w: run_workload(w, args.seed, args.seconds, args.trace,
                                   selftest_ok)
                   for w in names}
    except (OSError, subprocess.SubprocessError, RuntimeError,
            ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    if len(results) == 1:
        print(json.dumps(next(iter(results.values()))))
        return 0
    combined = {"correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {}}
    for w, r in results.items():
        print(f"{w} {json.dumps(r)}")
        for name, m in r["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
