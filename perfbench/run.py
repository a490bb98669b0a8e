#!/usr/bin/env python3
"""Builds the benchmark and runs one workload of it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run builds the library and the two benchmark binaries from
source into .bench_build/perfbench (CMake, Release). --trace 0 runs the
untraced binary and reports the end-to-end metrics; --trace 1 runs the
untraced and then the traced binary for half the time each and reports the
per-layer metrics, plus the tracing overhead between the two. Every metric
name is checked against BENCHMARK.json. The last line of standard output is
the result as one JSON object; the exit status is 0 only when every output
check of the run passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Budget for the binaries of one run, counted from the end of the build; a
# run must finish within 180 s (900 s when it builds).
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds both binaries; cmake output -> stderr."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the library sources (CMakeLists.txt, src/) are not in " + ROOT)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(
            [
                "cmake",
                "-S",
                os.path.join(ROOT, "perfbench"),
                "-B",
                BUILD_DIR,
                "-DCMAKE_BUILD_TYPE=Release",
            ]
        )
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(
        ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench", "perfbench_traced"]
    )
    for step in steps:
        try:
            done = subprocess.run(
                step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def run_binary(name, workload, seed, seconds, deadline):
    """Runs one binary; echoes its report and returns its result object."""
    command = [
        os.path.join(BUILD_DIR, name),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        repr(seconds),
    ]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=sys.stderr,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("%s did not finish: %s" % (name, error))
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s exited %d without a result" % (name, done.returncode))
    result["exit"] = done.returncode
    return result


def pick(measured, listed, what):
    """The measured metrics named in BENCHMARK.json, exactly those."""
    names = [m["name"] for m in listed]
    missing = [n for n in names if n not in measured]
    extra = [n for n in measured if n not in names]
    if missing or extra:
        fail("%s metrics disagree with BENCHMARK.json: missing %s, unlisted %s" % (what, missing, extra))
    metrics = {}
    for m in listed:
        got = measured[m["name"]]
        if got["unit"] != m["unit"]:
            fail("%s has unit %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    build()
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace == 0:
        runs = [run_binary("perfbench", args.workload, args.seed, args.seconds, deadline)]
        metrics = pick(runs[0]["end_to_end"], spec["end_to_end"], "end-to-end")
    else:
        half = args.seconds / 2.0
        runs = [
            run_binary("perfbench", args.workload, args.seed, half, deadline),
            run_binary("perfbench_traced", args.workload, args.seed, half, deadline),
        ]
        layer = dict(runs[1]["per_layer"])
        # Tracing overhead: the traced run's median operation latency over
        # the untraced run's, same seed, same length.
        untraced = runs[0]["end_to_end"].get("op_p50_ms", {}).get("value", 0.0)
        traced = runs[1]["end_to_end"].get("op_p50_ms", {}).get("value", 0.0)
        layer["trace.overhead_frac"] = {
            "value": traced / untraced - 1.0 if untraced > 0 else 0.0,
            "unit": "ratio",
        }
        print("%-32s %16.6f ratio" % ("trace.overhead_frac", layer["trace.overhead_frac"]["value"]))
        metrics = pick(layer, spec["per_layer"], "per-layer")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    correct = failed == 0 and all(r["exit"] == 0 for r in runs)
    print("failed_frac = %d / %d = %.6f" % (failed, attempted, failed / max(1, attempted)))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
