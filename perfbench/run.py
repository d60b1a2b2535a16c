#!/usr/bin/env python3
"""Builds and runs the C-Explorer end-to-end benchmark.

    python3 perfbench/run.py --workload browse|search_cold|mutate \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ (which compiles
the repository's library through the repository's own CMakeLists.txt) into
.bench_build/, generates the graph in a separate process (once per build),
serves it and drives the seeded workload, and prints the benchmark's
report line followed, last, by its result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 only when every checked answer was correct. Two extra
flags exist for the benchmark's own tests: --authors N shrinks the graph,
--corrupt drops a member from every sampled search answer before it is
checked.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "cexbench")
WORKLOADS = ("browse", "search_cold", "mutate")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cexbench; False when it cannot."""
    if not os.path.exists(os.path.join(ROOT, "src", "server", "server.h")):
        log("perfbench: no C-Explorer sources next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "cexbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as error:
            log("perfbench: build step failed:", error)
            return False
        if done.returncode != 0:
            return False
    return os.path.exists(BINARY)


def prepare(authors):
    """The generated graph and its snapshot, made once per build and size
    (in a separate process); None when generation fails."""
    parent = os.path.join(ROOT, ".bench_build", "inputs")
    name = "authors-%d-%d" % (authors, int(os.path.getmtime(BINARY)))
    inputs = os.path.join(parent, name)
    if os.path.exists(os.path.join(inputs, "snapshot.bin")):
        return inputs
    if os.path.isdir(parent):
        for stale in os.listdir(parent):
            if stale.startswith("authors-%d-" % authors):
                shutil.rmtree(os.path.join(parent, stale), ignore_errors=True)
    partial = "%s.%d" % (inputs, os.getpid())
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    try:
        done = subprocess.run(
            [BINARY, "prepare", "--out", partial, "--authors", str(authors)],
            stdout=sys.stderr, stderr=sys.stderr, timeout=150)
    except subprocess.TimeoutExpired:
        done = None
    if done is None or done.returncode != 0:
        log("perfbench: input generation failed")
        shutil.rmtree(partial, ignore_errors=True)
        return None
    shutil.rmtree(inputs, ignore_errors=True)
    os.rename(partial, inputs)
    return inputs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--authors", type=int, default=100000)
    parser.add_argument("--corrupt", action="store_true")
    args = parser.parse_args()

    if not build():
        return 2
    inputs = prepare(args.authors)
    if inputs is None:
        return 2
    out = os.path.join(ROOT, ".bench_build", "runs",
                       "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    try:
        command = [BINARY, "run", "--workload", args.workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--data", inputs, "--out", out]
        if args.corrupt:
            command.append("--corrupt")
        run = subprocess.run(command, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=args.seconds + 150)
        lines = run.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            valid = set(result) == {"correct", "attempted", "failed",
                                    "metrics"}
        except (IndexError, ValueError):
            valid = False
        if not valid:
            log("perfbench: the run printed no result line")
            return run.returncode or 1
        sys.stdout.write(run.stdout)
        sys.stdout.flush()
        if args.trace:
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            spans = os.path.join(out, "trace.jsonl")
            if os.path.exists(spans):
                shutil.copy(spans, os.path.join(traces,
                                                "%s.jsonl" % args.workload))
        return run.returncode
    except subprocess.TimeoutExpired:
        log("perfbench: timed out")
        return 3
    finally:
        shutil.rmtree(out, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
