#!/usr/bin/env python3
"""Tests of the benchmark itself, on a tiny graph (3,000 authors, 2 s runs).

    python3 perfbench/test_bench.py

Each workload runs through the one command, perfbench/run.py, which builds
the benchmark first if needed.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace=0, corrupt=False):
    """Runs one tiny workload; returns (exit code, report, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed), "--seconds", "2",
               "--trace", str(trace), "--authors", "3000"]
    if corrupt:
        command.append("--corrupt")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=1200)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        raise AssertionError("no output; stderr:\n" + done.stderr[-2000:])
    return done.returncode, json.loads(lines[-2])["report"], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    code, report, result = run(workload, 1, trace)
                    self.assertEqual(code, 0, report["errors"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, unit in expected.items():
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit, name)
                        self.assertIsInstance(metric["value"], (int, float))
                    self.assertGreater(report["samples"]["search"], 0)
                    checked = report["samples"]["checked_by_class"]
                    for algo in report["traffic"]["algo_share"]:
                        self.assertGreater(checked.get(algo, 0), 0, algo)

    def test_a_corrupted_answer_counts_as_a_failure(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, report, result = run(workload, 1, corrupt=True)
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertTrue(any("checker" in e for e in report["errors"]))

    def test_the_seed_changes_the_stream_but_not_the_metric_names(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first, first_result = run(workload, 1)
                _, again, _ = run(workload, 1)
                _, other, other_result = run(workload, 2)
                self.assertEqual(first["request_digest"],
                                 again["request_digest"])
                self.assertNotEqual(first["request_digest"],
                                    other["request_digest"])
                self.assertEqual(set(first_result["metrics"]),
                                 set(other_result["metrics"]))


if __name__ == "__main__":
    unittest.main()
