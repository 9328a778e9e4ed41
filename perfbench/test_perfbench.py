#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Runs every workload at smoke size through perfbench/run.py (building first if
needed) and checks the result line against BENCHMARK.json; then corrupts one
expected verdict or halt code and checks that the failure is counted.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError(f"{cmd} exited {p.returncode}:\n{p.stderr}")
    return json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        got = result["metrics"]
        self.assertEqual(sorted(got), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_every_workload_prints_every_metric_with_its_unit(self):
        nonzero = set()
        for w in BENCH["workloads"]:
            name = w["name"]
            with self.subTest(workload=name):
                plain = run(name, 0)
                self.assertTrue(plain["correct"])
                self.assertEqual(plain["failed"], 0)
                self.assertGreaterEqual(plain["attempted"], 1)
                self.check_metrics(plain, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(plain["metrics"][m["name"]]["value"], 0)
                traced = run(name, 1)
                self.assertTrue(traced["correct"])
                self.check_metrics(traced, BENCH["per_layer"])
                # Layer spans, not bookkeeping spans, must account for the
                # traced pass.
                self.assertGreaterEqual(
                    traced["metrics"]["trace.span_coverage"]["value"], 0.95)
                nonzero |= {k for k, v in traced["metrics"].items()
                            if v["value"] != 0}
        # Every per-layer metric is measured by at least one workload
        # (trace.overhead_s is a difference of two timings and may be 0).
        declared = {m["name"] for m in BENCH["per_layer"]}
        self.assertEqual(declared - nonzero - {"trace.overhead_s"}, set())


class Negative(unittest.TestCase):
    """A wrong expectation must be counted as a failed unit."""

    def assert_counted(self, workload, check):
        r = run(workload, 0, "--break-check", check)
        self.assertFalse(r["correct"])
        self.assertGreaterEqual(r["failed"], 1)
        self.assertGreater(r["failed"] / r["attempted"], 0)

    def test_wrong_verdict(self):
        self.assert_counted("attack_sweep", "verdict")

    def test_wrong_halt_code(self):
        for w in ("attack_sweep", "observed_fleet"):
            with self.subTest(workload=w):
                self.assert_counted(w, "halt")


if __name__ == "__main__":
    unittest.main()
