#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size, untraced
and traced.

    python3 perfbench/test_smoke.py

Each run must exit 0, pass its ground-truth checks, and print a result
line whose metric names and units are exactly the ones BENCHMARK.json
declares (end-to-end untraced, per-layer traced) — so a change that
renames or drops a metric fails here first.  The first run builds.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
COUNT_UNITS = ("count", "B")


def run_bench(*args):
    return subprocess.run([sys.executable, RUN, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)
        cls.workloads = [w["name"] for w in cls.bench["workloads"]]

    def run_workload(self, workload, trace):
        proc = run_bench("--workload", workload, "--seed", "7", "--seconds",
                         "2", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0,
                         proc.stdout[-3000:] + proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result, proc.stdout

    def assert_declared(self, result, declared):
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {n: v["unit"] for n, v in result["metrics"].items()})

    def test_untraced_reports_every_end_to_end_metric(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, _ = self.run_workload(workload, 0)
                self.assert_declared(result, self.bench["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_reports_every_per_layer_metric_and_replays(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                result, stdout = self.run_workload(workload, 1)
                self.assert_declared(result, self.bench["per_layer"])
                self.assertIn("replay check: region table equals", stdout)
                # Counts of a layer's work read 0 where the workload does no
                # such work; every other figure is a measurement and > 0.
                for name, metric in result["metrics"].items():
                    if metric["unit"] in COUNT_UNITS:
                        self.assertGreaterEqual(metric["value"], 0, name)
                    else:
                        self.assertGreater(metric["value"], 0, name)

    def test_unknown_workload_is_refused(self):
        proc = run_bench("--workload", "nonesuch", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)


if __name__ == "__main__":
    unittest.main()
