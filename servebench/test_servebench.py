#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of the repository:

    python3 servebench/test_servebench.py

Each test drives servebench/run.py (which builds on first use): a short
smoke run of every workload, the checker rejecting deliberately corrupted
answers (--inject-fault), and every metric named in BENCHMARK.json appearing
in the output.
"""

import json
import os
import re
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("point_inproc", "sweep_wire", "fleet_swap")


def run(workload, trace=0, seconds=1, *extra):
    cmd = [sys.executable, os.path.join("servebench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", str(seconds),
           "--trace", str(trace), "--setup-reps", "1"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, proc.stdout, result


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class SmokeTest(unittest.TestCase):
    def test_each_workload_runs_clean(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, out, result = run(workload)
                self.assertEqual(code, 0, out)
                self.assertIsNotNone(result, out)
                self.assertTrue(result["correct"], out)
                self.assertEqual(result["failed"], 0, out)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertIn("bit_mismatches=0", out)
                self.assertIn("nonmonotone=0", out)


class CheckerTest(unittest.TestCase):
    def checker_count(self, out, field):
        return int(re.search(field + r"=(\d+)", out).group(1))

    def test_corrupted_points_fail_bit_identity(self):
        code, out, result = run("point_inproc", 0, 1, "--inject-fault")
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(self.checker_count(out, "bit_mismatches"), 0, out)

    def test_corrupted_sweeps_fail_monotonicity(self):
        code, out, result = run("sweep_wire", 0, 1, "--inject-fault")
        self.assertNotEqual(code, 0, out)
        self.assertFalse(result["correct"])
        self.assertGreater(self.checker_count(out, "nonmonotone"), 0, out)


class MetricNamesTest(unittest.TestCase):
    def check(self, result, declared):
        self.assertIsNotNone(result)
        got = result["metrics"]
        self.assertEqual(set(got), {m["name"] for m in declared})
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_end_to_end_names(self):
        code, out, result = run("fleet_swap", 0, 2)
        self.assertEqual(code, 0, out)
        self.check(result, benchmark_json()["end_to_end"])

    def test_per_layer_names(self):
        code, out, result = run("sweep_wire", 1, 2)
        self.assertEqual(code, 0, out)
        self.check(result, benchmark_json()["per_layer"])
        for m in benchmark_json()["per_layer"]:
            self.assertIn(m["name"], out)

    def test_workloads_are_declared(self):
        names = [w["name"] for w in benchmark_json()["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))


if __name__ == "__main__":
    unittest.main(verbosity=2)
