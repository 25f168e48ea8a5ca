#!/usr/bin/env python3
"""Tests of the benchmark's own helpers.

    python3 perfbench/test_benchlib.py

Covers the percentile pick and its sample count, span self-time
arithmetic, the quartile spread, fingerprint comparison and generator
determinism (one seed gives one plan hash and one churn sequence). The
determinism tests build perfbench_driver first if it is not built yet.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_of_1000_leaves_ten_beyond(self):
        values = list(range(1000, 0, -1))  # unsorted input
        value, n, beyond = benchlib.percentile(values, 99)
        self.assertEqual((value, n, beyond), (990, 1000, 10))

    def test_median_rank_rounds_up(self):
        self.assertEqual(benchlib.percentile([5, 1, 3, 2, 4], 50), (3, 5, 2))
        self.assertEqual(benchlib.percentile([1, 2, 3, 4], 50), (2, 4, 2))

    def test_extremes(self):
        self.assertEqual(benchlib.percentile([7], 99), (7, 1, 0))
        self.assertEqual(benchlib.percentile([3, 9, 1], 100), (9, 3, 0))
        self.assertEqual(benchlib.percentile([3, 9, 1], 0.1), (1, 3, 2))

    def test_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)
        with self.assertRaises(ValueError):
            benchlib.percentile([1], 0)


def span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start_ns": start,
            "end_ns": end}


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(0, -1, "run", 0, 100_000_000),
                 span(1, 0, "build", 10_000_000, 30_000_000),
                 span(2, 0, "drive", 40_000_000, 90_000_000),
                 span(3, 2, "report", 80_000_000, 90_000_000)]
        s = benchlib.self_times(spans)
        self.assertAlmostEqual(s["run"], 0.030)
        self.assertAlmostEqual(s["build"], 0.020)
        self.assertAlmostEqual(s["drive"], 0.040)
        self.assertAlmostEqual(s["report"], 0.010)
        # Self times partition the root's duration.
        self.assertAlmostEqual(sum(s.values()), 0.100)

    def test_same_name_sums_and_overlap_counts_once(self):
        spans = [span(0, -1, "churn", 0, 1000),
                 span(1, 0, "cost", 100, 300),
                 span(2, 0, "cost", 250, 400),   # overlaps its sibling
                 span(3, 0, "fail", 900, 1200)]  # clipped to the parent
        s = benchlib.self_times(spans)
        self.assertAlmostEqual(s["churn"], (1000 - 300 - 100) * 1e-9)
        self.assertAlmostEqual(s["cost"], (200 + 150) * 1e-9)
        self.assertAlmostEqual(s["fail"], 300 * 1e-9)


class SpreadTest(unittest.TestCase):
    def test_quartile_spread(self):
        vals = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
        q1, q2, q3 = __import__("statistics").quantiles(vals, n=4)
        self.assertAlmostEqual(benchlib.quartile_spread(vals), (q3 - q1) / q2)
        self.assertEqual(benchlib.quartile_spread([5.0] * 10), 0.0)

    def test_fingerprint_mismatch(self):
        a = {"cpu": "x", "nproc": 4, "governor": None, "compiler": "g",
             "build_type": "RelWithDebInfo", "source_digest": "1"}
        b = dict(a, nproc=8, source_digest="2")
        self.assertEqual(benchlib.fingerprint_mismatch(a, a), [])
        self.assertEqual(benchlib.fingerprint_mismatch(a, b), ["nproc"])


class GeneratorDeterminismTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        cls.exe = run.build(os.path.join(run.ROOT, target, "perfbench"))
        if cls.exe is None:
            raise RuntimeError("perfbench_driver did not build")

    def gen(self, workload, seed):
        out = subprocess.run(
            [self.exe, "gen", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, check=True, timeout=60).stdout
        return json.loads(out)

    def test_one_seed_one_plan_and_churn_sequence(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = self.gen(workload, 1)
                self.assertEqual(a, self.gen(workload, 1))
                b = self.gen(workload, 2)
                self.assertNotEqual(a["plan_hash"], b["plan_hash"])
                self.assertNotEqual(a["churn_hash"], b["churn_hash"])
                self.assertGreaterEqual(a["events"], 1000)


if __name__ == "__main__":
    unittest.main()
