#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark, then checks that a seed fixes the inputs and the
traced counts, that a wrong expectation is caught as a failed op, and
that the percentile code gives known answers. Runs use a fraction of a
second of budget each, so they are small.
"""

import sys

sys.dont_write_bytecode = True

import json
import os
import subprocess
import unittest

import run

SMALL = "0.5"  # seconds of budget: 12 pages, 37 clicks, 12 sessions


def exe(*args):
    r = subprocess.run(
        [run.EXE, *args], cwd=run.ROOT, capture_output=True, text=True, timeout=120
    )
    if r.returncode != 0:
        raise AssertionError(f"xqib_perf.exe {' '.join(args)} failed:\n{r.stderr}")
    return r.stdout.splitlines()


def result(workload, seed, *extra):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", SMALL, *extra]
    return json.loads(exe(*args)[-1])


class BenchmarkTests(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        # every per-layer metric that is a count or a ratio of counts
        cls.counted = [
            m["name"]
            for m in run.spec()["per_layer"]
            if m["unit"] in ("count", "ratio", "words", "virtual_s")
            and m["name"] != "trace.overhead"
        ]

    def test_same_seed_same_inputs(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                digest = lambda seed: exe("--workload", w, "--seed", str(seed), "--inputs")[-1]
                self.assertEqual(digest(7), digest(7))
                self.assertNotEqual(digest(7), digest(8))

    def test_same_seed_same_counts(self):
        os.makedirs(run.OUT, exist_ok=True)
        trace = os.path.join(run.OUT, "test-trace.json")
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = result(w, 7, "--trace", trace)
                b = result(w, 7, "--trace", trace)
                self.assertEqual(a["failed"], 0, a["failures"])
                for name in self.counted:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)
        os.remove(trace)

    def test_wrong_expectation_fails_ops(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                self.assertEqual(result(w, 7)["failed"], 0)
                bad = result(w, 7, "--wrong-expectation")
                self.assertGreater(bad["failed"] / bad["attempted"], 0)

    def test_percentiles(self):
        # 1..200 in a scrambled order
        a = sorted((i * 77 % 200) + 1 for i in range(200))
        self.assertEqual(run.percentile(a, 0.50), (100, 100))
        self.assertEqual(run.percentile(a, 0.95), (190, 10))
        self.assertEqual(run.percentile(a[:100], 0.95), (None, 5))
        self.assertEqual(run.percentile(list(range(20)), 0.50), (9, 10))
        self.assertEqual(run.percentile(list(range(19)), 0.50), (None, 9))
        self.assertEqual(run.percentile([], 0.50), (None, 0))

    def test_shortest_time_per_op(self):
        reps = [{"op_ms": [3.0, 1.0, 2.0]}, {"op_ms": [2.5, 4.0, 2.0]}]
        self.assertEqual(run.shortest(r["op_ms"] for r in reps), [2.5, 1.0, 2.0])


if __name__ == "__main__":
    unittest.main()
