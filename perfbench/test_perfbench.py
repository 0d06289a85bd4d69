#!/usr/bin/env python3
"""Determinism self-check of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The same seed must give identical inputs, identical answers, identical
quality metrics and identical per-layer counts; a different seed must give
different inputs. Builds the worker like run.py does (about a minute on a
cold checkout), then runs small instances of the four workloads. The
certify_suite instance certifies four kernels, not all 18 (a full
pass takes about 12 s), at the benchmark's solver thread count.
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SMALL = {
    "curve_build": [],
    "select_mix": ["--ops", 16, "--seconds", 0],
    "serve_mixed": ["--ops", 12, "--seconds", 0],
    "certify_suite": ["--kernels", "edn,lms,crc32,sha"],
}


def worker(workload, seed, trace=False):
    args = list(SMALL[workload]) + (["--trace", 1] if trace else [])
    _, res, rc = run.run_worker(workload, seed, args)
    return res, rc


def counts(res):
    return {k: v for k, v in res["layers"].items()
            if run.PER_LAYER.get(k) == "count"}


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_workload(self, workload):
        a, rc_a = worker(workload, 7)
        b, rc_b = worker(workload, 7)
        c, _ = worker(workload, 8)
        self.assertEqual((rc_a, rc_b), (0, 0), a["errors"] + b["errors"])
        self.assertEqual(a["inputs"], b["inputs"])
        self.assertEqual(a["outputs"], b["outputs"])
        self.assertEqual(a["quality"], b["quality"])
        self.assertEqual(a["answers"], b["answers"])
        self.assertNotEqual(a["inputs"], c["inputs"])

        ta, _ = worker(workload, 7, trace=True)
        tb, _ = worker(workload, 7, trace=True)
        self.assertEqual(ta["counters"], tb["counters"])
        self.assertEqual(counts(ta), counts(tb))
        self.assertGreater(sum(counts(ta).values()), 0)

    def test_curve_build(self):
        self.check_workload("curve_build")

    def test_select_mix(self):
        self.check_workload("select_mix")

    def test_serve_mixed(self):
        self.check_workload("serve_mixed")

    def test_certify_suite(self):
        self.check_workload("certify_suite")


class Reporting(unittest.TestCase):
    def test_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile(list(range(19)), 0.5))
        self.assertEqual(run.percentile(list(range(21)), 0.5), 10)
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertIsNotNone(run.percentile(list(range(100)), 0.9))
        self.assertIsNone(run.percentile(list(range(999)), 0.99))

    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        if not os.path.isfile(path):
            self.skipTest("no BENCHMARK.json")
        with open(path) as f:
            bench = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in bench["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
