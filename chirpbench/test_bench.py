#!/usr/bin/env python3
"""The benchmark's own tests.  Run from the repository root:

    python3 chirpbench/test_bench.py

Uses the tiny suite (--tiny), so the whole file takes well under a
minute once chirpbench is built.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def bench(workload, trace, *extra, seed=42, env=None):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.2", "--trace", str(trace), "--tiny", *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          timeout=600, check=False)


def result_of(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_every_metric_printed_with_unit(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    done = bench(workload, trace)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    for metric in self.spec[key]:
                        got = result["metrics"].get(metric["name"])
                        self.assertIsNotNone(got, metric["name"])
                        self.assertEqual(got["unit"], metric["unit"],
                                         metric["name"])
                        self.assertIsInstance(got["value"], (int, float))

    def test_perturbed_digest_is_a_failed_operation(self):
        # Seed 42 is checked against golden digests; seed 7 has none,
        # so only the plain Simulator::run cross-check can catch it.
        for seed in (42, 7):
            for trace in (0, 1):
                with self.subTest(seed=seed, trace=trace):
                    done = bench("policy_sweep", trace, "--perturb-digest",
                                 seed=seed)
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = result_of(done)
                    self.assertFalse(result["correct"])
                    self.assertGreaterEqual(result["failed"], 1)

    def test_refuses_chirp_toggles(self):
        env = dict(os.environ, CHIRP_FORCE_VIRTUAL="1")
        done = bench("policy_sweep", 0, env=env)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


if __name__ == "__main__":
    unittest.main()
