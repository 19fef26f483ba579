#!/usr/bin/env python3
"""The benchmark's own tests: a tiny configuration of every workload.

Run from the repository root (builds perfbench on first use):

    python3 perfbench/test_perfbench.py

Checks that each workload prints every metric BENCHMARK.json names, with
its unit, in both the untraced and the traced run; that the traced run's
CPU ledger adds up; that the trace digest follows the seed; and that the
correctness gate fails a run whose event books do not balance.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("net_hot", "wide_keys", "dashboard")
LEDGER_TERMS = (
    "net.client_cpu_ns_per_event",
    "net.server_cpu_ns_per_event",
    "pipeline.producer_cpu_ns_per_event",
    "store.apply_ns_per_event",
    "pipeline.worker_other_ns_per_event",
    "store.read_cpu_ns_per_event",
    "unattributed_ns_per_event",
)


def run(workload, trace=0, seed=3, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
           "--tiny"] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result, lines


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def check_result(self, result, expected):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), set(expected))
        for name, unit in expected.items():
            self.assertEqual(metrics[name]["unit"], unit, name)
            self.assertTrue(math.isfinite(metrics[name]["value"]), name)

    def test_every_metric_with_its_unit(self):
        s = spec()
        e2e = {m["name"]: m["unit"] for m in s["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in s["per_layer"]}
        self.assertEqual({w["name"] for w in s["workloads"]}, set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, expected in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    proc, result, _ = run(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                    self.check_result(result, expected)
                    if trace == 0:
                        for name in e2e:
                            self.assertGreater(result["metrics"][name]["value"], 0, name)
                    else:
                        m = {k: v["value"] for k, v in result["metrics"].items()}
                        total = sum(m[t] for t in LEDGER_TERMS)
                        self.assertAlmostEqual(total, m["traced.cpu_ns_per_event"],
                                               delta=1e-6 * m["traced.cpu_ns_per_event"])
                        self.assertEqual(m["net.decode_errors"], 0)

    def test_digest_follows_seed(self):
        def digest(seed):
            _, _, lines = run("net_hot", seed=seed)
            return [l for l in lines if "trace_digest=" in l][0].split()[1]
        self.assertEqual(digest(5), digest(5))
        self.assertNotEqual(digest(5), digest(6))

    def test_unbalanced_books_fail_the_run(self):
        for workload in ("net_hot", "dashboard"):
            with self.subTest(workload=workload):
                proc, result, _ = run(workload, extra=["--break-books"])
                self.assertNotEqual(proc.returncode, 0)
                self.assertIsNotNone(result)
                self.assertFalse(result["correct"])
                self.assertIn("books", proc.stderr)


if __name__ == "__main__":
    unittest.main()
