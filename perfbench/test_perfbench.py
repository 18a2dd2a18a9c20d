#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny size.

Runs every workload untraced and traced with --tiny and checks that
each metric BENCHMARK.json names is emitted, finite and in its unit,
that every operation succeeded, and that the traced run wrote a trace
file whose self times account for the traced end-to-end time.

Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ["audit-xl", "fleet-batch", "serve-edit"]


def run(workload, trace):
    result = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        stdout=subprocess.PIPE, text=True, timeout=900)
    assert result.returncode == 0, "run.py exited with %d" % result.returncode
    return result.stdout.splitlines()


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open("BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check_line(self, workload, lines, section):
        line = json.loads(lines[-1])
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"], workload)
        self.assertEqual(line["failed"], 0, workload)
        self.assertGreaterEqual(line["attempted"], 1, workload)
        wanted = {m["name"]: m["unit"] for m in self.spec[section]}
        self.assertEqual(set(line["metrics"]), set(wanted), workload)
        for name, metric in line["metrics"].items():
            with self.subTest(workload=workload, metric=name):
                self.assertIsInstance(metric["value"], (int, float))
                self.assertTrue(math.isfinite(metric["value"]))
                self.assertEqual(metric["unit"], wanted[name])
                self.assertTrue(metric["unit"])

    def test_untraced_metrics(self):
        for workload in WORKLOADS:
            self.check_line(workload, run(workload, 0), "end_to_end")

    def test_traced_metrics_and_trace_file(self):
        for workload in WORKLOADS:
            lines = run(workload, 1)
            self.check_line(workload, lines, "per_layer")
            accounted = [l for l in lines if l.startswith("traced end-to-end")]
            self.assertEqual(len(accounted), 1, workload)
            words = accounted[0].replace(",", "").split()
            self.assertAlmostEqual(float(words[2]), float(words[8]), places=3)
            written = [l for l in lines if l.startswith("trace: ")]
            self.assertEqual(len(written), 1, workload)
            path = written[0].split(" written to ")[1]
            with open(path) as f:
                events = json.load(f)["traceEvents"]
            names = {e["name"] for e in events}
            for layer in ["mir.parse", "analysis.substrate", "core.infer",
                          "lint.run", "taint.run", "clients.render"]:
                self.assertIn(layer, names, workload)
            if workload == "serve-edit":
                self.assertIn("serve.snapshot_load", names)
            self.assertTrue(any(l.startswith("tracing overhead:")
                                for l in lines), workload)


if __name__ == "__main__":
    unittest.main()
