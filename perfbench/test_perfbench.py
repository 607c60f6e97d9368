#!/usr/bin/env python3
"""Smoke tests of the benchmark itself.

    python3 perfbench/test_perfbench.py      # from the repository root

Runs every workload once untraced and once traced with a 1-second
budget (one rep each; a few minutes in all, the first build included)
and checks the result line against BENCHMARK.json, the layer metrics
each workload must and must not have, and that the gate fails every
rep of a real run against a tampered reference value.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def fresh_report(workload, trace):
    """Runs the bench; returns its outcome and the report.json it
    wrote (None if it wrote none). An earlier run's report is removed
    first, so a stale one is never read."""
    path = os.path.join(run.OUT_DIR, "%s-seed1-trace%d" % (workload, trace),
                        "report.json")
    if os.path.exists(path):
        os.remove(path)
    outcome = bench(workload, trace)
    if not os.path.exists(path):
        return outcome, None
    with open(path) as f:
        return outcome, json.load(f)


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        # One fresh run per workload and mode, shared by the tests.
        cls.runs = {}
        cls.reports = {}
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                cls.runs[workload, trace], cls.reports[workload, trace] = (
                    fresh_report(workload, trace))

    def test_workloads_match_benchmark_json(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, list(run.WORKLOADS))

    def check_run(self, workload, trace, expected):
        proc, lines, result = self.runs[workload, trace]
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, unit in expected.items():
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            self.assertIsInstance(metric["value"], (int, float), name)
            # ...and the table above the result line names it too.
            self.assertTrue(any(line.split()[:1] == [name]
                                for line in lines[:-1]), name)

    def test_every_metric_printed_with_unit(self):
        end_to_end = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                self.check_run(workload, 0, end_to_end)
            with self.subTest(workload=workload, trace=1):
                self.check_run(workload, 1, per_layer)

    def test_layers_present_where_the_layer_runs(self):
        for workload in run.WORKLOADS:
            self.assertIsNotNone(self.reports[workload, 1], workload)
        mc16, snoop, trace = (self.reports[w, 1]["layers"]
                              for w in run.WORKLOADS)
        for name in ("core.ns_per_predict", "core.sufficient_pct"):
            self.assertIn(name, mc16)
            self.assertIn(name, trace)
            self.assertNotIn(name, snoop)
        for name in ("interconnect.ns_per_send", "sim.shard_speedup"):
            self.assertIn(name, mc16)
            self.assertIn(name, snoop)
            self.assertNotIn(name, trace)
        for name in ("analysis.collect_s", "trace.read_s"):
            self.assertIn(name, trace)
            self.assertNotIn(name, mc16)

    def test_tampered_reference_fails(self):
        for workload, field in (("mc16-oltp", "misses"),
                                ("trace-fig5-apache", "recordChecksum")):
            with self.subTest(workload=workload):
                self.assertIsNotNone(self.reports[workload, 0])
                stat_sets = [r["stats"]
                             for r in self.reports[workload, 0]["reps"]]
                self.assertEqual(run.gate(workload, 1, stat_sets, {},
                                          run.REFERENCE)[1], 0)
                with open(run.REFERENCE) as f:
                    reference = json.load(f)
                stored = reference[workload]["1"]
                stored[field] = (stored[field] + 1 if field == "misses"
                                 else "0")
                tampered = os.path.join(run.OUT_DIR,
                                        "tampered-reference.json")
                with open(tampered, "w") as f:
                    json.dump(reference, f)
                attempted, failed, problems = run.gate(
                    workload, 1, stat_sets, {}, tampered)
                self.assertEqual(failed, attempted)
                self.assertTrue(all(field in p for p in problems))


if __name__ == "__main__":
    unittest.main()
