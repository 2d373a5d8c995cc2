#!/usr/bin/env python3
"""Tests of the SOAP benchmark itself, on scaled-down workloads.

    python3 perfbench/test_perfbench.py

Runs run.py --quick on every workload, traced and untraced, and checks the
result line against BENCHMARK.json and the span file; plus the correctness
gates on synthetic run facts.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

# Layers that do work in each workload, by a replay span they must record.
LAYER_SPANS = {
    "paper": {"workload.generate", "router.route", "storage.read",
              "storage.update", "txn.lock", "txn.release", "sim.loop"},
    "hub_drift": {"planner.observe", "planner.replan", "planner.partition",
                  "planner.build", "planner.decay"},
    "scale_out": {"planner.observe", "planner.replan"},
    "paper_checked": {"check.record", "check.verify"},
}
# Per-layer metrics that must be positive where that layer works.
LAYER_METRICS = {
    "paper": ["workload.gen_ns_per_txn", "sim.ns_per_event",
              "sim.loop_ns_per_event", "router.route_ns", "txn.lock_ns",
              "storage.read_ns", "storage.update_ns", "sim.events",
              "router.exceptions", "txn.lock_acquires", "core.rep_txns"],
    "hub_drift": ["planner.observe_ns", "planner.replan_ms",
                  "planner.graph_vertices", "replica.creates"],
    "scale_out": ["planner.observe_ns", "planner.replan_ms",
                  "cluster.queue_timeouts", "storage.rows"],
    "paper_checked": ["check.record_ns_per_txn", "check.verify_s",
                      "check.invariant_checks"],
}


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=900)


class QuickWorkloadTest(unittest.TestCase):
    def check_result(self, proc, names):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        last = proc.stdout.strip().splitlines()[-1]
        result = json.loads(last)
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        for name, unit in names.items():
            self.assertEqual(last.count('"%s":' % name), 1, name)
            metric = result["metrics"][name]
            self.assertEqual(metric["unit"], unit, name)
            value = metric["value"]
            self.assertIsInstance(value, (int, float), name)
            self.assertNotIsInstance(value, bool, name)
            self.assertTrue(math.isfinite(value), name)
        return result["metrics"]

    def check_spans(self, proc, workload):
        line = [l for l in proc.stdout.splitlines()
                if l.startswith("# spans: ")]
        self.assertEqual(len(line), 1)
        with open(os.path.join(ROOT, line[0][len("# spans: "):])) as f:
            spans = [json.loads(l) for l in f]
        ids = {s["id"] for s in spans}
        self.assertEqual(len(ids), len(spans))
        for s in spans:
            self.assertTrue(s["parent"] == 0 or s["parent"] in ids, s)
            self.assertGreaterEqual(s["end_ns"], s["start_ns"], s)
        roots = [s for s in spans if s["parent"] == 0]
        self.assertEqual([r["name"] for r in roots], ["replay"])
        # All spans of one replayed transaction share its id.
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            if s["txn"] and by_id.get(s["parent"], {}).get("txn"):
                self.assertEqual(s["txn"], by_id[s["parent"]]["txn"])
        names = {s["name"] for s in spans}
        self.assertLessEqual(LAYER_SPANS["paper"], names)
        self.assertLessEqual(LAYER_SPANS[workload], names)

    def test_every_workload(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                untraced = bench("--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", "0", "--quick")
                self.check_result(untraced, run.metric_units("end_to_end"))
                traced = bench("--workload", workload, "--seed", "3",
                               "--seconds", "1", "--trace", "1", "--quick")
                metrics = self.check_result(traced,
                                            run.metric_units("per_layer"))
                for name in LAYER_METRICS["paper"] + LAYER_METRICS[workload]:
                    self.assertGreater(metrics[name]["value"], 0, name)
                self.check_spans(traced, workload)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_lists_the_workloads(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_out", "no_sources")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = bench("--workload", "paper", "--seed", "1", "--seconds",
                         "10", "--trace", "0", cwd=bare,
                         script=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def facts(**overrides):
    f = {"audit_ok": True, "audit": "OK", "drained": True,
         "check_enabled": False, "check_ok": True, "check": "",
         "sim": {"submitted": 10, "events": 80},
         "counts": {"stripped_resubmissions": 2},
         "replay": {"txns": 8, "generated": 8, "check_violations": 0}}
    f.update(overrides)
    return f


class GateTest(unittest.TestCase):
    def test_clean_run_passes(self):
        self.assertEqual(run.run_problems("paper", facts()), [])
        self.assertEqual(run.trace_problems(facts(), facts()), [])

    def test_run_failures_are_reported(self):
        self.assertTrue(run.run_problems("paper", facts(audit_ok=False)))
        self.assertTrue(run.run_problems("paper", facts(drained=False)))
        self.assertTrue(run.run_problems("paper_checked", facts()))
        self.assertTrue(run.run_problems(
            "paper_checked", facts(check_enabled=True, check_ok=False)))

    def test_traced_disagreement_is_reported(self):
        moved = facts(sim={"submitted": 10, "events": 81})
        self.assertTrue(run.trace_problems(facts(), moved))

    def test_replay_coverage_is_checked(self):
        short = facts(replay={"txns": 7, "generated": 7,
                              "check_violations": 0})
        self.assertTrue(run.trace_problems(facts(), short))


if __name__ == "__main__":
    unittest.main()
