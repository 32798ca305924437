"""Tests of the benchmark runner's metric table and checks.

Run from the root of the repository: python3 -m unittest perfbench/test_run.py
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
BENCHMARK = os.path.join(run.HERE, os.pardir, "BENCHMARK.json")


def process(traced):
    """One process's JSON line, as the binary prints it."""
    spans = None
    if traced:
        layer = {"calls": 10, "total_s": 0.01, "self_s": 0.01}
        spans = {name: dict(layer) for name in run.LAYERS}
        spans.update(schedule_call_p50_s=1e-6, schedule_call_p99_s=5e-6,
                     dispatching_calls=4, plans=6, router_sheds=2)
    return {
        "workload": "overload", "seed": 1, "requests": 10, "traced": traced,
        "probe_s": 0.07, "setup_s": 0.001, "run_s": 0.1, "sim_req_per_s": 100.0,
        "runq_wait_s": 0.0, "peak_rss_mb": 20.0, "sar": 0.5,
        "goodput_rps": 1.0, "latency_p50_s": 1.0, "latency_p99_s": 2.0,
        "latency_samples": 5, "worst_tenant_sar": 0.5, "unserved_frac": 0.5,
        "encode_util": 0.0, "decode_util": 0.0, "decode_slo_share": 0.01,
        "events": 40, "feas_calls": 5, "feas_grow_events": 0,
        "admission_shed": 0, "fleet_shed": 5, "peak_backlog": 3,
        "outcomes": 10, "trace_events": 30, "lost_requests": 0,
        "routing_digest": "0x1", "outcome_digest": "0x2",
        "audit_violations": 0 if traced else None, "errors": [],
        "spans": spans, "server_self_s": 0.06 if traced else None,
    }


class MetricTable(unittest.TestCase):
    def tables(self):
        untraced = [process(False), process(False)]
        traced = [process(True), process(True)]
        return run.end_to_end(untraced), run.per_layer(untraced, traced)

    def test_names_and_units_are_well_formed(self):
        for table in self.tables():
            names = [name for name, _, _ in table]
            self.assertEqual(len(names), len(set(names)))
            for name, unit, value in table:
                self.assertTrue(NAME.fullmatch(name), name)
                self.assertTrue(UNIT.fullmatch(unit), f"{name}: {unit!r}")
                self.assertIsInstance(value, (int, float))

    def test_tables_match_benchmark_json(self):
        if not os.path.exists(BENCHMARK):
            self.skipTest("BENCHMARK.json not present")
        with open(BENCHMARK) as f:
            spec = json.load(f)
        e2e, layers = self.tables()
        for key, table in (("end_to_end", e2e), ("per_layer", layers)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            produced = {name: unit for name, unit, _ in table}
            self.assertEqual(declared, produced, key)


class Checks(unittest.TestCase):
    def test_identical_processes_pass(self):
        runs = [process(False), process(False)]
        self.assertEqual(run.check(runs, [process(True)]), [])

    def test_digest_drift_fails(self):
        drifted = process(True)
        drifted["outcome_digest"] = "0x3"
        errors = run.check([process(False)], [drifted])
        self.assertTrue(any("outcome_digest" in e for e in errors), errors)

    def test_simulated_metric_drift_fails(self):
        drifted = process(False)
        drifted["sar"] = 0.5000000001
        self.assertTrue(run.check([process(False), drifted], []))

    def test_process_errors_and_missing_audit_fail(self):
        failed = process(False)
        failed["errors"] = ["audit found 1 violation(s)"]
        self.assertTrue(run.check([failed], []))
        unaudited = process(True)
        unaudited["audit_violations"] = None
        self.assertTrue(run.check([process(False)], [unaudited]))


if __name__ == "__main__":
    unittest.main()
