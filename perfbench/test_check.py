"""Tests of the plausibility gate (check.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import check  # noqa: E402

HOST = {"nproc": 4, "simd_isa": "avx2", "interseq_lanes": 32, "kernel": "6.1.0",
        "thp": "madvise", "compiler": "12.2.0", "build_type": "Release", "cpu_mhz": 2000.0}

LENGTHS = [500] * 2000  # 100-bp query against 2000 x 500-bp records


def e2e_row(cells, seconds, gcups, query_residues=None):
    return {
        "trace": 0,
        "host": dict(HOST),
        "shape": {"records": len(LENGTHS), "record_lengths": list(LENGTHS)},
        "phases": [{"name": "closed_loop", "sent": 10, "succeeded": 10, "failed": 0,
                    "refused": 0, "wrong": 0}],
        "attempted": 10, "failed": 0, "failed_share": 0.0, "problems": [],
        "cells": {"cells": cells, "seconds": seconds,
                  "query_residues": 10 * 100 if query_residues is None else query_residues},
        "metrics": {
            "setup_s": {"value": 0.2, "unit": "s"},
            "lat_p50_ms": {"value": 14.0, "unit": "ms"},
            "capacity_rps": {"value": 70.0, "unit": "1/s"},
            "scan_gcups": {"value": gcups, "unit": "GCUPS"},
            "peak_rss_mb": {"value": 80.0, "unit": "MB"},
        },
    }


def valid_row():
    cells = 10 * 100 * sum(LENGTHS)  # 1e9 cells
    return e2e_row(cells, 0.1, cells / 0.1 / 1e9)  # 10 GCUPS


class PlausibilityGate(unittest.TestCase):
    def test_accepts_a_consistent_row(self):
        self.assertEqual(check.check(valid_row()), [])

    def test_rejects_the_uninitialized_cells_row(self):
        # The symptom of an uninitialized cells field: 940657.2 MBP printed
        # for a 1 MBP database, which turned a 0.26 s scan into 358611 GCUPS.
        cells = 94065720000000
        row = e2e_row(cells, cells / 358611e9, 358611.0)
        reasons = check.check(row)
        self.assertTrue(any("differ from sum|q|*sum|r|" in r for r in reasons), reasons)
        self.assertTrue(any("ceiling" in r for r in reasons), reasons)

    def test_rejects_gcups_above_the_ceiling_even_with_consistent_cells(self):
        row = valid_row()
        row["cells"]["seconds"] = 1e-6
        row["metrics"]["scan_gcups"]["value"] = row["cells"]["cells"] / 1e-6 / 1e9
        self.assertTrue(any("ceiling" in r for r in check.check(row)))

    def test_rejects_cells_that_do_not_match_the_workload(self):
        row = valid_row()
        row["cells"]["cells"] += 1
        row["metrics"]["scan_gcups"]["value"] = row["cells"]["cells"] / 0.1 / 1e9
        self.assertTrue(any("sum|q|*sum|r|" in r for r in check.check(row)))

    def test_rejects_gcups_not_derived_from_cells(self):
        row = valid_row()
        row["metrics"]["scan_gcups"]["value"] *= 1.5
        self.assertTrue(any("not cells/seconds" in r for r in check.check(row)))

    def test_rejects_a_missing_host_block(self):
        row = valid_row()
        del row["host"]
        self.assertTrue(any("host block" in r for r in check.check(row)))
        row = valid_row()
        del row["host"]["simd_isa"]
        self.assertTrue(any("host block" in r for r in check.check(row)))

    def test_rejects_failed_share_not_derived_from_attempted(self):
        row = valid_row()
        row["phases"][0].update(succeeded=9, wrong=1)
        self.assertTrue(any("failed " in r for r in check.check(row)))
        row["failed"] = 1
        self.assertTrue(any("failed_share" in r for r in check.check(row)))
        row["failed_share"] = 0.1
        self.assertEqual(check.check(row), [])
        row["attempted"] = 20
        self.assertTrue(any("attempted" in r for r in check.check(row)))

    def test_rejects_missing_extra_or_mislabelled_metrics(self):
        row = valid_row()
        del row["metrics"]["lat_p50_ms"]
        self.assertIn("metric lat_p50_ms missing", check.check(row))
        row = valid_row()
        row["metrics"]["lat_p99_ms"] = {"value": 1.0, "unit": "ms"}
        self.assertIn("unexpected metric lat_p99_ms", check.check(row))
        row = valid_row()
        row["metrics"]["setup_s"]["unit"] = "ms"
        self.assertTrue(any("unit" in r for r in check.check(row)))

    def test_rejects_an_open_loop_whose_generator_fell_behind(self):
        row = valid_row()
        row["phases"].insert(0, {"name": "open_loop", "sent": 300, "succeeded": 300, "failed": 0,
                                 "refused": 0, "wrong": 0})
        row["attempted"] += 300
        ok = {"rate_rps": 25.0, "due": 300, "gen_lag_samples": 300, "gen_lag_p99_ms": 7.5,
              "valid": True}
        row["open_loop"] = dict(ok)
        self.assertEqual(check.check(row), [])
        # 25 req/s: a request sent over 40 ms late left after the next was due.
        row["open_loop"] = dict(ok, gen_lag_p99_ms=40.5)
        self.assertTrue(any("invalid open loop" in r for r in check.check(row)))
        row["open_loop"] = dict(ok, valid=False)
        self.assertTrue(any("invalid open loop" in r for r in check.check(row)))
        row["open_loop"] = dict(ok, gen_lag_samples=290)
        self.assertTrue(any("covers 290 of 300" in r for r in check.check(row)))
        row["open_loop"] = dict(ok, due=310, gen_lag_samples=310)
        self.assertTrue(any("covers 310 of 310" in r for r in check.check(row)))
        row["open_loop"] = dict(ok, rate_rps=0)
        self.assertTrue(any("lateness missing" in r for r in check.check(row)))
        del row["open_loop"]
        self.assertTrue(any("lateness missing" in r for r in check.check(row)))

    def test_output_check_failures_reject(self):
        row = valid_row()
        row["problems"] = ["request 7: planted homolog not ranked first"]
        self.assertTrue(any("planted" in r for r in check.check(row)))

    def test_traced_rows_gate_per_layer_gcups(self):
        row = {"trace": 1, "host": dict(HOST), "phases": copy.deepcopy(valid_row()["phases"]),
               "attempted": 10, "failed": 0, "failed_share": 0.0, "problems": [],
               "metrics": {n: {"value": 1.0, "unit": u} for n, u in check.LAYER_METRICS.items()}}
        self.assertEqual(check.check(row), [])
        row["metrics"]["align.interseq_gcups"]["value"] = 358611.0
        self.assertTrue(any("align.interseq_gcups" in r for r in check.check(row)))


class BenchmarkJson(unittest.TestCase):
    def test_metric_lists_match_the_gate(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, check.E2E_METRICS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, check.LAYER_METRICS)


if __name__ == "__main__":
    unittest.main()
