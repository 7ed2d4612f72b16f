#!/usr/bin/env python3
"""Checks BENCHMARK.json and reference.json against the benchmark's rules.

    python3 perfbench/test_benchmark.py

The program's own tests (percentiles, self time, op streams, metric
names, and that every compiled-in workload is gated or says why not)
run with `cargo test --manifest-path perfbench/Cargo.toml`.
"""

import json
import re
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkJson(unittest.TestCase):
    def test_top_level_keys(self):
        self.assertEqual(set(BENCHMARK), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(BENCHMARK)), 64 * 1024)

    def test_command_and_paths_stay_inside_the_benchmark(self):
        cmd = BENCHMARK["command"]
        self.assertTrue(1 <= len(cmd) <= 32 and all(len(a) <= 200 for a in cmd))
        paths = BENCHMARK["paths"]
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        for arg in cmd[1:]:
            if "/" in arg:
                self.assertTrue(any(arg.startswith(p + "/") for p in paths), arg)

    def test_run_budget(self):
        seconds = BENCHMARK["run_seconds"]
        self.assertIsInstance(seconds, int)
        self.assertTrue(1 <= seconds <= 60)

    def test_workloads(self):
        workloads = BENCHMARK["workloads"]
        self.assertTrue(2 <= len(workloads) <= 8)
        for w in workloads:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(len(w["why"]) <= 200 and "\n" not in w["why"])

    def test_metric_names_use_the_charset_once_each(self):
        names = [w["name"] for w in BENCHMARK["workloads"]]
        for m in BENCHMARK["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in BENCHMARK["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
            names.append(m["name"])
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(1 <= len(BENCHMARK["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(BENCHMARK["per_layer"]) <= 128)

    def test_setup_time_has_the_largest_bound(self):
        setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in BENCHMARK["end_to_end"]))


class ReferenceJson(unittest.TestCase):
    def test_gated_workloads_are_not_also_ungated(self):
        gated = {w["name"] for w in BENCHMARK["workloads"]}
        self.assertFalse(gated & set(REFERENCE["ungated"]["workloads"]))

    def test_ungated_metrics_are_not_in_the_result(self):
        gated = {m["name"] for m in BENCHMARK["end_to_end"]}
        self.assertFalse(gated & set(REFERENCE["ungated"]["metrics"]))

    def test_every_layer_metric_has_a_prediction_on_a_gated_workload(self):
        self.assertEqual(set(REFERENCE["predictions"]),
                         {m["name"] for m in BENCHMARK["per_layer"]})
        gated = [w["name"] for w in BENCHMARK["workloads"]]
        for name, prediction in REFERENCE["predictions"].items():
            self.assertTrue(prediction.startswith("no gated workload")
                            or any(f"on {w}" in prediction for w in gated), name)


if __name__ == "__main__":
    unittest.main()
