#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_smoke.py

Runs `run.py --smoke` (every workload on a tiny seeded input, untraced
and traced) and checks the report format: every metric BENCHMARK.json
names prints with its unit and sample count, the JSON parses, and the
outputs matched their references.  Also checks the benchmark's own
parsing helpers and BENCHMARK.json against the contract's limits.
"""

import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402


class SpecTest(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.spec = json.load(f)

    def test_workloads_match_the_runner(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(tuple(names), run.WORKLOADS)

    def test_names_and_bounds(self):
        seen = set()
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(m["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
            self.assertIn(m["better"], ("lower", "higher"))
            self.assertNotIn(m["name"], seen)
            seen.add(m["name"])
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))

    def test_layer_names_match_the_binary(self):
        with open(os.path.join(HERE, "src", "common.cc")) as f:
            src = f.read()
        listed = re.findall(r'\{"([a-z0-9_.]+)", "([^"]+)"\}', src)
        self.assertEqual(
            listed,
            [(m["name"], m["unit"]) for m in self.spec["per_layer"]])


class ParserTest(unittest.TestCase):
    def test_check_printed_finds_missing_metrics(self):
        lines = ["e2e     setup_s     0.5 s  n=3",
                 "e2e     tx_mbps     7.1 Mbit/s  n=6",
                 "detail  lat_p50_ms  0.1 ms  n=10"]
        self.assertEqual(run.check_printed(lines, ["setup_s", "tx_mbps"],
                                           "e2e"), [])
        # Printed under another kind, or without a sample count: missing.
        self.assertEqual(run.check_printed(lines, ["lat_p50_ms"], "e2e"),
                         ["lat_p50_ms"])
        self.assertEqual(
            run.check_printed(["e2e setup_s 0.5 s"], ["setup_s"], "e2e"),
            ["setup_s"])


class SmokeTest(unittest.TestCase):
    def test_smoke_mode(self):
        p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                            "--smoke"], capture_output=True, text=True,
                           cwd=ROOT, timeout=900)
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr[-3000:])
        oks = [l for l in p.stdout.splitlines() if l.startswith("smoke ")]
        self.assertEqual(len(oks), 2 * len(run.WORKLOADS), p.stdout)
        for line in oks:
            self.assertTrue(line.endswith(" ok"), line)


if __name__ == "__main__":
    unittest.main()
