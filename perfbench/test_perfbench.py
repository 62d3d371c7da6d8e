#!/usr/bin/env python3
"""The benchmark's own tests, on smoke inputs (a few seconds per run).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Checks that
  * every workload, timed and traced, passes every gate and reports every
    metric BENCHMARK.json names;
  * each correctness gate fails the run when its input is broken on
    purpose: a miscompiled function reaching the interpreter-equivalence
    check, and an altered daemon response reaching the bit-identity check;
  * the deterministic metrics (quality ratios, success rate, work counts)
    repeat exactly across two runs with the same seed.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["corpus_cli", "chain_ladder", "serve_mixed"]
DETERMINISTIC_E2E = ["dyn_ops_ratio", "cycles_ratio", "code_size_ratio",
                     "success_rate"]
UNITS_THAT_ARE_COUNTS = {"count", "KiB"}


def run(workload, trace=0, seed=3, extra=()):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stdout}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    def test_every_workload_passes_and_reports_every_metric(self):
        bench = spec()
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    names = {m["name"] for m in bench[key]}
                    self.assertEqual(set(result["metrics"]), names)
                    for m in bench[key]:
                        self.assertEqual(result["metrics"][m["name"]]["unit"],
                                         m["unit"])

    def test_miscompiled_output_fails_the_equivalence_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload, extra=("--break", "miscompile"))
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["success_rate"]["value"],
                                1.0)

    def test_miscompiled_output_fails_the_traced_run(self):
        result = run("corpus_cli", trace=1, extra=("--break", "miscompile"))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_altered_response_fails_the_bit_identity_gate(self):
        result = run("serve_mixed", extra=("--break", "response"))
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["success_rate"]["value"], 1.0)

    def test_deterministic_metrics_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a, b = run(workload), run(workload)
                for name in DETERMINISTIC_E2E:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                a, b = run(workload, trace=1), run(workload, trace=1)
                for name, metric in a["metrics"].items():
                    if metric["unit"] in UNITS_THAT_ARE_COUNTS:
                        self.assertEqual(metric["value"],
                                         b["metrics"][name]["value"], name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
