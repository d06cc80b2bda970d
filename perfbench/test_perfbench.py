#!/usr/bin/env python3
"""Self-tests of the end-to-end benchmark.

    python3 perfbench/test_perfbench.py

Builds the perfbench binary the way perfbench/run.py does, then checks that
  - deterministic values repeat exactly across two same-seed runs: the
    Table 1 accuracies and exact-solution count, and the sat.* solver counts
    of the single-threaded exact_chromatic workload;
  - the msropm.* stage intervals add up to the solve_batch wall;
  - every metric name and unit printed matches BENCHMARK.json, for every
    workload in both modes;
  - the result-line checker rejects a result whose metrics drift from
    BENCHMARK.json.
Takes a few minutes: each workload runs once per mode with a 1 s budget.
"""

import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (perfbench/run.py)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
_cache = {}


def drive(workload, seed, trace, tag=0):
    """Run the perfbench binary once; returns (detail, result). Cached per arguments."""
    key = (workload, seed, trace, tag)
    if key not in _cache:
        binary = run.build()
        proc = subprocess.run(
            [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=run.RUN_TIMEOUT_S, check=False)
        lines = proc.stdout.strip().splitlines()
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        if proc.returncode != 0 or not result["correct"]:
            raise AssertionError(f"{workload} failed its checks: {detail['errors']}")
        _cache[key] = (detail, result)
    return _cache[key]


def values(metrics, prefix=""):
    return {k: v["value"] for k, v in metrics.items() if k.startswith(prefix)}


class DeterminismTest(unittest.TestCase):
    def test_table1_quality_repeats_for_a_seed(self):
        a, _ = drive("paper_table1", 5, 0, tag=0)
        b, _ = drive("paper_table1", 5, 0, tag=1)
        keys = ["best_accuracy_mean", "mean_accuracy", "exact_solutions"] + [
            k for k in a["rows"] if k.startswith("fidelity.best_accuracy.")]
        self.assertEqual(len(keys), 7)
        for k in keys:
            self.assertEqual(a["rows"][k]["value"], b["rows"][k]["value"], k)

    def test_sat_counts_repeat_for_a_seed(self):
        _, a = drive("exact_chromatic", 5, 1, tag=0)
        _, b = drive("exact_chromatic", 5, 1, tag=1)
        counts = [m["name"] for m in SPEC["per_layer"]
                  if m["name"].startswith("sat.") and m["unit"] in ("count", "words")]
        self.assertEqual(len(counts), 12)
        for k in counts:
            self.assertEqual(a["metrics"][k]["value"], b["metrics"][k]["value"], k)
        self.assertGreater(a["metrics"]["sat.conflicts.gnp"]["value"], 0)
        self.assertGreater(a["metrics"]["sat.propagations.kings"]["value"], 0)


class AttributionTest(unittest.TestCase):
    def test_stage_intervals_add_up_to_solve_batch_wall(self):
        _, r = drive("paper_table1", 5, 1)
        m = values(r["metrics"], "msropm.")
        parts = ["msropm.init_s", "msropm.anneal_s", "msropm.lock_s",
                 "msropm.readout_reinit_s", "msropm.final_readout_s"]
        self.assertTrue(all(m[p] > 0 for p in parts))
        self.assertTrue(math.isclose(sum(m[p] for p in parts), m["msropm.solve_batch_s"],
                                     rel_tol=1e-9))

    def test_paper_run_reports_runner_and_phase_rows(self):
        _, r = drive("paper_table1", 5, 1)
        m = values(r["metrics"])
        self.assertGreater(m["runner.parallel_efficiency"], 0)
        self.assertGreater(m["runner.window_imbalance"], 1.0)
        self.assertTrue(0 < m["phase.noise_share"] < 1)
        for size in ("n49", "n400", "n1024", "n2116"):
            self.assertGreater(m[f"runner.wall_s.{size}"], 0)

    def test_idle_layers_read_zero(self):
        _, paper = drive("paper_table1", 5, 1)
        _, exact = drive("exact_chromatic", 5, 1, tag=0)
        self.assertEqual(paper["metrics"]["sat.conflicts.gnp"]["value"], 0)
        self.assertEqual(paper["metrics"]["portfolio.attempts_ran"]["value"], 0)
        self.assertEqual(exact["metrics"]["phase.ns_per_osc_step.anneal"]["value"], 0)


class MetricNamesTest(unittest.TestCase):
    def test_printed_metrics_match_benchmark_json(self):
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    _, result = drive(w["name"], 5, trace)
                    self.assertEqual(run.check_result(result, bool(trace)), [])

    def test_checker_rejects_drifted_names(self):
        _, result = drive("portfolio_race", 5, 0)
        bad = json.loads(json.dumps(result))
        bad["metrics"]["wall_ms"] = bad["metrics"].pop("wall_s")
        self.assertTrue(run.check_result(bad, False))
        bad = json.loads(json.dumps(result))
        bad["metrics"]["wall_s"]["unit"] = "ms"
        self.assertTrue(run.check_result(bad, False))


if __name__ == "__main__":
    unittest.main()
