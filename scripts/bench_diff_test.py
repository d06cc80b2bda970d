#!/usr/bin/env python3
"""Unit tests for bench_diff.py: synthetic two-tree fixtures covering the
improvement / regression / below-floor / missing-row / schema-mismatch
paths and the per-seed non-inferiority rule, invoked as a subprocess so
the exit codes under test are the real contract (scripts/check.sh consumes
them, not the internals).

Run directly (python3 scripts/bench_diff_test.py) or via ctest
(bench_diff_py_test).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_diff.py")


def make_tree(root, name, rows, meta=None, fname="bench_x.json", text=None):
    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, fname)
    if text is not None:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        return
    doc = {
        "bench": name,
        "meta": meta or {"git_rev": "abc", "timestamp": "t",
                         "compiler": "gcc", "build_type": "Release",
                         "obs": "on"},
        "rows": rows,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)


def run_diff(base, new, *extra):
    return subprocess.run(
        [sys.executable, SCRIPT, base, new, *extra],
        capture_output=True, text=True)


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.base = os.path.join(self.tmp.name, "base")
        self.new = os.path.join(self.tmp.name, "new")

    def tearDown(self):
        self.tmp.cleanup()

    def test_identical_trees_pass(self):
        rows = [{"name": "r", "wall_ms": 100.0, "decided": 5}]
        make_tree(self.base, "b", rows)
        make_tree(self.new, "b", rows)
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("bench_diff: OK", result.stdout)

    def test_improvement_passes(self):
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 100.0}])
        make_tree(self.new, "b", [{"name": "r", "wall_ms": 50.0}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("-50.0%", result.stdout)

    def test_timing_regression_fails(self):
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 100.0}])
        make_tree(self.new, "b", [{"name": "r", "wall_ms": 120.0}])
        result = run_diff(self.base, self.new, "--threshold", "0.10")
        self.assertEqual(result.returncode, 1)
        self.assertIn("REGRESSION", result.stdout)
        self.assertIn("regression(s)", result.stderr)

    def test_regression_within_threshold_passes(self):
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 100.0}])
        make_tree(self.new, "b", [{"name": "r", "wall_ms": 108.0}])
        result = run_diff(self.base, self.new, "--threshold", "0.10")
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_higher_better_regression_fails(self):
        make_tree(self.base, "b", [{"name": "r", "speedup": 2.0}])
        make_tree(self.new, "b", [{"name": "r", "speedup": 1.5}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 1)

    def test_below_floor_timing_is_informational(self):
        # 0.1 ms -> 0.5 ms is 5x but both sit under the 1 ms noise floor.
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 0.1}])
        make_tree(self.new, "b", [{"name": "r", "wall_ms": 0.5}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_missing_row_fails(self):
        make_tree(self.base, "b", [{"name": "kept", "wall_ms": 1.0},
                                   {"name": "dropped", "wall_ms": 1.0}])
        make_tree(self.new, "b", [{"name": "kept", "wall_ms": 1.0}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("MISSING", result.stdout)

    def test_new_row_passes(self):
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 1.0}])
        make_tree(self.new, "b", [{"name": "r", "wall_ms": 1.0},
                                  {"name": "added", "wall_ms": 9.0}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("new row", result.stdout)

    def test_invalid_json_is_schema_error(self):
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 1.0}])
        make_tree(self.new, "b", [], text="{not json")
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 2)
        self.assertIn("schema error", result.stderr)

    def test_missing_rows_key_is_schema_error(self):
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 1.0}])
        make_tree(self.new, "b", [], text='{"bench": "b"}')
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 2)

    def test_meta_mismatch_warns_but_compares(self):
        make_tree(self.base, "b", [{"name": "r", "wall_ms": 1.0}],
                  meta={"compiler": "gcc", "build_type": "Release", "obs": "on"})
        make_tree(self.new, "b", [{"name": "r", "wall_ms": 1.0}],
                  meta={"compiler": "clang", "build_type": "Release", "obs": "on"})
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 0, result.stderr)
        self.assertIn("warning: compiler differs", result.stdout)

    def test_disjoint_trees_is_usage_error(self):
        make_tree(self.base, "a", [{"name": "r"}], fname="only_a.json")
        make_tree(self.new, "b", [{"name": "r"}], fname="only_b.json")
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 2)

    def test_non_numeric_metrics_never_gate(self):
        make_tree(self.base, "b", [{"name": "r", "best_single": "cdcl"}])
        make_tree(self.new, "b", [{"name": "r", "best_single": "dsatur"}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 0, result.stderr)

    def test_flat_accuracy_is_higher_better(self):
        make_tree(self.base, "b", [{"name": "r", "best_accuracy": 0.98}])
        make_tree(self.new, "b", [{"name": "r", "best_accuracy": 0.80}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("higher", result.stdout)

    # Per-seed samples: judged by the 99% one-sided Welch non-inferiority
    # bound (margin 0.005 for accuracies, 0.05 for exact_fraction), never by
    # the flat --threshold.
    BASE_ACC = [0.970, 0.972, 0.974, 0.971, 0.973, 0.975, 0.970, 0.972,
                0.974, 0.973]

    def sampled_row(self, samples, metric="mean_accuracy"):
        return {"name": "n400", metric: sum(samples) / len(samples),
                metric + "_samples": samples}

    def test_noninferior_samples_pass(self):
        # Mean 0.001 lower and the same spread: inside the 0.005 margin.
        make_tree(self.base, "b", [self.sampled_row(self.BASE_ACC)])
        make_tree(self.new, "b",
                  [self.sampled_row([x - 0.001 for x in self.BASE_ACC])])
        result = run_diff(self.base, self.new, "--threshold", "0.0")
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("non-inferior", result.stdout)

    def test_inferior_samples_fail(self):
        # 0.006 lower: the lower bound falls past -0.005 even though the
        # flat 10% threshold would accept the drop.
        make_tree(self.base, "b", [self.sampled_row(self.BASE_ACC)])
        make_tree(self.new, "b",
                  [self.sampled_row([x - 0.006 for x in self.BASE_ACC])])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("LCB", result.stdout)
        self.assertIn("REGRESSION", result.stdout)

    def test_noisy_samples_fail_when_bound_is_wide(self):
        # Equal means, but a spread too wide to rule out a 0.05 loss in the
        # exact fraction: non-inferiority is not shown, so the row fails.
        noisy = [0.2, 0.5, 0.1, 0.45, 0.3, 0.15, 0.4, 0.25, 0.35, 0.3]
        make_tree(self.base, "b", [self.sampled_row(noisy, "exact_fraction")])
        make_tree(self.new, "b", [self.sampled_row(noisy, "exact_fraction")])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("exact_fraction", result.stderr)

    def test_constant_samples_compare_exactly(self):
        ones = [1.0] * 10
        make_tree(self.base, "b", [self.sampled_row(ones, "best_accuracy")])
        make_tree(self.new, "b", [self.sampled_row(ones, "best_accuracy")])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_row_missing_its_samples_fails(self):
        make_tree(self.base, "b", [self.sampled_row(self.BASE_ACC)])
        make_tree(self.new, "b", [{"name": "n400", "mean_accuracy": 0.972}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 1)
        self.assertIn("samples missing from the new row", result.stdout)

    def test_malformed_samples_is_schema_error(self):
        make_tree(self.base, "b", [self.sampled_row(self.BASE_ACC)])
        make_tree(self.new, "b", [{"name": "n400", "mean_accuracy": 0.97,
                                   "mean_accuracy_samples": [0.97]}])
        result = run_diff(self.base, self.new)
        self.assertEqual(result.returncode, 2)
        self.assertIn("schema error", result.stderr)


if __name__ == "__main__":
    unittest.main()
