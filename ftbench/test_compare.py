#!/usr/bin/env python3
"""Tests of ftbench/compare.py's decision rule: python3 ftbench/test_compare.py"""
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402


def seeds(values):
    return {seed: value for seed, value in enumerate(values, start=1)}


PARENT = seeds([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])


class JudgeTest(unittest.TestCase):
    def test_gain_needs_nine_of_ten_wins_beyond_parent_iqr(self):
        change = seeds([110, 111, 109, 110, 112, 108, 110, 111, 109, 110])
        self.assertEqual(compare.judge(PARENT, change, "higher", 0.1)[0],
                         "gain")

    def test_eight_wins_is_no_gain(self):
        values = [110, 111, 109, 110, 112, 108, 110, 111, 90, 90]
        verdict, wins, pairs = compare.judge(PARENT, seeds(values), "higher",
                                             0.25)
        self.assertEqual((wins, pairs), (8, 10))
        self.assertNotEqual(verdict, "gain")

    def test_gain_within_parent_iqr_is_no_gain(self):
        change = seeds([v + 0.5 for v in PARENT.values()])
        verdict, wins, _ = compare.judge(PARENT, change, "higher", 0.1)
        self.assertEqual(wins, 10)
        self.assertEqual(verdict, "unchanged")

    def test_ties_count_for_neither_side(self):
        change = dict(PARENT)
        verdict, wins, pairs = compare.judge(PARENT, change, "lower", 0.1)
        self.assertEqual((verdict, wins, pairs), ("unchanged", 0, 10))

    def test_fewer_than_ten_pairs_is_no_gain(self):
        parent = seeds([100, 101, 99, 100, 102])
        change = seeds([120, 121, 119, 120, 122])
        self.assertNotEqual(compare.judge(parent, change, "higher", 0.1)[0],
                            "gain")

    def test_lower_is_better_direction(self):
        change = seeds([90, 91, 89, 90, 92, 88, 90, 91, 89, 90])
        self.assertEqual(compare.judge(PARENT, change, "lower", 0.1)[0],
                         "gain")
        self.assertEqual(compare.judge(PARENT, change, "higher", 0.05)[0],
                         "regression")

    def test_regression_is_median_worse_than_bound(self):
        change = seeds([v * 0.85 for v in PARENT.values()])
        self.assertEqual(compare.judge(PARENT, change, "higher", 0.1)[0],
                         "regression")
        self.assertEqual(compare.judge(PARENT, change, "higher", 0.2)[0],
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = seeds([60, 140, 80, 120, 100, 70, 130, 90, 110, 100])
        self.assertEqual(compare.judge(PARENT, noisy, "higher", 0.1)[0],
                         "unresolved")

    def test_wide_spread_but_every_run_better(self):
        # Five pairs: too few for a gain, spread far wider than the bound,
        # yet every change run beats every parent run.
        parent = seeds([50, 90, 60, 80, 70])
        change = seeds([95, 140, 100, 120, 110])
        self.assertEqual(compare.judge(parent, change, "higher", 0.1)[0],
                         "better")

    def test_per_layer_metrics_get_only_the_gain_test(self):
        change = seeds([v * 0.5 for v in PARENT.values()])
        self.assertEqual(compare.judge(PARENT, change, "higher", None)[0], "-")

    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([1, 2, 3, 4, 5]), (1.5, 3, 4.5))
        self.assertEqual(compare.quartiles([7]), (7, 7, 7))


class CompareTest(unittest.TestCase):
    def test_table_counts_regressions(self):
        specs = {"ops_per_s": ("1/s", "higher", 0.1)}
        parent = {("serve_mixed", 0): {s: {"ops_per_s": v}
                                       for s, v in PARENT.items()}}
        change = {("serve_mixed", 0): {s: {"ops_per_s": v * 0.5}
                                       for s, v in PARENT.items()}}
        out = io.StringIO()
        self.assertEqual(compare.compare(parent, change, specs, out), 1)
        self.assertIn("regression", out.getvalue())


if __name__ == "__main__":
    unittest.main()
