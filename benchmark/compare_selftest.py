#!/usr/bin/env python3
"""Self-test of compare.py's quartiles and bound verdicts.

Run: python3 benchmark/compare_selftest.py (run.sh --smoke runs it).
"""

import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402

THROUGHPUT = {"better": "higher", "bound": 0.1}
TIME = {"better": "lower", "bound": 0.25}


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(compare.quartiles([3.0, 1.0]), (0.5, 2.0, 3.5))
        self.assertEqual(compare.quartiles([10, 20, 30, 40, 50, 60, 70, 80,
                                            90, 100]), (27.5, 55.0, 82.5))

    def test_one_sample(self):
        self.assertEqual(compare.quartiles([4.0]), (4.0, 4.0, 4.0))


class Verdicts(unittest.TestCase):
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9,
              100.0]

    def verdict(self, metric, a, b):
        return compare.verdict(metric, a, b)[1]

    def test_too_few_pairs(self):
        self.assertEqual(self.verdict(THROUGHPUT, [1.0] * 9, [2.0] * 9),
                         "too-few-pairs")

    def test_no_bound(self):
        per_layer = {"better": "lower", "bound": None}
        self.assertEqual(self.verdict(per_layer, self.parent, self.parent),
                         "no-bound")

    def test_within_bound_is_no_change(self):
        change = [x * 0.95 for x in self.parent]
        self.assertEqual(self.verdict(THROUGHPUT, self.parent, change),
                         "no-change")

    def test_throughput_drop_past_bound_is_regression(self):
        change = [x * 0.85 for x in self.parent]
        self.assertEqual(self.verdict(THROUGHPUT, self.parent, change),
                         "regression")

    def test_time_rise_past_bound_is_regression(self):
        change = [x * 1.3 for x in self.parent]
        self.assertEqual(self.verdict(TIME, self.parent, change), "regression")

    def test_consistent_win_beyond_spread_is_gain(self):
        change = [x * 1.05 for x in self.parent]
        win_share, v = compare.verdict(THROUGHPUT, self.parent, change)
        self.assertEqual((win_share, v), (1.0, "gain"))

    def test_noisy_parent_is_unresolved(self):
        noisy = [60.0, 140.0] * 5
        self.assertEqual(self.verdict(THROUGHPUT, noisy, list(reversed(noisy))),
                         "unresolved")
        self.assertEqual(self.verdict(THROUGHPUT, noisy, [200.0] * 10),
                         "better")


if __name__ == "__main__":
    unittest.main(verbosity=1)
