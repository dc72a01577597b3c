"""Tests of the benchmark's own statistics and span accounting.

Run from the repository root with ``python3 -m pytest perfbench`` or
``python3 -m unittest discover -s perfbench``.
"""

from __future__ import annotations

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402
from spans import coverage, self_times  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.percentile(samples, 50), 50)
        self.assertEqual(stats.percentile(samples, 90), 90)
        self.assertEqual(stats.percentile(samples, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)

    def test_samples_beyond(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(99, 90), 9)
        self.assertEqual(stats.beyond(20, 50), 10)

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(500), 98.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_every_reported_tail_has_ten_beyond(self):
        for count in range(20, 3000, 7):
            pct = stats.tail_percentile(count)
            samples = list(range(count))
            above = sum(1 for x in samples if x > stats.percentile(samples, pct))
            self.assertGreaterEqual(above, stats.MIN_BEYOND, (count, pct))

    def test_summary_states_sample_count(self):
        summary = stats.latency_summary([0.1] * 150)
        self.assertEqual(summary["n"], 150)
        self.assertEqual(summary["tail_pct"], 90.0)
        self.assertNotIn("tail", stats.latency_summary([0.1] * 5))


class ErrorRate(unittest.TestCase):
    def test_refused_jobs_count_as_failed(self):
        self.assertEqual(stats.error_rate(100, 0), 0.0)
        self.assertEqual(stats.error_rate(100, 2, refused=3), 0.05)
        self.assertEqual(stats.error_rate(4, 0, refused=4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            stats.error_rate(0, 0)
        with self.assertRaises(ValueError):
            stats.error_rate(10, 6, refused=5)
        with self.assertRaises(ValueError):
            stats.error_rate(10, -1)


class BestOf(unittest.TestCase):
    def test_best_per_unit_across_repetitions(self):
        reps = [{"a": 1.0, "b": 3.0}, {"a": 2.0, "b": 2.5}, {"a": 1.5}]
        self.assertEqual(stats.best_of(reps), {"a": 1.0, "b": 2.5})
        self.assertEqual(stats.best_total(reps), 3.5)

    def test_slow_phases_only_add_time(self):
        clean = {"a": 1.0, "b": 2.0}
        slowed = [{"a": 1.9, "b": 2.0}, {"a": 1.0, "b": 3.7}, {"a": 1.4, "b": 2.6}]
        self.assertEqual(stats.best_total(slowed), stats.best_total([clean]))

    def test_no_repetitions(self):
        with self.assertRaises(ValueError):
            stats.best_total([])


class Agreement(unittest.TestCase):
    def test_spread_is_interquartile_share_of_median(self):
        values = [90.0, 95.0, 100.0, 105.0, 110.0]
        q1, _, q3 = __import__("statistics").quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / 100.0)
        self.assertEqual(stats.spread([5.0] * 10), 0.0)

    def test_same_runs_agree(self):
        runs = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
        ok, detail = stats.agreement(runs, list(runs), 0.1, "lower")
        self.assertTrue(ok)
        self.assertEqual(detail["worse_by"], 0.0)

    def test_direction_of_worse(self):
        first = [100.0] * 4 + [101.0] * 4
        slower = [x * 1.2 for x in first]
        self.assertFalse(stats.agreement(first, slower, 0.1, "lower")[0])
        self.assertTrue(stats.agreement(first, slower, 0.1, "higher")[0])
        self.assertFalse(stats.agreement(slower, first, 0.1, "higher")[0])
        self.assertTrue(stats.agreement(first, slower, 0.25, "lower")[0])

    def test_wide_spread_fails_unless_exempt(self):
        wide = [50.0, 80.0, 100.0, 120.0, 150.0, 60.0, 140.0, 100.0]
        self.assertFalse(stats.agreement(wide, wide, 0.2, "lower")[0])
        self.assertTrue(stats.agreement(wide, wide, 0.2, "lower", check_spread=False)[0])

    def test_zero_median(self):
        self.assertTrue(math.isinf(stats.spread([0.0, 0.0, 0.0, 0.0, 1.0])))
        self.assertEqual(stats.worsening(0.0, 0.0, "lower"), 0.0)
        self.assertTrue(math.isinf(stats.worsening(0.0, 1.0, "lower")))


class SpanAccounting(unittest.TestCase):
    # (id, parent, layer, start, end, pid, tag, items)
    SPANS = [
        (1, 0, "rep", 0.0, 10.0, 1, "", 0),
        (2, 1, "runner.bundle", 0.0, 4.0, 1, "", 0),
        (3, 2, "traces.generate", 0.5, 2.5, 1, "", 0),
        (4, 2, "artifacts.save", 3.0, 3.5, 1, "", 0),
        (5, 1, "simulate", 4.0, 9.0, 1, "llbp", 1000),
        (6, 0, "simulate", 0.0, 2.0, 2, "llbp", 500),  # another process, own ids
        (2, 0, "runner.bundle", 2.0, 3.0, 2, "", 0),
    ]

    def test_self_time_subtracts_direct_children(self):
        layers = self_times(self.SPANS)
        self.assertAlmostEqual(layers["runner.bundle"]["seconds"], 1.5 + 1.0)
        self.assertEqual(layers["runner.bundle"]["calls"], 2)
        self.assertAlmostEqual(layers["traces.generate"]["seconds"], 2.0)
        self.assertAlmostEqual(layers["rep"]["seconds"], 1.0)

    def test_simulate_split_by_config_with_items(self):
        layers = self_times(self.SPANS)
        self.assertAlmostEqual(layers["simulate.llbp"]["seconds"], 7.0)
        self.assertEqual(layers["simulate.llbp"]["items"], 1500)

    def test_top_level_coverage(self):
        self.assertAlmostEqual(coverage(self.SPANS, "rep"), 0.9)
        self.assertEqual(coverage(self.SPANS, "missing"), 0.0)


if __name__ == "__main__":
    unittest.main()
