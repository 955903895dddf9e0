"""Tests for the benchmark's own arithmetic (perfbench/metrics.py).

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import metrics as M  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        v = list(range(1, 101))  # 1..100
        self.assertEqual(M.percentile(v, 0.5), 50)
        self.assertEqual(M.percentile(v, 0.99), 99)
        self.assertEqual(M.percentile(v, 0.9), 90)
        self.assertEqual(M.percentile(v, 1.0), 100)

    def test_order_does_not_matter(self):
        self.assertEqual(M.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_small_and_empty(self):
        self.assertEqual(M.percentile([7], 0.99), 7)
        self.assertIsNone(M.percentile([], 0.5))
        with self.assertRaises(ValueError):
            M.percentile([1, 2], 0.0)

    def test_rank_rounds_up(self):
        # 0.5 * 5 = 2.5 -> rank 3.
        self.assertEqual(M.percentile([10, 20, 30, 40, 50], 0.5), 30)

    def test_failures_sort_last(self):
        lat = M.latencies_with_failures([100, 200, 300, 400], [True, False, True, True])
        self.assertEqual(lat[1], math.inf)
        self.assertEqual(M.percentile(lat, 1.0), math.inf)
        self.assertEqual(M.percentile(lat, 0.5), 300)

    def test_ten_beyond(self):
        self.assertEqual(M.samples_beyond(1000, 0.99), 10)
        self.assertTrue(M.tail_is_supported(1000, 0.99))
        self.assertFalse(M.tail_is_supported(999, 0.99))
        self.assertTrue(M.tail_is_supported(100, 0.9))
        self.assertFalse(M.tail_is_supported(64, 0.9))


class FailFracTest(unittest.TestCase):
    def test_counts(self):
        self.assertEqual(M.fail_frac(1000, 0), 0.0)
        self.assertAlmostEqual(M.fail_frac(1000, 3), 0.003)
        self.assertEqual(M.fail_frac(4, 4), 1.0)

    def test_rejects_impossible_counts(self):
        with self.assertRaises(ValueError):
            M.fail_frac(0, 0)
        with self.assertRaises(ValueError):
            M.fail_frac(10, 11)
        with self.assertRaises(ValueError):
            M.fail_frac(10, -1)


class GoodputTest(unittest.TestCase):
    def test_verdicts(self):
        self.assertEqual(M.rung_verdict(4999.0, 0.0, False, 100.0), "pass")
        self.assertEqual(M.rung_verdict(5001.0, 0.0, False, 100.0), "fail")
        self.assertEqual(M.rung_verdict(100.0, 0.0011, False, 100.0), "fail")
        self.assertEqual(M.rung_verdict(100.0, 0.001, False, 100.0), "pass")
        self.assertEqual(M.rung_verdict(100.0, 0.0, True, 100.0), "fail")
        # A late generator makes the rung unscorable, even if it would pass.
        self.assertEqual(M.rung_verdict(100.0, 0.0, False, 2500.0), "invalid")
        # Failures count as missing the limit: an infinite p99 fails.
        self.assertEqual(M.rung_verdict(math.inf, 0.0, False, 0.0), "fail")

    def test_highest_passing_rung(self):
        rungs = [
            {"rate": 2000, "verdict": "pass", "achieved_rps": 1990.0},
            {"rate": 4000, "verdict": "pass", "achieved_rps": 4012.0},
            {"rate": 8000, "verdict": "fail", "achieved_rps": 7900.0},
            {"rate": 16000, "verdict": "invalid", "achieved_rps": 15000.0},
        ]
        self.assertEqual(M.goodput(rungs), (4012.0, 4000))

    def test_pass_above_a_failure_still_counts(self):
        rungs = [
            {"rate": 2000, "verdict": "fail", "achieved_rps": 2000.0},
            {"rate": 4000, "verdict": "pass", "achieved_rps": 3995.0},
        ]
        self.assertEqual(M.goodput(rungs), (3995.0, 4000))

    def test_no_passing_rung(self):
        rungs = [{"rate": 2000, "verdict": "invalid", "achieved_rps": 2000.0}]
        self.assertEqual(M.goodput(rungs), (0.0, None))

    def test_windowed_rate(self):
        # 0.3 s in 0.1 s windows: 5, 1 (a stall) and 4 completions -> median 4.
        done = [1e7, 2e7, 3e7, 4e7, 5e7, 1.5e8, 2.1e8, 2.2e8, 2.3e8, 2.4e8]
        self.assertAlmostEqual(M.windowed_rate([(done, 0.3)]), 40.0)
        # Completions in the drain after the phase, or before it, are ignored.
        self.assertAlmostEqual(M.windowed_rate([(done + [3.5e8, -1], 0.3)]), 40.0)
        with self.assertRaises(ValueError):
            M.windowed_rate([(done, 0.05)])
        with self.assertRaises(ValueError):
            M.windowed_rate([])

    def test_windowed_rate_pools_phases(self):
        # Windows 5, 1, 4 and then 2, 3: the median of all five is 3.
        done = [1e7, 2e7, 3e7, 4e7, 5e7, 1.5e8, 2.1e8, 2.2e8, 2.3e8, 2.4e8]
        more = [1e7, 2e7, 1.1e8, 1.2e8, 1.3e8]
        self.assertAlmostEqual(M.windowed_rate([(done, 0.3), (more, 0.2)]), 30.0)
        # Upper quartile of 1, 2, 3, 4, 5 (nearest rank 4): 4 per window.
        self.assertAlmostEqual(M.windowed_rate([(done, 0.3), (more, 0.2)], q=0.75), 40.0)

    def test_backlog_growth(self):
        self.assertFalse(M.backlog_grows([0, 2, 1, 3, 2, 1, 2, 3]))
        self.assertTrue(M.backlog_grows([0, 5, 10, 20, 40, 60, 120, 250]))
        # Small absolute wobble is not growth.
        self.assertFalse(M.backlog_grows([0, 1, 1, 1, 1, 1, 9, 9]))
        self.assertFalse(M.backlog_grows([3, 4]))


class QuietMedianTest(unittest.TestCase):
    def test_steady_series_gives_its_median(self):
        self.assertEqual(M.quiet_median([5] * 40), 5)

    def test_tracks_quiet_state(self):
        # A quarter of the run quiet (10), the rest contended (20): the plain
        # median reads 20, the quiet median 10.
        v = [10] * 25 + [20] * 75
        self.assertEqual(M.percentile(v, 0.5), 20)
        self.assertEqual(M.quiet_median(v), 10)

    def test_windows_in_time_order(self):
        # Window medians of 1..100 in 20 windows are 3, 8, ..., 98; the
        # lower quartile (rank 5) is 23.
        self.assertEqual(M.quiet_median(list(range(1, 101))), 23)
        self.assertEqual(M.quiet_median(list(range(100, 0, -1))), 23)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            M.quiet_median([1] * 19)


class SelfTimeTest(unittest.TestCase):
    def test_children_subtracted(self):
        # root [0,100) with children [10,30) and [40,70): self 50.
        t0 = [0, 10, 40]
        t1 = [100, 30, 70]
        parent = [-1, 0, 0]
        self.assertEqual(M.self_times(t0, t1, parent), [50, 20, 30])

    def test_overlapping_children_counted_once(self):
        t0 = [0, 10, 20]
        t1 = [100, 50, 60]  # children overlap on [20,50)
        self.assertEqual(M.self_times(t0, t1, [-1, 0, 0])[0], 50)

    def test_children_clipped_to_parent(self):
        t0 = [10, 0, 90]
        t1 = [100, 30, 120]
        self.assertEqual(M.self_times(t0, t1, [-1, 0, 0])[0], 60)

    def test_nested_levels(self):
        # root [0,100) > mid [10,90) > leaf [20,40)
        t0 = [0, 10, 20]
        t1 = [100, 90, 40]
        self.assertEqual(M.self_times(t0, t1, [-1, 0, 1]), [20, 60, 20])

    def test_layer_totals(self):
        names = ["bench.block", "stream.stft", "stream.conv"]
        totals = M.layer_self_time(names, [0, 1, 2, 0, 1, 2], [0, 0, 5, 10, 10, 12],
                                   [8, 5, 8, 15, 12, 15], [-1, 0, 0, -1, 3, 3])
        self.assertEqual(totals, {"bench": 0, "stream": 13})


class RateTest(unittest.TestCase):
    def test_mflops(self):
        # 5 * 2^20 * 20 flops in 0.05 s.
        self.assertAlmostEqual(M.mflops(1 << 20, 0.05), 5 * (1 << 20) * 20 / 0.05 / 1e6)


if __name__ == "__main__":
    unittest.main()
