"""Tests of the benchmark's arithmetic. Run with
    python3 perfbench/test_perfstats.py
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(perfstats.percentile([1.0, 2.0, 3.0, 4.0], 50), 2.5)
        self.assertEqual(perfstats.percentile([5.0], 99), 5.0)
        self.assertEqual(perfstats.percentile(list(range(101)), 99), 99.0)

    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(perfstats.supported_percentile(1000), 99.0)
        # 999 samples leave 9.99 beyond p99, so p98 is the highest.
        self.assertEqual(perfstats.supported_percentile(999), 98.0)
        self.assertEqual(perfstats.supported_percentile(100), 90.0)
        self.assertEqual(perfstats.supported_percentile(20), 50.0)
        self.assertIsNone(perfstats.supported_percentile(19))

    def test_ceiling_caps_the_tail(self):
        self.assertEqual(perfstats.supported_percentile(100000), 99.0)
        self.assertEqual(perfstats.supported_percentile(100000, 99.9), 99.9)

    def test_tail_reports_percentile_value_and_n(self):
        values = [float(i) for i in range(200)]
        p, value, n = perfstats.tail(values)
        self.assertEqual((p, n), (95.0, 200))
        self.assertAlmostEqual(value, perfstats.percentile(values, 95.0))
        # Too few samples for any percentile: the maximum, labelled p100.
        self.assertEqual(perfstats.tail([3.0, 1.0, 2.0]), (100.0, 3.0, 3))


class OpenLoopAccounting(unittest.TestCase):
    def test_latency_counts_from_due_not_from_start(self):
        # Batch 0 stalls the only replica; batch 1 was due at t=1.0 but
        # started at 5.0, so its query waited 4 s before service.
        q_arrival = [0.0, 1.0]
        q_batch = [0, 1]
        end = [5.0, 5.5]
        status = [1, 1]
        lat = perfstats.query_latencies(q_arrival, q_batch, end, status)
        self.assertEqual(lat, [5.0, 4.5])
        # A start stamp of 0 marks a batch no replica started.
        self.assertEqual(perfstats.queue_waits([10.0, 11.0, 12.0],
                                               [10.0, 15.0, 0.0]),
                         [0.0, 4.0])

    def test_queries_of_failed_or_unstarted_batches_have_no_latency(self):
        lat = perfstats.query_latencies([0.0, 0.1, 0.2], [0, 1, 2],
                                        [0.5, 0.0, 0.0], [1, 0, -1])
        self.assertEqual(lat, [0.5, None, None])

    def test_generator_lateness_skips_unreleased_batches(self):
        due = [1.0, 2.0, 3.0]
        sent = [1.001, 2.5, 0.0]
        late = perfstats.generator_lateness(due, sent)
        self.assertEqual(len(late), 2)
        self.assertAlmostEqual(late[0], 0.001)
        self.assertAlmostEqual(late[1], 0.5)


class FailureRatio(unittest.TestCase):
    def test_late_and_missing_queries_fail_the_limit(self):
        ok, late, missing = perfstats.classify_queries(
            [0.01, 0.3, None, 0.25], limit_s=0.25)
        self.assertEqual((ok, late, missing), (2, 1, 1))
        self.assertEqual(perfstats.failure_ratio(4, late + missing), 0.5)

    def test_nothing_attempted_is_a_total_failure(self):
        self.assertEqual(perfstats.failure_ratio(0, 0), 1.0)
        self.assertEqual(perfstats.failure_ratio(10, 0), 0.0)


class LayerCoverage(unittest.TestCase):
    def test_sum_of_self_times_over_wall(self):
        layers = {"a": [1.0, 2.0, 3.0], "b": [1.0, 1.0, 0.5]}
        walls = [2.5, 4.0, 4.0]
        # Per step: 2/2.5 = 0.8, 3/4 = 0.75, 3.5/4 = 0.875 -> median 0.8.
        self.assertAlmostEqual(perfstats.layer_coverage(layers, walls), 0.8)

    def test_steps_without_wall_are_skipped(self):
        self.assertAlmostEqual(
            perfstats.layer_coverage({"a": [1.0, 9.0]}, [2.0, 0.0]), 0.5)
        with self.assertRaises(ValueError):
            perfstats.layer_coverage({"a": [1.0]}, [0.0])

    def test_overhead_against_untraced_median(self):
        self.assertAlmostEqual(
            perfstats.overhead_pct([1.1, 1.1, 1.1], [1.0, 1.0, 1.0]), 10.0)


if __name__ == "__main__":
    unittest.main()
