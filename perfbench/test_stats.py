"""Self-tests of the benchmark's arithmetic on fixed synthetic inputs.

  python3 perfbench/test_stats.py      (or: python3 perfbench/run.py --self-test)
"""

import unittest

import stats


class TailTest(unittest.TestCase):
    def test_level_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_level(1000), 99.0)  # exactly 10 beyond
        self.assertEqual(stats.tail_level(999), 95.0)   # 9.99 beyond p99
        self.assertEqual(stats.tail_level(200), 95.0)   # exactly 10 beyond
        self.assertEqual(stats.tail_level(199), 90.0)
        self.assertEqual(stats.tail_level(100), 90.0)
        self.assertIsNone(stats.tail_level(99))

    def test_tail_falls_back_to_max(self):
        self.assertEqual(stats.tail([3.0, 1.0, 2.0]), ("max", 3.0))

    def test_nearest_rank(self):
        values = list(range(1, 1001))  # 1..1000
        self.assertEqual(stats.percentile(values, 99.0), 990)
        self.assertEqual(stats.percentile(values, 50.0), 500)
        self.assertEqual(stats.tail(values), ("p99", 990))
        # Exactly ten samples lie beyond the reported p99.
        self.assertEqual(sum(1 for v in values if v > 990), 10)


class FastestTest(unittest.TestCase):
    def test_each_unit_keeps_its_fastest_round(self):
        # Three units, three rounds, round after round.
        values = [5.0, 7.0, 9.0,
                  4.0, 8.0, 9.5,
                  6.0, 7.5, 8.5]
        self.assertEqual(stats.fastest(values, 3), [4.0, 7.0, 8.5])

    def test_a_stalled_round_moves_neither_figure(self):
        calm = [1.0] * 990 + [5.0] * 10
        stalled = [9.0] * 1000
        units = stats.fastest(calm + stalled + calm, 3)
        self.assertEqual((stats.median(units), stats.tail(units)),
                         (1.0, ("p99", 1.0)))
        # Over all timings the stall would set the tail.
        self.assertEqual(stats.tail(calm + stalled + calm), ("p99", 9.0))

    def test_rounds_must_divide_the_timings(self):
        with self.assertRaises(ValueError):
            stats.fastest([1.0, 2.0, 3.0], 2)


class RatioTest(unittest.TestCase):
    def test_cache_hit_ratio_base_is_accepted_plus_hits(self):
        accepted, hits = 80, 20
        self.assertAlmostEqual(stats.ratio(hits, accepted + hits), 0.2)

    def test_iterations_per_node_base_is_nodes(self):
        self.assertAlmostEqual(stats.ratio(444000, 1268), 350.157728707, 6)

    def test_empty_base(self):
        self.assertEqual(stats.ratio(5, 0), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            ("tip.step", -1, 0, 0.0, 100.0),
            ("mip.solve", 0, 0, 10.0, 30.0),
            ("lp.solve", 0, 0, 20.0, 50.0),    # overlaps the previous child
            ("analysis.x", 0, 0, 90.0, 120.0),  # sticks out of the parent
            ("lp.inner", 1, 0, 12.0, 14.0),
        ]
        own = stats.self_times(spans)
        # Covered: [10, 50] and [90, 100] -> 50 of 100.
        self.assertAlmostEqual(own[0], 50.0)
        self.assertAlmostEqual(own[1], 18.0)
        self.assertAlmostEqual(own[2], 30.0)
        self.assertAlmostEqual(own[3], 30.0)
        layers = stats.layer_self_times(spans)
        self.assertAlmostEqual(layers["lp"], 32.0)
        self.assertAlmostEqual(layers["tip"], 50.0)

    def test_no_children(self):
        self.assertEqual(stats.self_times([("a.b", -1, 1, 5.0, 7.5)]), [2.5])


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_due_time(self):
        # Due every 10 ms; a 35 ms stall on the first answer delays the
        # next request's send, and that delay is part of its latency.
        due = [0.0, 10.0, 20.0]
        sent = [0.0, 36.0, 36.5]
        done = [35.0, 40.0, 41.0]
        latency, lag = stats.open_loop(due, sent, done)
        self.assertEqual(latency, [35.0, 30.0, 21.0])
        self.assertEqual(lag, [0.0, 26.0, 16.5])
        # Measured from the send instead, the stall would vanish.
        self.assertLess(done[1] - sent[1], latency[1])


if __name__ == "__main__":
    unittest.main()
