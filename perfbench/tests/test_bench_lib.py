"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

import collections
import os
import random
import sys
import unittest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir))
import bench_lib as lib  # noqa: E402

COMPANIES = ["C%04d" % i for i in range(2452)]
SMALL = list(range(2, 25))
GIANT = [0, 1]


class RequestListTest(unittest.TestCase):
    def build(self, seed, length=300):
        return lib.build_request_list(seed, COMPANIES, SMALL, GIANT, length)

    def test_same_seed_same_list(self):
        self.assertEqual(self.build(7), self.build(7))

    def test_different_seeds_different_lists(self):
        lists = {tuple(self.build(seed)) for seed in range(1, 6)}
        self.assertEqual(len(lists), 5)

    def test_class_counts_follow_the_mix(self):
        counts = collections.Counter(cls for cls, _ in self.build(3, 1000))
        for cls, share in lib.READ_MIX:
            self.assertEqual(counts[cls], round(share * 1000), cls)

    def test_lines_name_inputs_only(self):
        for cls, line in self.build(4):
            if cls == "bigrescore":
                self.assertIn(int(line.split("=")[1]), GIANT)
            elif cls == "rescore":
                self.assertIn(int(line.split("=")[1]), SMALL)
            elif cls == "lookup":
                self.assertIn(line.split("=")[1], COMPANIES)
            else:
                self.assertEqual(line, "groups")

    def test_default_mix_passes_the_guard(self):
        self.assertEqual(lib.class_share_violations(dict(lib.READ_MIX)), [])


class ZipfTest(unittest.TestCase):
    def test_rank_frequencies_follow_one_over_rank(self):
        n, draws = 100, 200000
        sampler = lib.ZipfSampler(n, 1.0, random.Random(11))
        counts = collections.Counter(sampler.sample() for _ in range(draws))
        harmonic = sum(1.0 / (r + 1) for r in range(n))
        for rank in (0, 1, 4, 9):
            expected = draws / ((rank + 1) * harmonic)
            self.assertAlmostEqual(counts[rank] / expected, 1.0, delta=0.05)
        self.assertTrue(all(0 <= r < n for r in counts))

    def test_seeded(self):
        a = lib.ZipfSampler(50, 1.0, random.Random(5))
        b = lib.ZipfSampler(50, 1.0, random.Random(5))
        self.assertEqual([a.sample() for _ in range(100)],
                         [b.sample() for _ in range(100)])

    def test_single_rank(self):
        sampler = lib.ZipfSampler(1, 1.0, random.Random(1))
        self.assertEqual({sampler.sample() for _ in range(20)}, {0})


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(lib.percentile(values, 0.5), 50)
        self.assertEqual(lib.percentile(values, 0.99), 99)
        self.assertEqual(lib.percentile(values, 1.0), 100)

    def test_failures_sort_last(self):
        values = [1.0] * 98 + [float("inf")] * 2
        self.assertEqual(lib.percentile(values, 0.99), float("inf"))

    def test_ten_beyond_rule(self):
        # p99 of n samples has n - ceil(0.99 n) beyond it.
        self.assertIsNone(lib.tail_percentile(list(range(999)), 0.99))
        self.assertEqual(lib.beyond(999, 0.99), 9)
        self.assertEqual(lib.beyond(1000, 0.99), 10)
        self.assertEqual(lib.tail_percentile(list(range(1000)), 0.99), 989)
        self.assertEqual(lib.tail_percentile(list(range(21)), 0.5), 10)
        self.assertEqual(lib.tail_percentile(list(range(20)), 0.5), 9)
        self.assertIsNone(lib.tail_percentile(list(range(19)), 0.5))


class ClassShareGuardTest(unittest.TestCase):
    def test_tail_class_near_one_percent_is_refused(self):
        shares = {"rescore": 0.3, "lookup": 0.69, "groups": 0.01}
        self.assertEqual(lib.class_share_violations(shares), [(0.99, 0.99)])

    def test_half_percent_tail_class_is_refused(self):
        # The first attempt's mix: giant rescores at 0.5% put p99 between
        # the ~30 ms and ~100 ms modes.
        shares = {"lookup": 0.995, "bigrescore": 0.005}
        self.assertTrue(lib.class_share_violations(shares))

    def test_median_between_modes_is_refused(self):
        shares = {"rescore": 0.48, "lookup": 0.49, "groups": 0.03}
        self.assertEqual(lib.class_share_violations(shares), [(0.5, 0.48)])

    def test_few_percent_or_none_passes(self):
        self.assertEqual(lib.class_share_violations(
            {"rescore": 0.3, "lookup": 0.64, "groups": 0.06}), [])
        self.assertEqual(lib.class_share_violations(
            {"rescore": 0.3, "lookup": 0.7}), [])

    def test_churn_cold_pull_near_one_percent_is_refused(self):
        # A reload every 100 reads makes the cold `groups` pulls 0.98% of
        # requests, so p99 falls between them and the cold lookups.
        shares = lib.churn_shares(dict(lib.READ_MIX), 100)
        self.assertEqual([q for q, _ in lib.class_share_violations(shares)],
                         [0.99])

    def test_churn_reload_rate_passes(self):
        shares = lib.churn_shares(dict(lib.READ_MIX), lib.RELOAD_EVERY)
        self.assertAlmostEqual(sum(shares.values()), 1.0)
        self.assertGreaterEqual(shares["coldgroups"], 0.025)
        self.assertEqual(lib.class_share_violations(shares), [])

    def test_unranked_class_is_an_error(self):
        with self.assertRaises(ValueError):
            lib.class_share_violations({"lookup": 0.9, "mystery": 0.1})


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 40), 2: (0, 50, 90),
                 3: (1, 15, 20)}
        selfs = lib.self_times(spans)
        self.assertEqual(selfs, {0: 30, 1: 25, 2: 40, 3: 5})

    def test_overlapping_children_counted_once(self):
        spans = {0: (-1, 0, 100), 1: (0, 10, 60), 2: (0, 40, 80)}
        self.assertEqual(lib.self_times(spans)[0], 30)


if __name__ == "__main__":
    unittest.main()
