"""Self-tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import lgstats


def span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "op": 0, "start": start,
            "end": end, "name": name}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(lgstats.tail_percentile(99))
        self.assertEqual(lgstats.tail_percentile(100), 90.0)
        self.assertEqual(lgstats.tail_percentile(999), 90.0)
        self.assertEqual(lgstats.tail_percentile(1000), 99.0)
        self.assertEqual(lgstats.tail_percentile(10000), 99.9)
        self.assertEqual(lgstats.tail_percentile(100000), 99.99)

    def test_ten_samples_really_lie_beyond(self):
        for n in (100, 150, 1000, 2500, 10000):
            xs = list(range(n))
            p = lgstats.tail_percentile(n)
            cut = lgstats.quantile(xs, p / 100.0)
            self.assertGreaterEqual(sum(1 for x in xs if x > cut), 10, n)

    def test_quantile_interpolates(self):
        self.assertEqual(lgstats.quantile([3, 1, 2], 0.5), 2)
        self.assertEqual(lgstats.quantile([0, 10], 0.25), 2.5)
        self.assertEqual(lgstats.quantile([5], 0.9), 5)
        with self.assertRaises(ValueError):
            lgstats.quantile([], 0.5)


class SelfTime(unittest.TestCase):
    def test_disjoint_children(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 3.0),
                 span(3, 1, 5.0, 6.0)]
        st = lgstats.self_times(spans)
        self.assertAlmostEqual(st[1], 7.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 1.0)

    def test_overlapping_children_count_once(self):
        spans = [span(1, 0, 0.0, 10.0), span(2, 1, 1.0, 5.0),
                 span(3, 1, 4.0, 7.0), span(4, 1, 4.5, 6.0)]
        self.assertAlmostEqual(lgstats.self_times(spans)[1], 4.0)

    def test_children_clipped_to_parent(self):
        spans = [span(1, 0, 2.0, 4.0), span(2, 1, 1.0, 3.0)]
        self.assertAlmostEqual(lgstats.self_times(spans)[1], 1.0)

    def test_grandchildren_charge_their_parent_only(self):
        spans = [span(1, 0, 0.0, 10.0, "root"), span(2, 1, 0.0, 8.0, "a"),
                 span(3, 2, 0.0, 6.0, "b")]
        by, roots = lgstats.self_by_name(spans)
        self.assertEqual(roots, 10.0)
        self.assertAlmostEqual(by["root"][1], 2.0)
        self.assertAlmostEqual(by["a"][1], 2.0)
        self.assertAlmostEqual(by["b"][1], 6.0)
        self.assertAlmostEqual(sum(t for _, t in by.values()), roots)


class FailFrac(unittest.TestCase):
    def test_counts_failed_against_attempted(self):
        units = [{"ok": True}, {"ok": False}, {"ok": True}, {"ok": False}]
        self.assertEqual(lgstats.fail_frac(units), (4, 2, 0.5))

    def test_no_failures(self):
        self.assertEqual(lgstats.fail_frac([{"ok": True}] * 3), (3, 0, 0.0))

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            lgstats.fail_frac([])


if __name__ == "__main__":
    unittest.main()
