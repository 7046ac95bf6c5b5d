"""Self-tests of the benchmark's own arithmetic: percentiles, sample counts,
interval coverage, self times, span attribution and host-speed scaling.

Run from the checkout root: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import random
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracing  # noqa: E402
from run import _overhead  # noqa: E402
from stats import (  # noqa: E402
    covered_length,
    percentile,
    samples_beyond,
    self_times,
)


class PercentileTest(unittest.TestCase):
    def test_linear_interpolation(self):
        self.assertEqual(percentile([4, 1, 3, 2], 0.5), 2.5)
        self.assertAlmostEqual(percentile([1, 2, 3, 4], 0.9), 3.7)
        self.assertEqual(percentile([7.0], 0.9), 7.0)
        self.assertEqual(percentile([1, 2, 3], 0.0), 1)
        self.assertEqual(percentile([1, 2, 3], 1.0), 3)

    def test_median_agrees_with_statistics(self):
        rng = random.Random(3)
        for n in (1, 2, 5, 10, 101):
            values = [rng.random() for _ in range(n)]
            self.assertAlmostEqual(percentile(values, 0.5), statistics.median(values))

    def test_rejects_empty_and_out_of_range(self):
        with self.assertRaises(ValueError):
            percentile([], 0.5)
        with self.assertRaises(ValueError):
            percentile([1.0], 1.5)

    def test_samples_beyond(self):
        self.assertEqual(samples_beyond(100, 0.9), 10)
        self.assertEqual(samples_beyond(101, 0.9), 10)
        self.assertEqual(samples_beyond(17, 0.9), 2)
        self.assertEqual(samples_beyond(21, 0.5), 10)


class SelfTimeTest(unittest.TestCase):
    def test_covered_length(self):
        self.assertEqual(covered_length([], 0, 10), 0.0)
        self.assertEqual(covered_length([(1, 3), (2, 5), (7, 8)], 0, 10), 5.0)
        self.assertEqual(covered_length([(1, 9), (2, 3)], 0, 10), 8.0)
        self.assertEqual(covered_length([(-5, 2), (8, 20)], 0, 10), 4.0)
        self.assertEqual(covered_length([(11, 12)], 0, 10), 0.0)

    def test_self_times_of_a_tree(self):
        spans = [
            (1, 0.0, 10.0, None),  # root
            (2, 1.0, 4.0, 1),
            (3, 2.0, 3.0, 2),      # grandchild
            (4, 5.0, 9.0, 1),
        ]
        own = self_times(spans)
        self.assertEqual(own, [3.0, 2.0, 1.0, 4.0])
        self.assertEqual(sum(own), 10.0)  # self times add up to the root's wall

    def test_overlapping_children_counted_once(self):
        own = self_times([(1, 0.0, 10.0, None), (2, 1.0, 5.0, 1), (3, 3.0, 6.0, 1)])
        self.assertEqual(own[0], 5.0)


class Layer:
    """Stand-in for a program layer: methods and a classmethod."""

    def leaf(self, x):
        return x * 2

    def method(self, x):
        return self.leaf(x) + self.leaf(x)

    @classmethod
    def build(cls, x):
        return cls().method(x)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.original = dict(vars(Layer))
        self.tracer = tracing.Tracer()
        self.tracer.patch(Layer, "leaf", "leaf", count=lambda args, result: result)
        self.tracer.patch(Layer, "method", "method")
        self.tracer.patch(Layer, "build", "build")

    def tearDown(self):
        self.tracer.uninstall()

    def test_spans_nest_and_restore(self):
        result = self.tracer.run_root("compute-0", Layer.build, 3)
        self.assertEqual(result, 12)
        names = [r[tracing.NAME] for r in self.tracer.spans]
        self.assertEqual(sorted(names), ["build", "job", "leaf", "leaf", "method"])
        by_id = {r[tracing.SID]: r for r in self.tracer.spans}
        for record in self.tracer.spans:
            self.assertEqual(record[tracing.JOB], "compute-0")
            parent = record[tracing.PARENT]
            if parent is not None:
                self.assertLessEqual(by_id[parent][tracing.START], record[tracing.START])
                self.assertGreaterEqual(by_id[parent][tracing.END], record[tracing.END])
        self.tracer.uninstall()
        for attr in ("leaf", "method", "build"):
            self.assertIs(vars(Layer)[attr], self.original[attr])

    def test_summarize_balances_every_job(self):
        for i in range(3):
            self.tracer.run_root(f"compute-{i}", Layer.build, i)
        self.tracer.run_root("warm-0", Layer().leaf, 5)
        _, balance, by_class = tracing.summarize(self.tracer.spans, [])
        self.assertEqual(set(balance), {"compute-0", "compute-1", "compute-2", "warm-0"})
        for wall, total in balance.values():
            self.assertAlmostEqual(wall, total, places=9)
        self.assertEqual(by_class["compute"][0], 3)
        self.assertEqual(by_class["warm"][0], 1)

    def test_dump_and_load_round_trip(self):
        self.tracer.run_root("compute-0", Layer.build, 3)
        self.tracer.sims.append([1.0, "compute-0", 10, 1, 2, 3, 4, 5])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.jsonl"
            self.tracer.dump(str(path))
            spans, sims = tracing.load(path)
        self.assertEqual(spans, self.tracer.spans)
        self.assertEqual(sims, self.tracer.sims)

    def test_work_counts(self):
        self.tracer.run_root("compute-0", Layer.build, 3)
        calls = [r[tracing.N] for r in self.tracer.spans if r[tracing.NAME] == "leaf"]
        self.assertEqual(calls, [6, 6])


class AttributionTest(unittest.TestCase):
    def test_spans_join_the_window_they_fall_in(self):
        S = tracing
        spans = [
            [1, "runner", 1.0, 2.0, None, None, 0],
            [2, "routing", 1.2, 1.5, 1, None, 0],
            [3, "runner", 5.0, 6.0, None, None, 0],   # outside every window
            [4, "spec.from_dict", 7.1, 7.2, None, None, 0],
        ]
        sims = [[1.9, None, 10, 0, 0, 0, 0, 0], [5.5, None, 3, 0, 0, 0, 0, 0]]
        windows = [("compute-0", -1, 0.5, 3.0), ("warm-1", -2, 7.0, 8.0)]
        S.attribute_by_time(spans, sims, windows)
        self.assertEqual([r[S.JOB] for r in spans], ["compute-0", "compute-0", None, "warm-1"])
        self.assertEqual([r[S.PARENT] for r in spans], [-1, 1, None, -2])
        self.assertEqual([s[1] for s in sims], ["compute-0", None])


class HostScalingTest(unittest.TestCase):
    N = calibrate.NOMINAL_S

    def test_bracket_factors_average_both_blocks(self):
        blocks = [[self.N, 3 * self.N], [2 * self.N], [4 * self.N, 6 * self.N]]
        factors = calibrate.bracket_factors(blocks)
        self.assertEqual(len(factors), 2)
        self.assertAlmostEqual(factors[0], 2.0)   # mean(1, 3, 2)
        self.assertAlmostEqual(factors[1], 4.0)   # mean(2, 4, 6)

    def test_at_nominal_divides_by_the_interval_factor(self):
        blocks = [[self.N], [self.N], [3 * self.N], [3 * self.N]]
        # factors: 1, 2, 3
        scaled = calibrate.at_nominal([(0, 1.0), (1, 1.0), (2, 1.5), (1, 4.0)], blocks)
        for got, want in zip(scaled, [1.0, 0.5, 0.5, 2.0]):
            self.assertAlmostEqual(got, want)

    def test_a_uniformly_slow_host_cancels(self):
        times = [(i, 0.2 + 0.01 * i) for i in range(5)]
        at_speed = calibrate.at_nominal(times, [[self.N]] * 6)
        slow = calibrate.at_nominal([(i, 1.5 * t) for i, t in times], [[1.5 * self.N]] * 6)
        for a, b in zip(at_speed, slow):
            self.assertAlmostEqual(a, b)

    def test_overhead_compares_rates_at_nominal_speed(self):
        # Traced jobs take 10% longer on a host running 2x slower: the
        # overhead is the 10%, not the host.
        untraced = (8, [(0, 1.0), (1, 1.0)], [[self.N]] * 3)
        traced = (8, [(0, 2.2), (1, 2.2)], [[2 * self.N]] * 3)
        self.assertAlmostEqual(_overhead(untraced, traced), 0.1)

    def test_kernel_is_deterministic(self):
        self.assertEqual(calibrate.kernel(), calibrate.kernel())
        self.assertEqual(len(calibrate.samples(2)), 2)


if __name__ == "__main__":
    unittest.main()
