"""Tests of the benchmark's own summary statistics.

    python3 -m pytest perfbench/test_summary.py
    python3 perfbench/test_summary.py
"""

import json
import math
import os
import random
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import summary  # noqa: E402


def _fail():
    raise RuntimeError("op broke")


class TailTest(unittest.TestCase):
    def test_never_below_median(self):
        rng = random.Random(0)
        for n in range(summary.MIN_TAIL_SAMPLES, 400, 7):
            for dist in (rng.random, lambda: rng.lognormvariate(0, 2),
                         lambda: 5.0, lambda: rng.choice([1.0, 2.0, math.inf])):
                xs = [dist() for _ in range(n)]
                t = summary.tail(xs)
                self.assertGreaterEqual(t["value"], statistics.median(xs))
                self.assertEqual(t["samples"], n)

    def test_ten_samples_beyond(self):
        xs = list(range(100))
        t = summary.tail(xs)
        self.assertEqual(sum(x > t["value"] for x in xs), summary.TAIL_BEYOND)
        self.assertEqual(t["percentile"], 90.0)

    def test_omitted_under_forty_samples(self):
        self.assertIsNone(summary.tail([1.0] * (summary.MIN_TAIL_SAMPLES - 1)))
        t = summary.tail([1.0] * summary.MIN_TAIL_SAMPLES)
        self.assertEqual(t["percentile"], 75.0)


class OpLogTest(unittest.TestCase):
    def test_failed_check_counts_as_failed_not_dropped(self):
        log = summary.OpLog()
        self.assertEqual(log.run(lambda: 1, lambda out: []), 1)
        self.assertIsNone(log.run(lambda: 2, lambda out: ["wrong output"]))
        self.assertIsNone(log.run(_fail, lambda out: []))
        self.assertEqual((log.attempted, log.failed), (3, 2))
        self.assertEqual(log.latencies[1:], [math.inf, math.inf])
        self.assertIn("wrong output", log.failures[0])
        self.assertIn("op broke", log.failures[1])

    def test_failures_only_raise_latency_and_lower_throughput(self):
        ok, bad = summary.OpLog(), summary.OpLog()
        ok.latencies = [0.1] * 9
        bad.latencies = [0.1] * 5 + [math.inf] * 4
        bad.failures = ["wrong output"] * 4
        m_ok = summary.end_to_end(ok, 1.0, 2.0, 3.0)
        m_bad = summary.end_to_end(bad, 1.0, 2.0, 3.0)
        self.assertGreaterEqual(m_bad["latency_p50_ms"][0], m_ok["latency_p50_ms"][0])
        self.assertEqual((m_ok["ops_per_s"][0], m_bad["ops_per_s"][0]), (9.0, 5.0))


class ResultLineTest(unittest.TestCase):
    def test_counts_and_metrics_printed(self):
        log = summary.OpLog()
        log.run(lambda: None, lambda out: [])
        log.run(lambda: None, lambda out: ["bad"])
        metrics = summary.end_to_end(log, 2.0, 0.5, 100.0)
        doc = json.loads(summary.result_line(False, log.attempted, log.failed, metrics))
        self.assertEqual(set(doc), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual((doc["attempted"], doc["failed"]), (2, 1))
        self.assertEqual(set(doc["metrics"]),
                         {"setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb"})
        for v in doc["metrics"].values():
            self.assertEqual(set(v), {"value", "unit"})

    def test_non_finite_value_is_null(self):
        doc = json.loads(summary.result_line(True, 1, 0, {"x": (math.inf, "ms")}))
        self.assertIsNone(doc["metrics"]["x"]["value"])


if __name__ == "__main__":
    unittest.main()
