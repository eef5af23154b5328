"""Self-tests of the benchmark's oracles, span statistics and tail rule.

Run from the repository root:

    python3 perfbench/selftest.py

They need numpy only, not bellkit, except where a test says otherwise.
"""
from __future__ import annotations

import json
import math
import threading
import unittest
from pathlib import Path

import numpy as np

import oracles
import tracing

HERE = Path(__file__).resolve().parent


def enum_lines(n_sites: int, count: int) -> list[bytes]:
    rows = oracles.members(n_sites, np.arange(count))
    return [json.dumps({"schema_version": 1, "command": "enum", "payload": {
        "n": n_sites, "c": code, "coeffs": [int(x) for x in row],
        "bound": abs(int(row.sum())), "terms": int(np.count_nonzero(row))}}).encode()
        for code, row in enumerate(rows)]


def synthetic(spans) -> tracing.Tracer:
    """A tracer holding (name, start, end, parent, thread) spans as given."""
    tracer = tracing.Tracer()
    for name, start, end, parent, thread in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.thread.append(thread)
        tracer.request.append(0)
        tracer.items.append(0)
    return tracer


class Oracles(unittest.TestCase):
    def test_enum_record_with_one_flipped_coefficient_fails(self):
        lines = enum_lines(3, 256)
        self.assertEqual(oracles.check_enum_records(3, lines), [])
        record = json.loads(lines[77])
        record["payload"]["coeffs"][5] = -record["payload"]["coeffs"][5] or 2
        lines[77] = json.dumps(record).encode()
        problems = oracles.check_enum_records(3, lines)
        self.assertEqual(problems, ["code 77: coefficients differ"])

    def test_sylvester_squares_to_scaled_identity(self):
        h = oracles.sylvester(4)
        self.assertTrue(np.array_equal(h @ h, 16 * np.eye(16, dtype=np.int64)))

    def test_stored_text_digest_matches_independent_rendering(self):
        expected = json.loads((HERE / "expected.json").read_text())
        text = oracles.standard_traditional_text(4)
        self.assertEqual(oracles.text_digest(text),
                         expected["enum --n 4 --standard-form --format traditional"])
        self.assertTrue(text.startswith("|E(1,1,1,1)| ≤ 1\n".encode()))

    def test_census_identities(self):
        size, length = 1000, 32
        prob = math.comb(32, 16) / 2 ** 32
        zeros = [round(size * prob)] * length
        hist = [0] * (length + 1)
        hist[length] = size - sum(zeros) // 16
        hist[16] = sum(zeros) // 16
        payload = {"n": 5, "mode": "sample", "total": size, "seed": 9,
                   "histogram": hist, "full_term": hist[length], "zero_counts": zeros}
        line = json.dumps({"command": "classify", "payload": payload})
        self.assertEqual(oracles.check_census_sample([line], 5, size, 9), [])
        zeros[3] += 1
        line = json.dumps({"command": "classify", "payload": payload})
        self.assertEqual(len(oracles.check_census_sample([line], 5, size, 9)), 1)

    def test_max_lhv_must_be_two_to_the_n(self):
        self.assertEqual(oracles.check_max_lhv([16, 16], 4), [])
        self.assertEqual(len(oracles.check_max_lhv([16, 14], 4)), 1)


class SpanStatistics(unittest.TestCase):
    def test_self_time_with_overlapping_children_on_two_threads(self):
        main, pool_a, pool_b = 1, 2, 3
        tracer = synthetic([
            ("request", 0.0, 10.0, -1, main),
            ("child", 1.0, 3.0, 0, main),      # nested on the same thread
            ("kernel", 2.0, 6.0, 0, pool_a),   # overlaps the child
            ("kernel", 5.0, 12.0, 0, pool_b),  # overlaps the other kernel, outlasts
        ])
        dur, self_s, wait = tracing.span_times(tracer)
        # children cover [1, 10] of the request: 9 s, 2 s of it on its own thread
        self.assertAlmostEqual(self_s[0], 1.0)
        self.assertAlmostEqual(wait[0], 7.0)
        self.assertEqual(list(self_s[1:]), [2.0, 4.0, 7.0])
        on_main = np.array([True, True, False, False])
        self.assertAlmostEqual((self_s + wait)[on_main].sum(), dur[0])

    def test_pool_spans_are_children_of_the_submitting_span(self):
        tracer = tracing.Tracer()
        outer = tracer.open(tracer.name_id("outer"))
        parent = tracer.current()
        inner_ids = []

        def task():
            idx = tracer.open(tracer.name_id("task"))
            inner_ids.append(idx)
            tracer.close(idx)

        threads = [threading.Thread(target=tracer.adopted, args=(parent, task))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            self.assertFalse(t.is_alive())
        tracer.close(outer)
        self.assertEqual([tracer.parent[i] for i in inner_ids], [outer, outer])
        self.assertEqual(tracer.current(), -1)

    def test_union_length(self):
        self.assertEqual(tracing.union_length([0, 1, 5], [2, 3, 6]), 4.0)
        self.assertEqual(tracing.union_length([], []), 0.0)


class TailRule(unittest.TestCase):
    def test_reports_percentile_and_sample_count(self):
        # 1000 samples: p99 leaves exactly 10 beyond it, p99.9 only 1
        self.assertEqual(tracing.tail(range(1, 1001)), (99.0, 990.0, 1000))
        self.assertEqual(tracing.tail(range(1, 100_001)), (99.99, 99_990.0, 100_000))

    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(tracing.tail(range(19)))
        self.assertEqual(tracing.tail(range(1, 21)), (50.0, 10.0, 20))


if __name__ == "__main__":
    unittest.main()
