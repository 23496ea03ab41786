#!/usr/bin/env python3
"""Self-test of the run-set comparator: `python3 perfbench/test_compare.py`."""

import os
import random
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402


def synthetic(spec, workloads, runs, seed, scale=None):
    """`runs` results per workload: every metric jitters around 100 by
    at most a fifth of its bound; `scale` multiplies the named metrics."""
    rng = random.Random(seed)
    scale = scale or {}
    out = {}
    for w in workloads:
        out[w] = []
        for _ in range(runs):
            metrics = {
                m["name"]: {"value": 100.0 * (1 + rng.uniform(-0.2, 0.2) * m["bound"]) * scale.get(m["name"], 1.0), "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
            out[w].append({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics})
    return out


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.spec = compare.load_spec()
        self.workloads = [w["name"] for w in self.spec["workloads"]]

    def verdicts(self, rows, metric=None):
        return {(w, n): v for w, n, _, _, _, v in rows if metric in (None, n)}

    def test_matching_medians_pass(self):
        parent = synthetic(self.spec, self.workloads, 10, 1)
        change = synthetic(self.spec, self.workloads, 10, 2)
        rows = compare.compare(self.spec, parent, change)
        self.assertEqual(len(rows), len(self.workloads) * len(self.spec["end_to_end"]))
        self.assertTrue(all(v == "ok" for v in self.verdicts(rows).values()), rows)

    def test_throughput_below_bound_is_flagged(self):
        bound = next(m["bound"] for m in self.spec["end_to_end"] if m["name"] == "throughput_qps")
        parent = synthetic(self.spec, self.workloads, 10, 1)
        change = synthetic(self.spec, self.workloads, 10, 2, {"throughput_qps": 1 - 1.5 * bound})
        rows = compare.compare(self.spec, parent, change)
        for w in self.workloads:
            self.assertEqual(self.verdicts(rows)[(w, "throughput_qps")], "regressed")
        others = [v for (w, n), v in self.verdicts(rows).items() if n != "throughput_qps"]
        self.assertTrue(all(v == "ok" for v in others))

    def test_lower_is_better_direction(self):
        # Throughput up and set-up time down are gains, never regressions.
        parent = synthetic(self.spec, self.workloads, 10, 1)
        change = synthetic(self.spec, self.workloads, 10, 2, {"throughput_qps": 2.0, "setup_s": 0.5})
        self.assertTrue(all(v == "ok" for v in self.verdicts(compare.compare(self.spec, parent, change)).values()))

    def test_wide_parent_spread_is_unresolved(self):
        parent = synthetic(self.spec, self.workloads, 10, 1)
        for i, r in enumerate(parent[self.workloads[0]]):
            r["metrics"]["batch_ms_p50"]["value"] *= 0.5 if i % 2 else 1.5
        change = synthetic(self.spec, self.workloads, 10, 2)
        rows = compare.compare(self.spec, parent, change)
        self.assertEqual(self.verdicts(rows)[(self.workloads[0], "batch_ms_p50")], "unresolved")


if __name__ == "__main__":
    unittest.main()
