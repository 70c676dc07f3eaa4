"""Tests of the benchmark itself: the tail-percentile rule, the rescaling
to the reference host speed, the metric and BENCHMARK.json grammar, and
failure accounting.

  python3 perfbench/run.py --selftest     # also runs bench.cpp's checks
  cd perfbench && python3 -m unittest test_perfbench
"""

import json
import unittest
from pathlib import Path

import metrics

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def untraced_raw(**overrides):
    """An untraced run on a host at the reference speed throughout."""
    g = 0.025
    raw = {
        "gauge_reference_s": g,
        "round_s": [0.1 + 0.001 * i for i in range(30)],
        "round_gauge_s": [g] * 31,
        "setup_s": [1.2, 1.0, 1.1, 0.9, 1.3],
        "setup_gauge_s": [g] * 6,
        "peak_rss_kb": 300 * 1024,
        "attempted": 60000,
        "failed": 0,
        "gap_systems": 1,
        "max_residual_ratio": 12.5,
    }
    raw.update(overrides)
    return raw


class TailPercentile(unittest.TestCase):
    def test_ten_samples_lie_beyond(self):
        for n in (11, 12, 30, 100, 257):
            values = [float(v) for v in range(n, 0, -1)]
            tail, pct = metrics.tail_percentile(values)
            self.assertEqual(sum(v > tail for v in values), 10, n)
            self.assertAlmostEqual(pct, 100.0 * (n - 10) / n)

    def test_hundred_rounds_give_p90(self):
        tail, pct = metrics.tail_percentile(list(range(1, 101)))
        self.assertEqual((tail, pct), (90, 90.0))

    def test_needs_more_than_ten_samples(self):
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(10)))

    def test_is_the_highest_such_percentile(self):
        # One rank higher would leave only nine samples beyond.
        values = list(range(1, 41))
        tail, _ = metrics.tail_percentile(values)
        higher = sorted(values)[values.index(tail) + 1]
        self.assertEqual(sum(v > higher for v in values), 9)


class ReferenceSpeed(unittest.TestCase):
    def metric_values(self, raw):
        res, _ = metrics.result(raw, False, SPEC)
        return {k: m["value"] for k, m in res["metrics"].items()}

    def test_a_slower_host_reads_the_same(self):
        base = untraced_raw()
        slow = {k: ([2 * v for v in base[k]] if isinstance(base[k], list)
                    else base[k]) for k in base}
        ref = self.metric_values(base)
        for name, value in self.metric_values(slow).items():
            self.assertAlmostEqual(value, ref[name], msg=name)

    def test_a_slower_program_shows_in_full(self):
        base = untraced_raw()
        slow = dict(base, round_s=[2 * v for v in base["round_s"]])
        ref = self.metric_values(base)
        got = self.metric_values(slow)
        self.assertAlmostEqual(got["round_s_p50"], 2 * ref["round_s_p50"])
        self.assertAlmostEqual(got["systems_per_s"],
                               ref["systems_per_s"] / 2)

    def test_each_time_uses_the_gauges_on_either_side(self):
        g = 0.025
        got = metrics.at_reference_speed([1.0, 3.0], [g, 3 * g, g], g)
        self.assertAlmostEqual(got[0], 0.5)
        self.assertAlmostEqual(got[1], 1.5)
        with self.assertRaises(ValueError):
            metrics.at_reference_speed([1.0, 3.0], [g, g], g)


class Grammar(unittest.TestCase):
    def test_name_grammar(self):
        for good in ("round_s_p50", "core.ledger.gbps", "blas.lanes8.pack_ns",
                     "9lives", "a-b", "x" * 64):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_lead", ".lead", "has space", "slash/name",
                    "x" * 65, "semi;colon", "new\nline"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_benchmark_json_is_well_formed(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        tables = {**metrics.units(SPEC, "end_to_end"),
                  **metrics.units(SPEC, "per_layer")}
        names = [w["name"] for w in SPEC["workloads"]]
        names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(metrics.valid_name(name), name)
        for unit in tables.values():
            self.assertTrue(metrics.valid_unit(unit), unit)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25, m["name"])
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Failures(unittest.TestCase):
    def test_clean_run_is_correct(self):
        res, details = metrics.result(untraced_raw(), False, SPEC)
        self.assertTrue(res["correct"])
        self.assertEqual(details["failed_frac"], 0.0)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})

    def test_one_corrupted_solution_fails_the_run(self):
        res, details = metrics.result(untraced_raw(failed=1), False, SPEC)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 1)
        self.assertAlmostEqual(details["failed_frac"], 1 / 60000)

    def test_traced_failures_count_every_phase(self):
        raw = {"attempted": 100, "failed": 0, "untraced_attempted": 100,
               "untraced_failed": 2, "telemetry_attempted": 50,
               "telemetry_failed": 1}
        self.assertEqual(metrics.attempts(raw), (250, 3))

    def test_end_to_end_metrics(self):
        res, details = metrics.result(untraced_raw(), False, SPEC)
        m = res["metrics"]
        self.assertEqual(set(m), set(metrics.units(SPEC, "end_to_end")))
        self.assertAlmostEqual(m["systems_per_s"]["value"],
                               60000 / sum(untraced_raw()["round_s"]))
        self.assertAlmostEqual(m["setup_s"]["value"], 1.1)
        self.assertAlmostEqual(m["round_s_tail"]["value"], 0.119)
        self.assertEqual(details["rounds"], 30)

    def test_a_metric_without_a_computation_is_refused(self):
        table = {**metrics.units(SPEC, "end_to_end"), "unknown_s": "s"}
        with self.assertRaises(ValueError):
            metrics.end_to_end(untraced_raw(), table)

    def test_paired_overhead(self):
        self.assertAlmostEqual(
            metrics.paired_overhead([1.1, 2.2, 3.3], [1.0, 2.0, 3.0]), 0.1)
        with self.assertRaises(ValueError):
            metrics.paired_overhead([1.0], [])


if __name__ == "__main__":
    unittest.main()
