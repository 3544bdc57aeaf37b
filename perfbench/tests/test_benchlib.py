"""Tests for the benchmark's own helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.dont_write_bytecode = True

import benchlib  # noqa: E402


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        cases = {0: 50, 19: 50, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90,
                 199: 90, 200: 95, 999: 95, 1000: 99, 10**6: 99}
        for n, p in cases.items():
            with self.subTest(n=n):
                self.assertEqual(benchlib.tail_percentile(n), p)

    def test_summary_records_count_and_percentile(self):
        s = benchlib.timing_summary([float(v) for v in range(1, 101)])
        self.assertEqual(s["samples"], 100)
        self.assertEqual(s["tail_percentile"], 90)
        self.assertAlmostEqual(s["p50"], 50.5)
        self.assertAlmostEqual(s["tail"], 90.1)

    def test_histogram_matches_expanded_samples(self):
        hist = [[3, 2], [1, 4], [7, 1], [5, 0]]
        samples = [3, 3, 1, 1, 1, 1, 7]
        for p in (0, 25, 50, 75, 90, 100):
            with self.subTest(p=p):
                self.assertAlmostEqual(
                    benchlib.histogram_percentile(hist, p),
                    benchlib.percentile(samples, p))


class QuietStretch(unittest.TestCase):
    def test_blocks_are_consecutive_and_drop_a_short_remainder(self):
        self.assertEqual(benchlib.blocks(list(range(7)), count=3),
                         [[0, 1], [2, 3], [4, 5]])
        self.assertEqual(benchlib.blocks([1, 2], count=200), [[1], [2]])

    def test_a_fast_phase_decides_the_median(self):
        # A slow host phase fills 80% of the run, a fast one the rest.
        values = [2.0] * 3200 + [1.0] * 800
        self.assertEqual(benchlib.quiet_median(values), 1.0)
        work = [(300.0, 2.0)] * 3200 + [(300.0, 1.0)] * 800
        self.assertEqual(benchlib.quiet_rate(work), 300.0)

    def test_blocks_take_the_median_of_neighbours_not_the_fastest_samples(
            self):
        # Fast and slow samples alternate: every block of 2 has median 1.5.
        self.assertEqual(benchlib.quiet_median([1.0, 2.0] * 200), 1.5)

    def test_no_samples_read_zero(self):
        self.assertEqual(benchlib.quiet_median([]), 0.0)
        self.assertEqual(benchlib.quiet_rate([(5.0, 0.0)]), 0.0)


def span(sid, parent, start, end, name="s", **attrs):
    return {"id": sid, "parent": parent, "name": name, "update": -1,
            "start_ns": start, "end_ns": end, "attrs": attrs}


class SelfTime(unittest.TestCase):
    def test_children_covered_once_and_clipped_to_parent(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30),
                 span(2, 0, 20, 50), span(3, 0, 90, 120),
                 span(4, 1, 12, 14)]
        selfs = benchlib.self_times(spans)
        self.assertEqual(selfs[0], 100 - 40 - 10)
        self.assertEqual(selfs[1], 20 - 2)
        self.assertEqual(selfs[2], 30)
        self.assertEqual(selfs[4], 2)

    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(benchlib.self_times([span(7, -1, 5, 9)]), {7: 4})


def raw_run(spans=()):
    updates = [{"label": f"u{i}", "status": "applied", "certified": True,
                "apply_ms": 2.0 + i, "pause_ms": 1.0 + i, "drive_ticks": 0}
               for i in range(20)]
    updates.append({"label": "late", "status": "timed-out",
                    "certified": False, "apply_ms": 99.0, "pause_ms": 0.0,
                    "drive_ticks": 0})
    return {"updates": updates, "updates_attempted": 21,
            "updates_applied": 20, "work": [[500.0, 2.0], [300.0, 1.0], [90.0, 1.0]],
            "setup_s": [0.3, 0.1, 0.2], "peak_rss_kib": 2048,
            "latency_ticks": [[10, 3], [20, 1]], "spans": list(spans)}


class Metrics(unittest.TestCase):
    def test_end_to_end_uses_applied_updates_only(self):
        values, details = benchlib.end_to_end(raw_run())
        # 20 samples make 20 blocks of one: the 5th percentile of 1..20.
        self.assertAlmostEqual(values["pause_p50_quiet_ms"], 1.95)
        self.assertAlmostEqual(values["apply_p50_quiet_ms"], 2.95)
        self.assertEqual(details["apply"]["samples"], 20)
        self.assertAlmostEqual(details["apply"]["p50"], 11.5)
        # Rates 250, 300 and 90: the 95th percentile.
        self.assertAlmostEqual(values["ops_per_s_quiet"], 295.0)
        self.assertAlmostEqual(values["update_success_ratio"], 20 / 21)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(set(values), set(benchlib.END_TO_END))

    def test_per_layer_untiled_pause_and_unused_layers(self):
        apply = span(1, 0, 0, 5_000_000, "dsu.apply", applied=1,
                     pause_ms=4.0, classload_ms=0.5, gc_ms=1.0,
                     transform_ms=1.0, certify_ms=1.0, heap_objects=1000,
                     gc_objects_copied=500, objects_transformed=100)
        values = benchlib.per_layer(raw_run(
            [span(0, -1, 0, 10_000_000, "measure"), apply]))
        self.assertAlmostEqual(values["dsu.pause_untiled_ms"], 0.5)
        self.assertAlmostEqual(values["dsu.apply_outside_pause_ms"], 1.0)
        self.assertAlmostEqual(values["heap.certify_ns_per_object"], 1000.0)
        self.assertAlmostEqual(values["heap.dsu_gc_ns_per_object"], 2000.0)
        self.assertAlmostEqual(values["dsu.transform_ns_per_object"],
                               10000.0)
        self.assertAlmostEqual(values["bench.untraced_share"], 0.5)
        self.assertEqual(values["vm.ns_per_instruction"], 0.0)
        self.assertEqual(values["vm.serve_latency_p50_ticks"], 10.0)
        self.assertEqual(set(values), set(benchlib.PER_LAYER))

    def test_result_line_json_round_trip(self):
        values, _ = benchlib.end_to_end(raw_run())
        line = benchlib.result_line(True, 21, 0, values,
                                    benchlib.END_TO_END)
        parsed = json.loads(benchlib.dumps_line(line))
        self.assertEqual(parsed, line)
        self.assertEqual(list(parsed), ["correct", "attempted", "failed",
                                        "metrics"])
        for name, (unit, _) in benchlib.END_TO_END.items():
            self.assertEqual(parsed["metrics"][name],
                             {"value": values[name], "unit": unit})


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_units_and_directions_match(self):
        spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
        for key, table in (("end_to_end", benchlib.END_TO_END),
                           ("per_layer", benchlib.PER_LAYER)):
            with self.subTest(key=key):
                self.assertEqual(
                    {m["name"]: (m["unit"], m["better"]) for m in spec[key]},
                    table)


if __name__ == "__main__":
    unittest.main()
