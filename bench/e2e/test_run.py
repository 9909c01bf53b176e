"""Unit tests for run.py: statistics, the paired compare rule, self time
from nested spans, and BENCHMARK.json against the names run.py emits.

Run with: python3 -m unittest discover -s bench/e2e
"""

import json
import re
import statistics
import unittest
from pathlib import Path

import run


class StatisticsTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.1, 9.4, 2.2, 7.7, 5.0, 6.3, 1.8, 8.8, 4.4, 5.9]
        q = statistics.quantiles(values, n=4)
        self.assertEqual(run.quartiles(values), (q[0], q[2]))

    def test_known_quartiles_and_iqr(self):
        s = run.summarize([1, 2, 3, 4, 5, 6, 7, 8])
        self.assertAlmostEqual(s["q1"], 2.25)
        self.assertAlmostEqual(s["q3"], 6.75)
        self.assertAlmostEqual(s["median"], 4.5)
        self.assertAlmostEqual(s["iqr"], 4.5)
        self.assertAlmostEqual(s["iqr_share"], 1.0)

    def test_single_value_has_no_spread(self):
        s = run.summarize([5.0])
        self.assertEqual((s["q1"], s["q3"], s["iqr"]), (5.0, 5.0, 0.0))


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.0, 100.2]


class VerdictTest(unittest.TestCase):
    def test_nine_wins_of_ten_is_better(self):
        change = [b - 10 for b in BASE]
        change[3] = BASE[3] + 1  # one loss
        self.assertEqual(run.verdict(BASE, change, "lower", 0.1), "better")

    def test_eight_wins_of_ten_is_not_better(self):
        change = [b - 10 for b in BASE]
        change[3] = BASE[3] + 1
        change[7] = BASE[7] + 1
        self.assertEqual(run.verdict(BASE, change, "lower", 0.1), "same")

    def test_fewer_than_ten_pairs_is_never_better(self):
        base, change = BASE[:1], [BASE[0] - 10]  # one pair, one win
        self.assertEqual(run.verdict(base, change, "lower", 0.1), "same")

    def test_ties_count_for_neither_side(self):
        change = list(BASE)
        change[0] -= 5  # one win, nine ties
        self.assertEqual(run.verdict(BASE, change, "lower", 0.1), "same")

    def test_wins_need_medians_apart_by_more_than_base_iqr(self):
        change = [b - 0.01 for b in BASE]  # ten wins, tiny difference
        self.assertEqual(run.verdict(BASE, change, "lower", 0.1), "same")

    def test_direction_higher(self):
        change = [b + 20 for b in BASE]
        self.assertEqual(run.verdict(BASE, change, "higher", 0.1), "better")
        self.assertEqual(run.verdict(BASE, change, "lower", 0.1), "worse")

    def test_worse_beyond_bound(self):
        change = [b * 1.2 for b in BASE]
        self.assertEqual(run.verdict(BASE, change, "lower", 0.1), "worse")
        self.assertEqual(run.verdict(BASE, change, "lower", 0.25), "same")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
        change = [x * 1.02 for x in noisy]
        self.assertEqual(run.verdict(noisy, change, "lower", 0.1),
                         "unresolved")

    def test_unresolved_unless_every_change_run_beats_every_base_run(self):
        base = [100, 140, 120, 130, 110, 100, 140, 120, 130, 110]
        change = [99, 60, 99, 99, 99, 70, 99, 99, 99, 99]
        self.assertEqual(run.verdict(base, change, "lower", 0.1), "better")


def span(sid, parent, start, end, name="x", op=1):
    return {"id": sid, "op": op, "parent": parent, "name": name,
            "start": start, "end": end}


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [span(1, 0, 0, 100), span(2, 1, 10, 40), span(3, 1, 30, 60),
                 span(4, 2, 15, 20)]
        selfs = run.self_times(spans)
        self.assertEqual(selfs[1], 50)  # children cover [10, 60]
        self.assertEqual(selfs[2], 25)
        self.assertEqual(selfs[3], 30)
        self.assertEqual(selfs[4], 5)

    def test_children_are_clipped_to_the_parent(self):
        selfs = run.self_times([span(1, 0, 0, 10), span(2, 1, 5, 30)])
        self.assertEqual(selfs[1], 5)

    def test_layer_metrics_from_a_traced_read_and_write(self):
        ns = 1000  # 1 us
        spans = [
            span(1, 0, 0, 100 * ns, "read.person_name", op=1),
            span(2, 1, 0, 2 * ns, "txn.read_lock", op=1),
            span(3, 1, 2 * ns, 90 * ns, "xpath.eval", op=1),
            span(4, 3, 2 * ns, 12 * ns, "xpath.compile", op=1),
            span(5, 3, 20 * ns, 90 * ns, "xpath.op.chain_probe", op=1),
            span(6, 1, 90 * ns, 99 * ns, "xpath.materialize", op=1),
            span(7, 0, 0, 50 * ns, "write.bid_append", op=2),
            span(8, 7, 0, 10 * ns, "txn.begin", op=2),
            span(9, 7, 10 * ns, 50 * ns, "txn.commit", op=2),
            span(10, 9, 20 * ns, 50 * ns, "txn.commit_window", op=2),
            span(11, 10, 20 * ns, 35 * ns, "txn.wal_append", op=2),
        ]
        m = run.layer_from_spans(spans)
        self.assertAlmostEqual(m["txn.read_lock_wait_us"], 2)
        self.assertAlmostEqual(m["xpath.compile_us"], 10)
        self.assertAlmostEqual(m["xpath.eval_us"], 8)
        self.assertAlmostEqual(m["xpath.op.chain_probe_us"], 70)
        self.assertAlmostEqual(m["xpath.materialize_us"], 9)
        self.assertAlmostEqual(m["tpl.person_name_p50_us"], 100)
        self.assertAlmostEqual(m["txn.commit_us"], 40)
        self.assertAlmostEqual(m["txn.commit_prewindow_us"], 10)
        self.assertAlmostEqual(m["txn.commit_window_us"], 30)
        self.assertAlmostEqual(m["txn.replay_resolve_us"], 15)
        self.assertAlmostEqual(m["trace.coverage_pct"], 100 * 149 / 150)
        self.assertEqual(m["trace.sampled_ops"], 2)


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_keys_command_and_paths(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end",
                                          "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "bench/e2e/run.py"])
        self.assertEqual(self.spec["paths"], ["bench/e2e"])
        self.assertEqual(run.HERE, run.ROOT / "bench" / "e2e")

    def test_run_and_compare_use_run_seconds(self):
        self.assertEqual(run.run_seconds(), self.spec["run_seconds"])

    def test_workloads_match(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         run.WORKLOADS)
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_end_to_end_matches_emitted_metrics(self):
        want = [{"name": m.name, "unit": m.unit, "better": m.better,
                 "bound": m.bound} for m in run.E2E]
        self.assertEqual(self.spec["end_to_end"], want)
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))

    def test_per_layer_matches_emitted_metrics(self):
        want = [{"name": m.name, "unit": m.unit, "better": m.better}
                for m in run.LAYER]
        self.assertEqual(self.spec["per_layer"], want)

    def test_names_and_units_are_valid(self):
        metrics = self.spec["end_to_end"] + self.spec["per_layer"]
        self.assertLessEqual(len(self.spec["end_to_end"]), 16)
        self.assertLessEqual(len(self.spec["per_layer"]), 128)
        names = [m["name"] for m in metrics] + [w["name"] for w in
                                                self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for m in metrics:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        for m in self.spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)

    def test_output_carries_exactly_the_listed_metrics(self):
        report = {"e2e": {m.name: 1.5 for m in run.E2E},
                  "layer": {"trace.coverage_pct": 99.0}}
        untraced = run.metric_values(report, trace=False)
        traced = run.metric_values(report, trace=True)
        self.assertEqual(list(untraced),
                         [m["name"] for m in self.spec["end_to_end"]])
        self.assertEqual(list(traced),
                         [m["name"] for m in self.spec["per_layer"]])
        self.assertEqual(traced["trace.coverage_pct"]["value"], 99.0)

    def test_missing_end_to_end_metric_is_an_error(self):
        with self.assertRaises(run.BenchError):
            run.metric_values({"e2e": {}, "layer": {}}, trace=False)


if __name__ == "__main__":
    unittest.main()
