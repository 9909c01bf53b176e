"""Unit tests for ci/bench_compare.py (run: python3 -m unittest)."""

import contextlib
import io
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_compare


def bench_json(entries):
    """Google-Benchmark JSON doc from (name, real_time, unit[, run_type])."""
    benches = []
    for e in entries:
        b = {"name": e[0], "real_time": e[1], "time_unit": e[2]}
        if len(e) > 3:
            b["run_type"] = e[3]
        benches.append(b)
    return {"benchmarks": benches}


class TempJson:
    """Write docs to temp files; yields their paths."""

    def __init__(self, *docs):
        self.docs = docs
        self.paths = []

    def __enter__(self):
        for doc in self.docs:
            f = tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False)
            json.dump(doc, f)
            f.close()
            self.paths.append(f.name)
        return self.paths

    def __exit__(self, *exc):
        for p in self.paths:
            os.unlink(p)


def run_main(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = bench_compare.main(args)
    return rc, out.getvalue()


class LoadUnitNormalization(unittest.TestCase):
    def test_units_normalize_to_ns(self):
        doc = bench_json([
            ("BM_ns", 1500.0, "ns"),
            ("BM_us", 1.5, "us"),
            ("BM_ms", 1.5, "ms"),
            ("BM_s", 1.5, "s"),
        ])
        with TempJson(doc) as (path,):
            loaded = bench_compare.load(path)
        self.assertEqual(loaded["BM_ns"], 1500.0)
        self.assertEqual(loaded["BM_us"], 1500.0)
        self.assertEqual(loaded["BM_ms"], 1.5e6)
        self.assertEqual(loaded["BM_s"], 1.5e9)

    def test_missing_time_unit_defaults_to_ns(self):
        doc = {"benchmarks": [{"name": "BM_x", "real_time": 42.0}]}
        with TempJson(doc) as (path,):
            loaded = bench_compare.load(path)
        self.assertEqual(loaded["BM_x"], 42.0)

    def test_unknown_unit_and_aggregates_skipped(self):
        doc = bench_json([
            ("BM_weird", 1.0, "fortnights"),
            ("BM_mean", 1.0, "ns", "aggregate"),
            ("BM_keep", 2.0, "ns"),
        ])
        with TempJson(doc) as (path,):
            loaded = bench_compare.load(path)
        self.assertEqual(set(loaded), {"BM_keep"})

    def test_missing_real_time_skipped(self):
        doc = {"benchmarks": [{"name": "BM_x", "time_unit": "ns"}]}
        with TempJson(doc) as (path,):
            self.assertEqual(bench_compare.load(path), {})

    def test_duplicate_names_last_wins(self):
        doc = bench_json([("BM_x", 1.0, "ns"), ("BM_x", 9.0, "ns")])
        with TempJson(doc) as (path,):
            self.assertEqual(bench_compare.load(path), {"BM_x": 9.0})


class MissingInputs(unittest.TestCase):
    def test_missing_baseline_is_not_a_failure(self):
        cur = bench_json([("BM_PlanCache_hit", 100.0, "ns")])
        with TempJson(cur) as (cur_path,):
            rc, out = run_main(
                ["/nonexistent/baseline.json", cur_path, "--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("cannot load input", out)

    def test_corrupt_baseline_is_not_a_failure(self):
        cur = bench_json([("BM_PlanCache_hit", 100.0, "ns")])
        with TempJson(cur) as (cur_path,):
            bad = tempfile.NamedTemporaryFile(
                "w", suffix=".json", delete=False)
            bad.write("{not json")
            bad.close()
            try:
                rc, out = run_main([bad.name, cur_path, "--fail"])
            finally:
                os.unlink(bad.name)
        self.assertEqual(rc, 0)
        self.assertIn("cannot load input", out)

    def test_new_benchmark_reported_not_failed(self):
        base = bench_json([])
        cur = bench_json([("BM_PlanCache_new", 100.0, "ns")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("NEW", out)

    def test_gone_benchmark_reported_not_failed(self):
        base = bench_json([("BM_PlanCache_old", 100.0, "ns")])
        cur = bench_json([])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("GONE", out)


class ThresholdLogic(unittest.TestCase):
    def _compare(self, base_ns, cur_ns, extra):
        base = bench_json([("BM_PlanCache_x", base_ns, "ns")])
        cur = bench_json([("BM_PlanCache_x", cur_ns, "ns")])
        with TempJson(base, cur) as (b, c):
            return run_main([b, c] + extra)

    def test_regression_beyond_threshold_fails_with_fail_flag(self):
        rc, out = self._compare(100.0, 200.0, ["--fail"])
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_regression_without_fail_flag_warns_only(self):
        rc, out = self._compare(100.0, 200.0, [])
        self.assertEqual(rc, 0)
        self.assertIn("REGRESSED", out)

    def test_within_threshold_passes(self):
        rc, out = self._compare(100.0, 120.0, ["--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("no regressions", out)

    def test_exactly_at_threshold_passes(self):
        # delta > threshold is a regression; == is not.
        rc, _ = self._compare(100.0, 125.0, ["--fail"])
        self.assertEqual(rc, 0)

    def test_custom_threshold(self):
        rc, _ = self._compare(100.0, 120.0, ["--fail", "--threshold", "0.1"])
        self.assertEqual(rc, 1)

    def test_improvement_never_fails(self):
        rc, out = self._compare(200.0, 100.0, ["--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("improved", out)

    def test_cross_unit_comparison(self):
        # 100us baseline vs 250000ns current = 2.5x — a regression even
        # though the raw real_time numbers (100 vs 250000) differ in unit.
        base = bench_json([("BM_PlanCache_x", 100.0, "us")])
        cur = bench_json([("BM_PlanCache_x", 250000.0, "ns")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_filter_excludes_nonmatching_names(self):
        base = bench_json([("BM_Other_x", 100.0, "ns")])
        cur = bench_json([("BM_Other_x", 900.0, "ns")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])  # default filter
        self.assertEqual(rc, 0)
        self.assertNotIn("REGRESSED", out)

    def test_zero_baseline_skipped(self):
        rc, _ = self._compare(0.0, 100.0, ["--fail"])
        self.assertEqual(rc, 0)


class ConcurrencyBenchWatchList(unittest.TestCase):
    """BM_Concurrent.* (bench_concurrency's reader-scaling and
    group-commit legs) is on the default --fail watch list."""

    def test_concurrent_read_regression_fails(self):
        base = bench_json(
            [("BM_ConcurrentReadAcquire/threads:16", 100.0, "ns")])
        cur = bench_json(
            [("BM_ConcurrentReadAcquire/threads:16", 300.0, "ns")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])  # default filter
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_group_commit_regression_fails(self):
        base = bench_json(
            [("BM_ConcurrentGroupCommit/writers:8", 1e6, "ns")])
        cur = bench_json(
            [("BM_ConcurrentGroupCommit/writers:8", 2e6, "ns")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_concurrent_within_threshold_passes(self):
        base = bench_json(
            [("BM_ConcurrentReadAcquire/threads:32", 100.0, "ns")])
        cur = bench_json(
            [("BM_ConcurrentReadAcquire/threads:32", 110.0, "ns")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("no regressions", out)


class SelectivityBenchWatchList(unittest.TestCase):
    """BM_PredicateReorder* / BM_CascadeOrder* (bench_micro's
    selectivity-planning legs) are on the default --fail watch list: a
    planner change that degrades the cost-based legs toward the
    syntactic ones is a regression, not noise."""

    def test_predicate_reorder_regression_fails(self):
        base = bench_json([("BM_PredicateReorderCostBased", 3.0, "us")])
        cur = bench_json([("BM_PredicateReorderCostBased", 9.0, "us")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])  # default filter
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_cascade_order_regression_fails(self):
        base = bench_json([("BM_CascadeOrderCostBased", 15.0, "us")])
        cur = bench_json([("BM_CascadeOrderCostBased", 40.0, "us")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_selectivity_legs_within_threshold_pass(self):
        base = bench_json(
            [
                ("BM_PredicateReorderSyntactic", 90.0, "us"),
                ("BM_CascadeOrderSyntactic", 17.0, "us"),
            ]
        )
        cur = bench_json(
            [
                ("BM_PredicateReorderSyntactic", 95.0, "us"),
                ("BM_CascadeOrderSyntactic", 18.0, "us"),
            ]
        )
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("no regressions", out)


class SubPlanBenchWatchList(unittest.TestCase):
    """BM_SubPlan* (bench_micro's lifted sub-plan legs: an exists
    predicate and a positional step, each run once over its whole
    context) are on the default --fail watch list: falling back to a
    per-node loop is a regression, not noise."""

    def test_sub_plan_regression_fails(self):
        base = bench_json([("BM_SubPlanExistsIndexed/2", 70.0, "us")])
        cur = bench_json([("BM_SubPlanExistsIndexed/2", 300.0, "us")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])  # default filter
        self.assertEqual(rc, 1)
        self.assertIn("REGRESSED", out)

    def test_sub_plan_within_threshold_passes(self):
        base = bench_json([("BM_SubPlanFirstChildScan/1", 21.0, "us")])
        cur = bench_json([("BM_SubPlanFirstChildScan/1", 22.0, "us")])
        with TempJson(base, cur) as (b, c):
            rc, out = run_main([b, c, "--fail"])
        self.assertEqual(rc, 0)
        self.assertIn("no regressions", out)


if __name__ == "__main__":
    unittest.main()
