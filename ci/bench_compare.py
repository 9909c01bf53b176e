#!/usr/bin/env python3
"""Perf-trajectory gate: diff two Google-Benchmark JSON files by name.

Compares real_time per benchmark between a baseline (the previous
commit's BENCH_<compiler>.json artifact) and the current run, after
normalizing time units. Benchmarks missing from either side are
reported but never fail the comparison (benches come and go).

Warn-only by default: CI runners are noisy, so the trajectory is a
trend line, not a hard gate — pass --fail to turn regressions beyond
the threshold into a nonzero exit (used for the plan-cache, deep-path,
lifted sub-plan and concurrency benches — plan-cache/deep-path/sub-plan
costs are dominated by in-memory work, and BM_Concurrent.*
reader-scaling regressions are exactly what the sharded-lock redesign
must not reintroduce).

Usage:
  bench_compare.py baseline.json current.json \
      [--filter REGEX] [--threshold 0.25] [--fail]
"""

import argparse
import json
import re
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load(path):
    """name -> real_time in ns (last entry wins on duplicate names)."""
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = _UNIT_NS.get(b.get("time_unit", "ns"))
        if unit is None or "real_time" not in b:
            continue
        out[b["name"]] = b["real_time"] * unit
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--filter",
        default=(r"BM_(PlanCache|DeepPath|Concurrent|PredicateReorder|"
                 r"CascadeOrder|SubPlan)"),
        help="only compare benchmarks whose name matches this regex",
    )
    ap.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative real_time growth that counts as a regression",
    )
    ap.add_argument(
        "--fail",
        action="store_true",
        help="exit nonzero when any regression exceeds the threshold",
    )
    args = ap.parse_args(argv)

    try:
        base = load(args.baseline)
        cur = load(args.current)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot load input: {e}")
        return 0  # missing/corrupt baseline is not a failure

    pat = re.compile(args.filter)
    regressions = []
    for name in sorted(cur):
        if not pat.search(name):
            continue
        if name not in base:
            print(f"  NEW      {name}: {cur[name]:.0f}ns (no baseline)")
            continue
        b, c = base[name], cur[name]
        if b <= 0:
            continue
        delta = (c - b) / b
        tag = "ok"
        if delta > args.threshold:
            tag = "REGRESSED"
            regressions.append((name, delta))
        elif delta < -args.threshold:
            tag = "improved"
        print(f"  {tag:10s}{name}: {b:.0f}ns -> {c:.0f}ns ({delta:+.1%})")
    for name in sorted(set(base) - set(cur)):
        if pat.search(name):
            print(f"  GONE     {name} (present in baseline only)")

    if regressions:
        print(
            f"bench_compare: {len(regressions)} benchmark(s) regressed "
            f"beyond {args.threshold:.0%}:"
        )
        for name, delta in regressions:
            print(f"  {name}: {delta:+.1%}")
        return 1 if args.fail else 0
    print("bench_compare: no regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
