#!/usr/bin/env python3
"""End-to-end benchmark for pxq: builds bench_e2e, runs its workloads and
checks and reports every metric.

One run (the benchmark contract; the last stdout line is the result):
  python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Repetitions, with medians, quartiles, claims and tracing overhead:
  python3 bench/e2e/run.py run [--reps 5] [--workloads a,b] [--out file]

Ten alternating pairs of runs of two checkouts (parent first):
  python3 bench/e2e/run.py compare A B [--workloads a,b]

run and compare run for BENCHMARK.json's run_seconds.

Quick check of every workload at factor 0.01 for 2 s:
  python3 bench/e2e/run.py --smoke
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
BINARY = BUILD / "bench_e2e"

WORKLOADS = ["fig9_xmark", "xpath_read", "xupdate_durable", "mixed_rw"]

# Document scale: XMark factor of the main document, of the small
# document of xupdate_durable, and how many times set-up runs (setup_s is
# the median).
FULL = {"factor": 0.25, "small_factor": 0.025, "setups": 3}
SMOKE = {"factor": 0.01, "small_factor": 0.001, "setups": 1, "seconds": 2}

RUN_TIMEOUT_S = 170
# compare runs this many pairs; its 'better' rule needs 9 wins of them.
PAIRS = 10


class Metric:
    def __init__(self, name, unit, better, bound=None):
        self.name, self.unit, self.better, self.bound = name, unit, better, bound


# End-to-end metrics, measured untraced on every workload. Each workload
# has two operation classes, "op" and "side" (README):
#   fig9_xmark       XMark query on the updatable store / on the read-only one
#   xpath_read       point lookup (plan cache overflows) / fixed-text read
#   xupdate_durable  durable Update at factor 0.25 / at factor 0.025
#   mixed_rw         read / durable Update of the writer beside the readers
# ops_per_s counts both classes. Timings and ops_per_s are scaled by
# bench_e2e's host-speed gauge; bounds and measured spreads are in the
# README ("Spread"). peak_rss_mb has two modes on mixed_rw, 18% apart.
E2E = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
    Metric("success_ratio", "ratio", "higher", 0.01),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("op_p50_us", "us", "lower", 0.25),
    Metric("op_p90_us", "us", "lower", 0.25),
    Metric("side_p50_us", "us", "lower", 0.25),
    Metric("side_p90_us", "us", "lower", 0.25),
]

TEMPLATES = ["person_name", "auction_bids", "category_items", "first_increase",
             "sold_ge40", "region_items", "prose", "buyers", "rich_names",
             "australia_desc", "keywords", "keyword_sellers"]
OP_KINDS = ["root_seed", "chain_probe", "qname_postings", "child_step",
            "descendant_staircase", "axis_scan", "value_probe_gate",
            "position_filter", "exists_filter", "fused_probe"]

# Per-layer metrics, from the traced run. A layer a workload bypasses
# reads 0 on that workload.
LAYER = (
    [Metric("storage.shred_s", "s", "lower"),
     Metric("storage.build_s", "s", "lower"),
     Metric("storage.ro_build_s", "s", "lower"),
     Metric("index.rebuild_s", "s", "lower"),
     Metric("storage.snapshot_save_s", "s", "lower"),
     Metric("index.bytes_mb", "MB", "lower"),
     Metric("storage.logical_pages", "count", "lower")]
    + [Metric("fig9.q%02d_up_ms" % q, "ms", "lower") for q in range(1, 21)]
    + [Metric("fig9.ro_suite_ms", "ms", "lower"),
       Metric("fig9.ro_overhead_pct", "%", "lower"),
       Metric("xpath.rel_compile_us", "us", "lower"),
       Metric("txn.read_lock_wait_us", "us", "lower"),
       Metric("xpath.plan_hit_ratio", "ratio", "higher"),
       Metric("xpath.compile_us", "us", "lower"),
       Metric("xpath.eval_us", "us", "lower")]
    + [Metric("xpath.op.%s_us" % k, "us", "lower") for k in OP_KINDS]
    + [Metric("xpath.materialize_us", "us", "lower"),
       Metric("index.probes_per_query", "count", "lower"),
       Metric("index.probe_accept_ratio", "ratio", "higher"),
       Metric("index.memo_hit_ratio", "ratio", "higher"),
       Metric("index.est_error_mean", "log2", "lower")]
    + [Metric("tpl.%s_p50_us" % t, "us", "lower") for t in TEMPLATES]
    + [Metric("txn.begin_us", "us", "lower"),
       Metric("xupdate.parse_us", "us", "lower"),
       Metric("xupdate.apply_us", "us", "lower"),
       Metric("txn.commit_us", "us", "lower"),
       Metric("txn.commit_prewindow_us", "us", "lower"),
       Metric("txn.commit_window_us", "us", "lower"),
       Metric("txn.wal_append_us", "us", "lower"),
       Metric("index.apply_dirty_us", "us", "lower"),
       Metric("txn.replay_resolve_us", "us", "lower"),
       Metric("txn.writer_lock_wait_us", "us", "lower"),
       Metric("txn.reader_waits_per_commit", "count", "lower"),
       Metric("txn.checkpoint_ms", "ms", "lower"),
       Metric("storage.tuples_moved_per_commit", "count", "lower"),
       Metric("storage.pages_appended_per_commit", "count", "lower"),
       Metric("index.maintenance_ops_per_commit", "count", "lower"),
       Metric("txn.wal_bytes_per_commit", "B", "lower"),
       Metric("txn.recover_s", "s", "lower"),
       Metric("txn.recover_replay_s", "s", "lower"),
       Metric("index.rebuild_on_open_s", "s", "lower"),
       Metric("txn.commit_growth_x", "ratio", "lower"),
       Metric("txn.begin_growth_x", "ratio", "lower"),
       Metric("xupdate.apply_growth_x", "ratio", "lower"),
       Metric("index.apply_dirty_growth_x", "ratio", "lower"),
       Metric("trace.coverage_pct", "%", "higher"),
       Metric("trace.sampled_ops", "count", "higher")]
)

# Paper claims, checked on every result; a failed claim is reported, not
# fatal. (workload, figure in bench_e2e's "extra", test, limit)
CLAIMS = {
    "fig9_overhead_lt_30pct": ("fig9_xmark", "ro_overhead_pct", "<", 30.0),
    "insert_cost_flat": ("xupdate_durable", "commit_growth_x", "<=", 1.25),
}


class BenchError(Exception):
    pass


# ------------------------------------------------------------- statistics

def quartiles(values):
    """First and third quartile, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(values):
    q1, q3 = quartiles(values)
    med = median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "iqr_share": (q3 - q1) / med if med else 0.0, "values": values}


def improved(new, old, better):
    return new < old if better == "lower" else new > old


def verdict(base, change, better, bound):
    """The paired rule: 'better' needs at least PAIRS pairs, 9 wins in
    every 10 (ties count for neither) and medians further apart than the
    base's IQR; 'unresolved' when either side's IQR/median exceeds the
    bound, unless every change run beats every base run; 'worse' when the
    change's median is worse than the base's by more than the bound; else
    'same'."""
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if improved(c, b, better))
    mb, mc = median(base), median(change)
    q1, q3 = quartiles(base)
    if (len(pairs) >= PAIRS and wins * 10 >= 9 * len(pairs)
            and abs(mc - mb) > q3 - q1):
        return "better"
    spread = max(summarize(base)["iqr_share"], summarize(change)["iqr_share"])
    if spread > bound:
        if all(improved(c, b, better) for c in change for b in base):
            return "better"
        return "unresolved"
    worse_by = (mc - mb) / mb if better == "lower" else (mb - mc) / mb
    return "worse" if worse_by > bound else "same"


# ------------------------------------------------------------------ trace

def union_length(intervals):
    total, end = 0, None
    for s, e in sorted(intervals):
        if e <= s:
            continue
        if end is None or s >= end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that
    its children cover. `spans` are dicts with id, parent, start, end."""
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[s["id"]])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def load_trace(path):
    with open(path) as f:
        doc = json.load(f)
    idx = {name: i for i, name in enumerate(doc["fields"])}
    return [{"id": r[idx["id"]], "op": r[idx["op"]], "parent": r[idx["parent"]],
             "name": r[idx["name"]], "start": r[idx["start_ns"]],
             "end": r[idx["end_ns"]]} for r in doc["spans"]]


def layer_from_spans(spans):
    """Per-layer metrics derived from the traced run's spans."""
    selfs = self_times(spans)
    roots = {s["op"]: s for s in spans if s["parent"] == 0}
    by_kind = defaultdict(lambda: defaultdict(list))  # root kind -> name -> [(self, dur)]
    for s in spans:
        root = roots.get(s["op"])
        if root is None or s is root:
            continue
        kind = root["name"].split(".")[0]
        by_kind[kind][s["name"]].append((selfs[s["id"]], s["end"] - s["start"]))
    count = defaultdict(int)
    for r in roots.values():
        count[r["name"].split(".")[0]] += 1

    def per_op(kind, name, use_self=True):
        n = count[kind]
        if n == 0:
            return 0.0
        return sum(v[0 if use_self else 1] for v in by_kind[kind][name]) / n / 1e3

    def med_self(kind, name):
        vals = [v[0] for v in by_kind[kind][name]]
        return median(vals) if vals else 0.0

    def growth(name):
        small = med_self("small", name)
        return med_self("write", name) / small if small else 0.0

    out = {}
    locks = [s["end"] - s["start"] for s in spans if s["name"] == "txn.read_lock"]
    out["txn.read_lock_wait_us"] = sum(locks) / len(locks) / 1e3 if locks else 0.0
    out["xpath.compile_us"] = per_op("read", "xpath.compile")
    out["xpath.eval_us"] = per_op("read", "xpath.eval")
    for k in OP_KINDS:
        out["xpath.op.%s_us" % k] = per_op("read", "xpath.op." + k)
    out["xpath.materialize_us"] = per_op("read", "xpath.materialize")
    for t in TEMPLATES:
        durs = [r["end"] - r["start"] for r in roots.values()
                if r["name"] == "read." + t]
        out["tpl.%s_p50_us" % t] = median(durs) / 1e3 if durs else 0.0
    out["txn.begin_us"] = per_op("write", "txn.begin")
    out["xupdate.parse_us"] = per_op("write", "xupdate.parse")
    out["xupdate.apply_us"] = per_op("write", "xupdate.apply")
    out["txn.commit_us"] = per_op("write", "txn.commit", use_self=False)
    out["txn.commit_prewindow_us"] = per_op("write", "txn.commit")
    out["txn.commit_window_us"] = per_op("write", "txn.commit_window", use_self=False)
    out["txn.replay_resolve_us"] = per_op("write", "txn.commit_window")
    out["txn.wal_append_us"] = per_op("write", "txn.wal_append")
    out["index.apply_dirty_us"] = per_op("write", "index.apply_dirty")
    out["txn.writer_lock_wait_us"] = per_op("write", "txn.writer_lock_wait")
    out["txn.begin_growth_x"] = growth("txn.begin")
    out["xupdate.apply_growth_x"] = growth("xupdate.apply")
    out["index.apply_dirty_growth_x"] = growth("index.apply_dirty")
    total = sum(r["end"] - r["start"] for r in roots.values())
    root_self = sum(selfs[r["id"]] for r in roots.values())
    out["trace.coverage_pct"] = 100.0 * (total - root_self) / total if total else 0.0
    out["trace.sampled_ops"] = float(len(roots))
    return out


# ------------------------------------------------------------ build & run

def local_env():
    """Environment for builds and runs: temporary files stay in the build
    dir, and PXQ_* variables, which change the library's behaviour
    (profiling, index shape), are dropped so every run measures the
    defaults."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("PXQ_")}
    env["TMPDIR"] = str(tmp)
    return env


def build():
    """Configure (once) and build bench_e2e in the checkout's build dir."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError("library sources not found under %s" % ROOT)
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, env=local_env(),
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            raise BenchError("build failed: %s" % " ".join(cmd))


def run_bench(workload, seed, seconds, trace, scale):
    """One bench_e2e process; returns its report with per-layer metrics from
    the spans added under "layer" when traced."""
    BUILD.mkdir(parents=True, exist_ok=True)
    data = Path(tempfile.mkdtemp(prefix="data-%s-" % workload, dir=BUILD))
    trace_out = BUILD / ("trace_%s.json" % workload)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(scale.get("seconds", seconds)),
           "--trace", "1" if trace else "0",
           "--factor", str(scale["factor"]),
           "--small-factor", str(scale["small_factor"]),
           "--setups", str(scale["setups"]),
           "--data-dir", str(data), "--trace-out", str(trace_out)]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           env=local_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %ds" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(data, ignore_errors=True)
    if p.returncode != 0:
        raise BenchError("%s: bench_e2e exited %d" % (workload, p.returncode))
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise BenchError("%s: bench_e2e printed nothing" % workload)
    report = json.loads(lines[-1])
    if not report.get("correct") or report.get("failed", 1) != 0:
        raise BenchError("%s: incorrect result: %s" % (workload, report.get("errors")))
    if trace:
        report["layer"].update(layer_from_spans(load_trace(trace_out)))
    return report


def metric_values(report, trace):
    """The contract's metric map: every end-to-end metric untraced, every
    per-layer metric traced."""
    if trace:
        return {m.name: {"value": float(report["layer"].get(m.name, 0.0)),
                         "unit": m.unit} for m in LAYER}
    missing = [m.name for m in E2E if m.name not in report["e2e"]]
    if missing:
        raise BenchError("bench_e2e did not report %s" % ", ".join(missing))
    return {m.name: {"value": float(report["e2e"][m.name]), "unit": m.unit}
            for m in E2E}


def claims(workload, extra):
    out = {}
    for name, (w, key, op, limit) in CLAIMS.items():
        if w != workload or key not in extra:
            continue
        value = extra[key]
        ok = value < limit if op == "<" else value <= limit
        out[name] = {"value": value, "limit": "%s %g" % (op, limit), "pass": ok}
    return out


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fs = "unknown"
    try:
        p = subprocess.run(["stat", "-f", "-c", "%T", str(ROOT)],
                           stdout=subprocess.PIPE, text=True)
        fs = p.stdout.strip() or fs
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "filesystem": fs,
            "flush_policy": "one fsync per commit, group_commit_window_us=0",
            "python": platform.python_version()}


# ------------------------------------------------------------ subcommands

def run_seconds():
    """The length of one run, BENCHMARK.json's run_seconds."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return int(spec["run_seconds"])
    except (OSError, ValueError, KeyError) as e:
        raise BenchError("cannot read run_seconds from BENCHMARK.json: %s" % e)


def workload_list(arg):
    workloads = arg.split(",") if arg else WORKLOADS
    unknown = [w for w in workloads if w not in WORKLOADS]
    if unknown:
        raise BenchError("unknown workload %s" % ", ".join(unknown))
    return workloads


def cmd_single(args):
    scale = SMOKE if args.smoke else FULL
    build()
    report = run_bench(args.workload, args.seed, args.seconds, args.trace, scale)
    metrics = metric_values(report, args.trace)
    for name, m in metrics.items():
        print("%-36s %16.6f %s" % (name, m["value"], m["unit"]))
    if report["extra"]:
        print("figures: " + json.dumps(report["extra"], sort_keys=True))
    checks = claims(args.workload, report["extra"])
    if checks:
        print("claims: " + json.dumps(checks, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


def run_workload(workload, reps, seed, seconds, scale, log):
    runs = []
    for i in range(reps):
        r = run_bench(workload, seed + i, seconds, False, scale)
        runs.append({"seed": seed + i, "e2e": r["e2e"], "extra": r["extra"],
                     "attempted": r["attempted"], "failed": r["failed"]})
        log("%s rep %d/%d: %s" % (workload, i + 1, reps, json.dumps(r["e2e"])))
    traced = run_bench(workload, seed, seconds, True, scale)
    summary = {m.name: dict(summarize([r["e2e"][m.name] for r in runs]),
                            unit=m.unit, better=m.better, bound=m.bound)
               for m in E2E}
    extra_keys = sorted(set().union(*(r["extra"] for r in runs)))
    extra = {k: summarize([r["extra"][k] for r in runs if k in r["extra"]])
             for k in extra_keys}
    overhead = {}
    for name in ("op_p50_us", "side_p50_us"):
        base = summary[name]["median"]
        overhead[name] = {"untraced": base, "traced": traced["e2e"][name],
                          "overhead_pct": 100.0 * (traced["e2e"][name] / base - 1)
                          if base else 0.0}
    return {"runs": runs, "summary": summary, "extra": extra,
            "claims": claims(workload, {k: v["median"] for k, v in extra.items()}),
            "layer": {m.name: {"value": traced["layer"].get(m.name, 0.0),
                               "unit": m.unit} for m in LAYER},
            "trace_overhead": overhead}


def cmd_run(args):
    scale = SMOKE if args.smoke else FULL
    seconds = scale.get("seconds", run_seconds())
    build()
    log = lambda msg: print(msg, file=sys.stderr, flush=True)
    result = {"env": environment(),
              "settings": {"reps": args.reps, "seed": args.seed,
                           "seconds": seconds, "scale": scale},
              "workloads": {}}
    for w in workload_list(args.workloads):
        result["workloads"][w] = run_workload(w, args.reps, args.seed,
                                              seconds, scale, log)
    out = Path(args.out) if args.out else BUILD / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for w, res in result["workloads"].items():
        print("== %s" % w)
        for m in E2E:
            s = res["summary"][m.name]
            print("  %-14s %14.4f %-5s IQR %.4f (%.1f%% of median)" % (
                m.name, s["median"], m.unit, s["iqr"], 100 * s["iqr_share"]))
        for name, c in res["claims"].items():
            print("  claim %-24s %8.3f %s: %s" % (
                name, c["value"], c["limit"], "pass" if c["pass"] else "FAIL"))
        cov = res["layer"]["trace.coverage_pct"]["value"]
        print("  trace coverage %.1f%%, overhead op_p50 %+.1f%% side_p50 %+.1f%%" % (
            cov, res["trace_overhead"]["op_p50_us"]["overhead_pct"],
            res["trace_overhead"]["side_p50_us"]["overhead_pct"]))
    print("results: %s" % out)


def paired_values(a, b, workloads, seed, seconds, smoke):
    """{workload: {metric: (base values, change values)}} from PAIRS pairs
    of runs of checkouts a and b, alternating which side runs first. Pair
    i runs seed + i on both sides."""
    for d in (a, b):
        if not (d / "bench" / "e2e" / "run.py").is_file():
            raise BenchError("%s is not a checkout with bench/e2e/run.py" % d)
    out = {w: {m.name: ([], []) for m in E2E} for w in workloads}
    for w in workloads:
        for i in range(PAIRS):
            order = [(0, a), (1, b)] if i % 2 == 0 else [(1, b), (0, a)]
            for side, d in order:
                p = subprocess.run(
                    [sys.executable, str(d / "bench" / "e2e" / "run.py"),
                     "--workload", w, "--seed", str(seed + i),
                     "--seconds", str(seconds), "--trace", "0"]
                    + (["--smoke"] if smoke else []),
                    cwd=d, stdout=subprocess.PIPE, text=True)
                if p.returncode != 0:
                    raise BenchError("%s failed on %s" % (w, d))
                metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
                for m in E2E:
                    out[w][m.name][side].append(metrics[m.name]["value"])
            print("%s pair %d/%d done" % (w, i + 1, PAIRS), file=sys.stderr)
    return out


def cmd_compare(args):
    values = paired_values(Path(args.a), Path(args.b),
                           workload_list(args.workloads), args.seed,
                           run_seconds(), args.smoke)
    rows = {}
    worse = False
    print("%-16s %s" % ("workload", "  ".join("%-22s" % m.name for m in E2E)))
    for w, per_metric in values.items():
        row = {}
        cells = []
        for m in E2E:
            base, change = per_metric[m.name]
            v = verdict(base, change, m.better, m.bound)
            delta = (median(change) / median(base) - 1) * 100 if median(base) else 0.0
            row[m.name] = {"verdict": v, "base": summarize(base),
                           "change": summarize(change), "delta_pct": delta}
            cells.append("%-22s" % ("%s %+.1f%%" % (v, delta)))
            worse |= v == "worse"
        rows[w] = row
        print("%-16s %s" % (w, "  ".join(cells)))
    if args.out:
        Path(args.out).write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
    return 1 if worse else 0


def main(argv):
    if argv and argv[0] in ("run", "compare"):
        p = argparse.ArgumentParser(prog="run.py " + argv[0])
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--workloads", default="")
        p.add_argument("--smoke", action="store_true")
        p.add_argument("--out", default="")
        if argv[0] == "run":
            p.add_argument("--reps", type=int, default=5)
            return cmd_run(p.parse_args(argv[1:]))
        p.add_argument("a")
        p.add_argument("b")
        return cmd_compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.workload:
        if args.seconds is None:
            args.seconds = run_seconds()
        return cmd_single(args)
    if not args.smoke:
        p.error("--workload is required (or use --smoke, run, compare)")
    build()
    for w in WORKLOADS:
        for trace in (False, True):
            r = run_bench(w, args.seed, 2, trace, SMOKE)
            metrics = metric_values(r, trace)
            print("%s trace=%d ok: %d metrics, %d ops" % (
                w, trace, len(metrics), r["attempted"]))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]) or 0)
    except BenchError as e:
        print("run.py: %s" % e, file=sys.stderr)
        sys.exit(1)
