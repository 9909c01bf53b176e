// bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--factor 0.25] [--small-factor 0.025] [--setups 3]
//           [--data-dir <dir>] [--trace-out <file>]
//
// Runs one workload (fig9_xmark, xpath_read, xupdate_durable, mixed_rw)
// for --seconds from process start: document generation and set-up, then
// load until the deadline, then the checks on the state the load left.
// Prints one JSON object: correctness, operation counts, the end-to-end
// metrics ("e2e"), the per-layer metrics ("layer") and workload figures
// outside both ("extra"). End-to-end timings are scaled by the host-speed
// gauge; per-layer timings are wall time. A failed correctness gate prints
// the reason on stderr and exits 3. With --trace 1 each operation is also
// split into timed layer calls, written to --trace-out.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <thread>
#include <unordered_map>

#include "bench_e2e.h"
#include "common/strings.h"
#include "storage/read_only_store.h"
#include "storage/shredder.h"
#include "xmark/generator.h"
#include "xmark/queries.h"
#include "xpath/compiler.h"

namespace pxq::e2e {
namespace {

namespace fs = std::filesystem;
using storage::PagedStore;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  double factor = 0.25;
  double small_factor = 0.025;
  int setups = 3;
  std::string data_dir;
  std::string trace_out;
};

/// Commits between checkpoints on the durable workloads, so that a run
/// holds several checkpoints.
constexpr int64_t kCheckpointEvery = 40;
/// Exact per-commit counts (WAL bytes, index maintenance, tuples moved)
/// are taken over this many leading commits, so they repeat exactly for a
/// seed however long the run lasts.
constexpr int64_t kCountPrefix = 100;
/// Gauge samples taken before each set-up and after the last one.
constexpr int kSetupGaugeSamples = 3;
/// xupdate_durable's commits alternate between its two documents in blocks
/// of this many.
constexpr int64_t kGrowthBlock = 20;

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a->trace = std::string(v) == "1";
    } else if (k == "--factor") {
      a->factor = std::strtod(v, nullptr);
    } else if (k == "--small-factor") {
      a->small_factor = std::strtod(v, nullptr);
    } else if (k == "--setups") {
      a->setups = std::max(1, std::atoi(v));
    } else if (k == "--data-dir") {
      a->data_dir = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", k.c_str());
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0;
}

double Sec(int64_t ns) { return static_cast<double>(ns) / 1e9; }
double Median(const std::vector<int64_t>& v) { return Percentile(v, 50); }

/// One operation: when it ended and how long it took.
struct Sample {
  int64_t end_ns;
  int64_t lat_ns;
};

/// One workload run: the arguments, the report it fills, the document
/// and the database under test.
struct Run {
  Args args;
  Report report;
  std::string xml;
  std::unique_ptr<Database> db;
  std::unique_ptr<storage::ReadOnlyStore> ro;
  std::vector<std::unique_ptr<Tracer>> tracers;
  HostGauge gauge;  // sampled by the thread that drives the load
  int64_t deadline_ns = 0;

  Tracer* tracer(size_t i) {
    while (tracers.size() <= i) {
      tracers.push_back(std::make_unique<Tracer>(
          args.trace, static_cast<int>(tracers.size()) + 1));
    }
    return tracers[i].get();
  }
  /// Starts the load and returns its start time. The load ends --seconds
  /// after process start, so set-up and load share the run's length; it
  /// runs for at least half of --seconds when set-up took longer.
  int64_t StartLoad() {
    gauge.Sample();
    const int64_t now = NowNs();
    const auto length = static_cast<int64_t>(args.seconds * 1e9);
    deadline_ns = std::max(length, now + length / 2);
    return now;
  }
  bool TimeUp() const { return NowNs() >= deadline_ns; }
};

Database::Options DbOptions(const std::string& data_dir) {
  Database::Options o;
  o.data_dir = data_dir;
  // One fsync per commit, no batching wait, on every run.
  o.txn.group_commit_window_us = 0;
  o.profile_sample_n = 0;
  return o;
}

/// Index counters over a stretch of reads (IndexStats deltas plus the
/// estimate-error histogram, which the executor fills on traced reads).
class IndexMeter {
 public:
  explicit IndexMeter(Database* db) : db_(db) {
    if (db->index_manager() != nullptr) {
      db->index_manager()->RegisterMetrics(&reg_);
    }
    stats_ = db_->IndexStats();
    est_ = EstError();
  }
  void Report(int64_t reads, std::map<std::string, double>* layer) const {
    const index::IndexStats now = db_->IndexStats();
    const auto d = [&](int64_t index::IndexStats::*f) {
      return static_cast<double>(now.*f - stats_.*f);
    };
    const double probes = d(&index::IndexStats::probes) +
                          d(&index::IndexStats::path_probes) +
                          d(&index::IndexStats::chain_probes);
    const double hits = d(&index::IndexStats::probe_hits) +
                        d(&index::IndexStats::path_hits) +
                        d(&index::IndexStats::chain_hits);
    const double memo_hits = d(&index::IndexStats::memo_hits) +
                             d(&index::IndexStats::memo_value_hits);
    const double memo_all = memo_hits + d(&index::IndexStats::memo_misses) +
                            d(&index::IndexStats::memo_value_misses);
    const double plans = d(&index::IndexStats::plan_hits) +
                         d(&index::IndexStats::plan_misses);
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0; };
    (*layer)["index.probes_per_query"] = ratio(probes, double(reads));
    (*layer)["index.probe_accept_ratio"] = ratio(hits, probes);
    (*layer)["index.memo_hit_ratio"] = ratio(memo_hits, memo_all);
    (*layer)["xpath.plan_hit_ratio"] =
        ratio(d(&index::IndexStats::plan_hits), plans);
    const auto est = EstError();
    // pxq_est_error records |log2(actual/estimate)| * 100 per operator.
    (*layer)["index.est_error_mean"] =
        ratio(double(est.second - est_.second),
              double(est.first - est_.first)) / 100.0;
  }

 private:
  std::pair<int64_t, int64_t> EstError() const {
    const obs::MetricsSnapshot snap = reg_.Snapshot();
    const obs::Histogram::Snapshot* h = snap.HistOf("pxq_est_error");
    return h != nullptr ? std::make_pair(h->count, h->sum)
                        : std::make_pair(int64_t{0}, int64_t{0});
  }

  Database* db_;
  obs::MetricsRegistry reg_;
  index::IndexStats stats_;
  std::pair<int64_t, int64_t> est_{0, 0};
};

// ------------------------------------------------------------------ setup

/// Builds the database `args.setups` times and reports the median scaled
/// time as setup_s (CreateFromXml, plus ReadOnlyStore::Build on
/// fig9_xmark). Traced runs also time the layer functions one at a time.
bool Setup(Run* run, bool durable, bool with_ro) {
  const std::string dir = durable ? run->args.data_dir + "/db" : "";
  std::vector<std::pair<int64_t, int64_t>> spans;
  const auto sample_gauge = [run] {
    for (int i = 0; i < kSetupGaugeSamples; ++i) run->gauge.Sample();
  };
  for (int k = 0; k < run->args.setups; ++k) {
    run->db.reset();
    run->ro.reset();
    if (durable) {
      fs::remove_all(dir);
      fs::create_directories(dir);
    }
    sample_gauge();
    const int64_t t0 = NowNs();
    auto db = Database::CreateFromXml(run->xml, DbOptions(dir));
    if (!db.ok()) {
      run->report.Fail("CreateFromXml: " + db.status().ToString());
      return false;
    }
    if (with_ro) {
      auto dense = storage::ShredXml(run->xml);
      if (!dense.ok()) {
        run->report.Fail("ShredXml: " + dense.status().ToString());
        return false;
      }
      run->ro = storage::ReadOnlyStore::Build(std::move(dense).value());
    }
    spans.emplace_back(t0, NowNs());
    run->db = std::move(db).value();
  }
  sample_gauge();
  std::vector<double> times;
  for (const auto& [t0, t1] : spans) {
    times.push_back(Sec(t1 - t0) * run->gauge.ScaleAt(t0 + (t1 - t0) / 2));
  }
  run->report.e2e["setup_s"] = Percentile(times, 50);

  std::map<std::string, double>& layer = run->report.layer;
  layer["index.bytes_mb"] =
      static_cast<double>(run->db->IndexStats().bytes) / (1 << 20);
  layer["storage.logical_pages"] =
      static_cast<double>(run->db->store().logical_page_count());
  std::vector<int64_t> shred, build, rebuild, save, ro_build;
  if (run->args.trace) {
    const std::string snap = run->args.data_dir + "/component.snapshot";
    for (int k = 0; k < run->args.setups; ++k) {
      int64_t t0 = NowNs();
      auto dense = storage::ShredXml(run->xml);
      shred.push_back(NowNs() - t0);
      if (!dense.ok()) {
        run->report.Fail("ShredXml: " + dense.status().ToString());
        return false;
      }
      t0 = NowNs();
      auto store =
          PagedStore::Build(std::move(dense).value(), PagedStore::Config());
      build.push_back(NowNs() - t0);
      if (!store.ok()) {
        run->report.Fail("PagedStore::Build: " + store.status().ToString());
        return false;
      }
      t0 = NowNs();
      index::IndexManager im((index::IndexConfig()));
      im.Rebuild(*store.value());
      rebuild.push_back(NowNs() - t0);
      if (durable) {
        t0 = NowNs();
        Status s = store.value()->SaveSnapshot(snap);
        save.push_back(NowNs() - t0);
        fs::remove(snap);
        if (!s.ok()) {
          run->report.Fail("SaveSnapshot: " + s.ToString());
          return false;
        }
      }
      if (with_ro) {
        // Shredded again: Build consumes the dense image.
        auto ro_dense = storage::ShredXml(run->xml);
        t0 = NowNs();
        if (ro_dense.ok()) {
          storage::ReadOnlyStore::Build(std::move(ro_dense).value());
        }
        ro_build.push_back(NowNs() - t0);
      }
    }
  }
  layer["storage.shred_s"] = Sec(static_cast<int64_t>(Median(shred)));
  layer["storage.build_s"] = Sec(static_cast<int64_t>(Median(build)));
  layer["index.rebuild_s"] = Sec(static_cast<int64_t>(Median(rebuild)));
  layer["storage.snapshot_save_s"] = Sec(static_cast<int64_t>(Median(save)));
  layer["storage.ro_build_s"] = Sec(static_cast<int64_t>(Median(ro_build)));
  return true;
}

/// Latencies in us, each scaled by the gauge read near its end.
std::vector<double> ScaledUs(const std::vector<Sample>& samples,
                             const HostGauge& gauge) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) {
    out.push_back(static_cast<double>(s.lat_ns) / 1e3 *
                  gauge.ScaleAt(s.end_ns));
  }
  return out;
}

/// End-to-end metrics of the load that ran over [t0, t1]: `op` and `side`
/// are the workload's two operation classes. Timings and the rate are
/// scaled by the host-speed gauge. The peak RSS covers set-up and load; it
/// is read before the checks and the recovery that follow the load.
void LoadMetrics(Run* run, const std::vector<Sample>& op,
                 const std::vector<Sample>& side, int64_t t0, int64_t t1) {
  run->gauge.Sample();
  Report* r = &run->report;
  const std::vector<double> op_us = ScaledUs(op, run->gauge);
  const std::vector<double> side_us = ScaledUs(side, run->gauge);
  r->e2e["peak_rss_mb"] = PeakRssMb();
  r->e2e["ops_per_s"] = static_cast<double>(op.size() + side.size()) /
                        Sec(t1 - t0) / run->gauge.Scale(t0, NowNs());
  r->e2e["op_p50_us"] = Percentile(op_us, 50);
  r->e2e["op_p90_us"] = Percentile(op_us, 90);
  r->e2e["side_p50_us"] = Percentile(side_us, 50);
  r->e2e["side_p90_us"] = Percentile(side_us, 90);
  r->extra["gauge_ms"] = run->gauge.MedianMs();
}

// ------------------------------------------------------------ fig9_xmark

/// Mean CompileText time of the relative paths Q3-Q20 compile once per
/// context node (xpath::Evaluator::Eval(Path, ctx) compiles every call).
double RelativeCompileUs(const PagedStore& s) {
  static constexpr const char* kTexts[] = {
      "bidder/increase", "bidder/personref", "name",        "buyer",
      "itemref",         "profile/interest", "profile/age", "profile",
      "address/city",    "emailaddress",     "homepage",    "description",
      "location",        "seller"};
  int64_t compiles = 0;
  const int64_t t0 = NowNs();
  while (NowNs() - t0 < 200'000'000) {
    for (const char* text : kTexts) {
      auto plan = xpath::CompileText(text, s.pools(), nullptr);
      if (!plan.ok()) return 0;
      ++compiles;
    }
  }
  return static_cast<double>(NowNs() - t0) / 1e3 /
         static_cast<double>(compiles);
}

void RunFig9(Run* run) {
  Report& r = run->report;
  Tracer* tracer = run->tracer(0);
  std::vector<std::vector<int64_t>> up_ns(xmark::kNumQueries + 1),
      ro_ns(xmark::kNumQueries + 1);
  std::vector<Sample> up_all, ro_all;
  std::vector<xmark::QueryResult> first(xmark::kNumQueries + 1);
  std::vector<int64_t> round_up, round_ro;
  const int64_t load0 = run->StartLoad();
  for (int round = 0; round < 2 || !run->TimeUp(); ++round) {
    tracer->BeginOp();
    const int64_t root = tracer->Open("fig9.round", 0, NowNs());
    int64_t up_total = 0, ro_total = 0;
    for (int q = 1; q <= xmark::kNumQueries; ++q) {
      xmark::QueryResult up, ro;
      // Alternate which schema runs first so neither always gets the
      // other's warm caches.
      for (int leg = 0; leg < 2; ++leg) {
        const bool is_up = (leg == 0) == (round % 2 == 0);
        ++r.attempted;
        const int64_t t0 = NowNs();
        int64_t t1 = t0;
        StatusOr<xmark::QueryResult> res =
            is_up ? run->db->txn_manager().Read([&](const PagedStore& s) {
                      t1 = NowNs();
                      return xmark::RunQuery(s, q);
                    })
                  : xmark::RunQuery(*run->ro, q);
        const int64_t t2 = NowNs();
        if (is_up) {
          tracer->Add("txn.read_lock", root, t0, t1);
          up_ns[q].push_back(t2 - t0);
          up_all.push_back({t2, t2 - t0});
          up_total += t2 - t0;
        } else {
          ro_ns[q].push_back(t2 - t0);
          ro_all.push_back({t2, t2 - t0});
          ro_total += t2 - t0;
        }
        if (tracer->sampled()) {
          tracer->Add(StrFormat("fig9.q%02d.%s", q, is_up ? "up" : "ro"),
                      root, t1, t2);
        }
        if (!res.ok()) {
          ++r.failed;
          r.Fail(StrFormat("Q%d: %s", q, res.status().ToString().c_str()));
          return;
        }
        (is_up ? up : ro) = res.value();
        run->gauge.MaybeSample();
      }
      if (!(up == ro)) r.Fail(StrFormat("Q%d: ro and up results differ", q));
      if (round == 0) first[q] = up;
      if (!(up == first[q])) {
        r.Fail(StrFormat("Q%d: round %d differs from round 1", q, round + 1));
      }
      if (!r.errors.empty()) return;
    }
    tracer->Close(root, NowNs());
    tracer->EndOp();
    round_up.push_back(up_total);
    round_ro.push_back(ro_total);
  }
  LoadMetrics(run, up_all, ro_all, load0, NowNs());
  double overhead = 0;
  for (int q = 1; q <= xmark::kNumQueries; ++q) {
    r.layer[StrFormat("fig9.q%02d_up_ms", q)] = Median(up_ns[q]) / 1e6;
    overhead += Median(up_ns[q]) / Median(ro_ns[q]) - 1;
  }
  overhead = overhead * 100 / xmark::kNumQueries;
  r.layer["fig9.ro_suite_ms"] = Median(round_ro) / 1e6;
  r.layer["fig9.ro_overhead_pct"] = overhead;
  r.extra["ro_overhead_pct"] = overhead;
  r.extra["suite_ms"] = Median(round_up) / 1e6;
  r.extra["rounds"] = static_cast<double>(round_up.size());
  if (run->args.trace) {
    r.layer["xpath.rel_compile_us"] = run->db->txn_manager().Read(
        [](const PagedStore& s) { return RelativeCompileUs(s); });
  }
}

// ------------------------------------------------------------ xpath_read

/// Read loop of one client; fills latencies and checks each text's
/// result hash against its first occurrence (or the setup hash) when
/// `memo` is given. Samples the run's gauge between reads when `gauge`
/// is given.
struct ReadClient {
  std::vector<Sample> lookups;  // templates with a seeded parameter
  std::vector<Sample> fixed;    // fixed texts
  int64_t failed = 0;
  std::vector<std::string> errors;

  int64_t reads() const {
    return static_cast<int64_t>(lookups.size() + fixed.size());
  }

  void Loop(Run* run, uint64_t seed, Tracer* tracer,
            const std::function<bool()>& stop,
            std::unordered_map<std::string, uint64_t>* memo,
            HostGauge* gauge) {
    ReadMix mix(seed, run->args.factor);
    while (!stop()) {
      const ReadOp op = mix.Next();
      const int64_t t0 = NowNs();
      auto res = run->args.trace ? RunReadTraced(run->db.get(), op, tracer)
                                 : RunRead(run->db.get(), op);
      const int64_t t1 = NowNs();
      (op.tpl->param == Template::Param::kNone ? fixed : lookups)
          .push_back({t1, t1 - t0});
      if (!res.ok()) {
        ++failed;
        errors.push_back(op.text + ": " + res.status().ToString());
        return;
      }
      if (memo != nullptr) {
        const uint64_t h = res->Hash();
        auto [it, fresh] = memo->emplace(op.text, h);
        if (!fresh && it->second != h) {
          errors.push_back("result changed: " + op.text);
          return;
        }
      }
      if (gauge != nullptr) gauge->MaybeSample();
    }
  }
};

void RunXpathRead(Run* run) {
  Report& r = run->report;
  CheckReadsAgainstScan(run->db.get(), run->args.factor, &r);
  if (!r.errors.empty()) return;
  // Fixed texts keep the hash they have at setup for the whole run.
  std::unordered_map<std::string, uint64_t> memo;
  for (const Template& t : Templates()) {
    if (t.param != Template::Param::kNone) continue;
    auto res = RunRead(run->db.get(), {&t, t.pattern});
    if (res.ok()) memo[t.pattern] = res->Hash();
  }
  IndexMeter index(run->db.get());
  ReadClient client;
  const int64_t t0 = run->StartLoad();
  client.Loop(run, run->args.seed * 7919 + 1, run->tracer(0),
              [run] { return run->TimeUp(); }, &memo, &run->gauge);
  const int64_t t1 = NowNs();
  r.attempted += client.reads();
  r.failed += client.failed;
  for (auto& e : client.errors) r.Fail(e);
  // The lookups' texts overflow the plan cache; the fixed texts stay in it.
  LoadMetrics(run, client.lookups, client.fixed, t0, t1);
  index.Report(client.reads(), &r.layer);
}

// ----------------------------------------------------------- write loops

/// One durable writer, closed loop: each Step() commits the next edit of
/// its mix to `db` and checkpoints after every kCheckpointEvery commits.
struct Writer {
  Writer(Run* run, Database* db, EditMix* mix, Tracer* tracer)
      : run(run),
        db(db),
        mix(mix),
        tracer(tracer),
        meter(db),
        start(meter.Read()),
        index_start(db->IndexStats()) {}

  /// Commits one edit; false when it or its checkpoint failed.
  bool Step() {
    const Edit edit = mix->Next();
    const int64_t t0 = NowNs();
    WriteCounts c;
    Status s = run->args.trace ? RunEditTraced(db, edit, meter, tracer, &c)
                               : RunEdit(db, edit);
    const int64_t t1 = NowNs();
    lat.push_back({t1, t1 - t0});
    if (!s.ok()) {
      ++failed;
      errors.push_back(std::string(edit.kind) + ": " + s.ToString());
      return false;
    }
    if (++commits <= kCountPrefix) {
      counts.tuples_moved += c.tuples_moved;
      counts.pages_appended += c.pages_appended;
      if (commits == kCountPrefix) {
        prefix = meter.Read();
        index_prefix = db->IndexStats();
      }
    }
    if (commits % kCheckpointEvery != 0) return true;
    tracer->BeginOp();
    const int64_t c0 = NowNs();
    const int64_t root = tracer->Open("checkpoint", 0, c0);
    Status cs = db->Checkpoint();
    const int64_t c1 = NowNs();
    tracer->Add("txn.checkpoint", root, c0, c1);
    tracer->Close(root, c1);
    tracer->EndOp();
    checkpoint_ns.push_back(c1 - c0);
    if (!cs.ok()) {
      ++failed;
      errors.push_back("checkpoint: " + cs.ToString());
      return false;
    }
    return true;
  }

  /// Operations run: commits, failed edits and checkpoints.
  int64_t attempted() const {
    return commits + failed + static_cast<int64_t>(checkpoint_ns.size());
  }

  void ReportCounts(Report* r) const {
    const int64_t n = std::min(commits, kCountPrefix);
    const auto per_commit = [&](int64_t total) {
      return static_cast<double>(total) /
             static_cast<double>(std::max<int64_t>(1, n));
    };
    const TxnMeter::Reading end =
        commits >= kCountPrefix ? prefix : meter.Read();
    const index::IndexStats index_end =
        commits >= kCountPrefix ? index_prefix : db->IndexStats();
    r->layer["txn.wal_bytes_per_commit"] =
        per_commit(end.wal_bytes - start.wal_bytes);
    r->layer["storage.tuples_moved_per_commit"] =
        per_commit(counts.tuples_moved);
    r->layer["storage.pages_appended_per_commit"] =
        per_commit(counts.pages_appended);
    r->layer["index.maintenance_ops_per_commit"] =
        per_commit(index_end.maintenance_ops - index_start.maintenance_ops);
    r->layer["txn.checkpoint_ms"] = Median(checkpoint_ns) / 1e6;
  }

  Run* run;
  Database* db;
  EditMix* mix;
  Tracer* tracer;
  const TxnMeter meter;
  std::vector<Sample> lat;
  std::vector<int64_t> checkpoint_ns;
  int64_t commits = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  WriteCounts counts;  // traced runs, first kCountPrefix commits
  // Meter and index readings at the start and after the exact prefix.
  TxnMeter::Reading start, prefix;
  index::IndexStats index_start, index_prefix;
};

bool CheckInvariants(Database* db, Report* r) {
  Status s = db->txn_manager().Read(
      [](const PagedStore& st) { return st.CheckInvariants(); });
  if (!s.ok()) r->Fail("CheckInvariants: " + s.ToString());
  return s.ok();
}

StatusOr<uint64_t> SerializedHash(Database* db) {
  PXQ_ASSIGN_OR_RETURN(std::string doc, db->Serialize());
  return Fnv(doc);
}

// ------------------------------------------------------- xupdate_durable

void RunXupdateDurable(Run* run) {
  Report& r = run->report;
  const Args& a = run->args;

  // The small document: the same mix on a tenth of the size, for the
  // per-commit growth ratio of paper Section 2.2. Commits alternate between
  // the two documents in blocks of kGrowthBlock, so both sides of the ratio
  // meet the same host speed, and few commits directly follow one on the
  // other document (consecutive fsyncs share the filesystem's journal).
  xmark::GeneratorOptions gen;
  gen.factor = a.small_factor;
  gen.seed = a.seed;
  const std::string small_dir = a.data_dir + "/small";
  fs::remove_all(small_dir);
  fs::create_directories(small_dir);
  auto small_db =
      Database::CreateFromXml(xmark::Generate(gen), DbOptions(small_dir));
  if (!small_db.ok()) return r.Fail("small: " + small_db.status().ToString());
  auto small_mix = EditMix::Create(small_db.value().get(), a.seed, "small");
  if (!small_mix.ok()) return r.Fail("small: " + small_mix.status().ToString());
  auto mix = EditMix::Create(run->db.get(), a.seed + 1, "write");
  if (!mix.ok()) return r.Fail(mix.status().ToString());
  Writer small(run, small_db.value().get(), small_mix.value().get(),
               run->tracer(0));
  Writer w(run, run->db.get(), mix.value().get(), run->tracer(0));

  const int64_t t0 = run->StartLoad();
  for (int64_t i = 0; !run->TimeUp(); ++i) {
    if (!((i / kGrowthBlock) % 2 == 0 ? w : small).Step()) break;
    run->gauge.MaybeSample();
  }
  LoadMetrics(run, w.lat, small.lat, t0, NowNs());
  for (const Writer* x : {&w, &small}) {
    r.attempted += x->attempted();
    r.failed += x->failed;
  }
  for (auto& e : w.errors) r.Fail(e);
  for (auto& e : small.errors) r.Fail("small: " + e);
  if (!r.errors.empty() || !CheckInvariants(small_db.value().get(), &r) ||
      !CheckInvariants(run->db.get(), &r)) {
    return;
  }
  small_db.value().reset();
  fs::remove_all(small_dir);
  auto live = SerializedHash(run->db.get());
  if (!live.ok()) return r.Fail("Serialize: " + live.status().ToString());

  const double growth = r.e2e["op_p50_us"] / r.e2e["side_p50_us"];
  w.ReportCounts(&r);
  r.layer["txn.commit_growth_x"] = growth;
  r.extra["commit_growth_x"] = growth;
  r.extra["commits"] = static_cast<double>(w.commits);
  r.extra["wal_bytes_per_commit"] = r.layer["txn.wal_bytes_per_commit"];

  // Recovery: close, then reopen from snapshot + WAL.
  const std::string dir = a.data_dir + "/db";
  run->db.reset();
  if (a.trace) {
    int64_t c0 = NowNs();
    auto rec = txn::TransactionManager::Recover(dir + "/pxq.snapshot",
                                                dir + "/pxq.wal");
    if (!rec.ok()) return r.Fail("Recover: " + rec.status().ToString());
    r.layer["txn.recover_replay_s"] = Sec(NowNs() - c0);
    c0 = NowNs();
    index::IndexManager im((index::IndexConfig()));
    im.Rebuild(*rec.value().store);
    r.layer["index.rebuild_on_open_s"] = Sec(NowNs() - c0);
  }
  const int64_t o0 = NowNs();
  auto reopened = Database::Open(DbOptions(dir));
  const double recover_s = Sec(NowNs() - o0);
  ++r.attempted;
  if (!reopened.ok()) return r.Fail("Open: " + reopened.status().ToString());
  run->db = std::move(reopened).value();
  if (run->db->recovered_commits() != w.commits % kCheckpointEvery) {
    r.Fail(StrFormat("Open replayed %lld commits, expected %lld",
                     static_cast<long long>(run->db->recovered_commits()),
                     static_cast<long long>(w.commits % kCheckpointEvery)));
  }
  auto reopened_hash = SerializedHash(run->db.get());
  if (!reopened_hash.ok() || reopened_hash.value() != live.value()) {
    r.Fail("reopened document differs from the live one");
  }
  r.layer["txn.recover_s"] = recover_s;
  r.extra["recover_s"] = recover_s;
}

// -------------------------------------------------------------- mixed_rw

void RunMixed(Run* run) {
  Report& r = run->report;
  auto mix = EditMix::Create(run->db.get(), run->args.seed + 1, "write");
  if (!mix.ok()) return r.Fail(mix.status().ToString());
  IndexMeter index(run->db.get());
  Tracer* tracers[3] = {run->tracer(0), run->tracer(1), run->tracer(2)};
  ReadClient readers[2];
  Writer writer(run, run->db.get(), mix.value().get(), tracers[2]);
  std::atomic<bool> stop{false};
  const auto stopped = [&] { return stop.load(std::memory_order_relaxed); };
  const int64_t t0 = run->StartLoad();
  {
    std::jthread w([&] {
      while (!stopped() && writer.Step()) {
      }
    });
    std::jthread r0([&] {
      readers[0].Loop(run, run->args.seed * 7919 + 1, tracers[0], stopped,
                      nullptr, nullptr);
    });
    std::jthread r1([&] {
      readers[1].Loop(run, run->args.seed * 7919 + 2, tracers[1], stopped,
                      nullptr, nullptr);
    });
    // This thread only samples the gauge, on the CPU the load leaves free.
    while (!run->TimeUp()) {
      run->gauge.MaybeSample();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    stop = true;
  }
  const int64_t t1 = NowNs();
  std::vector<Sample> reads;
  for (ReadClient& c : readers) {
    reads.insert(reads.end(), c.lookups.begin(), c.lookups.end());
    reads.insert(reads.end(), c.fixed.begin(), c.fixed.end());
    r.failed += c.failed;
    for (auto& e : c.errors) r.Fail(e);
  }
  r.attempted += static_cast<int64_t>(reads.size()) + writer.attempted();
  r.failed += writer.failed;
  for (auto& e : writer.errors) r.Fail(e);
  if (!r.errors.empty()) return;
  // Reads and commits are both end-to-end classes, so a change that favours
  // one side at the other's expense moves a metric.
  LoadMetrics(run, reads, writer.lat, t0, t1);
  index.Report(static_cast<int64_t>(reads.size()), &r.layer);
  writer.ReportCounts(&r);
  r.layer["txn.reader_waits_per_commit"] =
      writer.commits > 0
          ? static_cast<double>(writer.meter.Read().reader_waits -
                                writer.start.reader_waits) /
                static_cast<double>(writer.commits)
          : 0;
  r.extra["commits_per_s"] = static_cast<double>(writer.commits) / Sec(t1 - t0);
  // After the writer stops the store and the index must still agree.
  if (CheckInvariants(run->db.get(), &r)) {
    CheckReadsAgainstScan(run->db.get(), run->args.factor, &r);
  }
}

int Main(int argc, char** argv) {
  Run run;
  if (!ParseArgs(argc, argv, &run.args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--factor f] [--small-factor f] [--setups k] "
                 "[--data-dir d] [--trace-out f]\n");
    return 2;
  }
  const Args& a = run.args;
  run.report.workload = a.workload;
  const bool durable =
      a.workload == "xupdate_durable" || a.workload == "mixed_rw";
  std::function<void(Run*)> body;
  if (a.workload == "fig9_xmark") {
    body = RunFig9;
  } else if (a.workload == "xpath_read") {
    body = RunXpathRead;
  } else if (a.workload == "xupdate_durable") {
    body = RunXupdateDurable;
  } else if (a.workload == "mixed_rw") {
    body = RunMixed;
  } else {
    std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
    return 2;
  }
  if (durable && a.data_dir.empty()) {
    std::fprintf(stderr, "%s needs --data-dir\n", a.workload.c_str());
    return 2;
  }
  xmark::GeneratorOptions gen;
  gen.factor = a.factor;
  gen.seed = a.seed;
  run.xml = xmark::Generate(gen);
  if (Setup(&run, durable, a.workload == "fig9_xmark")) body(&run);
  if (a.trace && !a.trace_out.empty()) {
    std::vector<const Tracer*> tracers;
    for (const auto& t : run.tracers) tracers.push_back(t.get());
    if (!WriteTrace(a.trace_out, a.workload, tracers)) {
      run.report.Fail("cannot write " + a.trace_out);
    }
  }
  Report& r = run.report;
  if (!r.ok()) return 3;
  // 1 - error rate; every failure also fails a gate, so a printed result
  // reads 1. It is reported this way because a metric may not read 0.
  r.e2e["success_ratio"] =
      r.attempted > 0
          ? static_cast<double>(r.attempted - r.failed) /
                static_cast<double>(r.attempted)
          : 0;
  std::printf("%s\n", r.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace pxq::e2e

int main(int argc, char** argv) { return pxq::e2e::Main(argc, argv); }
