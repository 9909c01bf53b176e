// bench_e2e: the end-to-end benchmark binary. One process runs one
// workload against pxq::Database and prints one JSON object with its
// metrics; run.py builds the binary, runs it and checks the output.
//
// Shared pieces: timing helpers, the span tracer (traced runs only), the
// report every workload fills, the XPath read mix and the XUpdate edit
// mix. Workloads live in main.cc.
#ifndef PXQ_BENCH_E2E_BENCH_E2E_H_
#define PXQ_BENCH_E2E_BENCH_E2E_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "database.h"

namespace pxq::e2e {

// --------------------------------------------------------------- timing

/// Nanoseconds since the process started (steady clock).
int64_t NowNs();

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples;
/// 0 for an empty sample.
template <typename T>
double Percentile(std::vector<T> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(samples[lo]) * (1 - frac) +
         static_cast<double>(samples[hi]) * frac;
}

/// FNV-1a, chainable through `h`.
uint64_t Fnv(std::string_view s, uint64_t h = 1469598103934665603ULL);

/// Host-speed gauge. The host is shared, and the memory bandwidth other
/// tenants leave this process changes from second to second by up to 1.5x;
/// every workload slows with it. A sample flushes a 4 MiB buffer out of
/// the caches and times one sequential pass over it, so it reads the memory
/// bandwidth of the moment and not what this process left in the caches.
/// End-to-end timings are scaled by kRefNs over the gauge read near them
/// (README, "Host-speed gauge").
class HostGauge {
 public:
  /// A scaled timing reads as on a host where one sample takes this long.
  static constexpr int64_t kRefNs = 500'000;
  /// MaybeSample() samples at most once per this period. A sample takes
  /// about 8 ms, nearly all of it the flush, so this costs about 3% of the
  /// load; the host's speed changes over seconds, not milliseconds.
  static constexpr int64_t kPeriodNs = 250'000'000;

  HostGauge();
  /// Takes one sample. Not thread-safe: one thread samples a run.
  void Sample();
  void MaybeSample() {
    if (samples_.empty() || NowNs() - samples_.back().end_ns >= kPeriodNs) {
      Sample();
    }
  }
  /// kRefNs over the median of the five samples nearest to time `t`.
  double ScaleAt(int64_t t) const;
  /// kRefNs over the median of the samples taken in [t0, t1].
  double Scale(int64_t t0, int64_t t1) const;
  /// The median sample of the run, in ms.
  double MedianMs() const;

 private:
  struct Reading {
    int64_t end_ns;
    int64_t ns;
  };
  double ScaleOf(std::vector<int64_t> ns) const;

  std::vector<uint64_t> buf_;
  std::vector<Reading> samples_;  // in time order
  uint64_t sink_ = 0;
};

// ---------------------------------------------------------------- trace

/// One timed call into a layer. `parent` is 0 for an operation's root
/// span. `name` points into the recording tracer's name table.
struct Span {
  int64_t id = 0;
  int64_t op = 0;
  int64_t parent = 0;
  std::string_view name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-thread span recorder. Spans stay in memory; WriteTrace() dumps
/// them at exit. To bound memory on long runs the tracer keeps every
/// `stride`-th operation and doubles the stride (dropping every other
/// kept operation) whenever the buffer passes its cap, so the kept
/// operations stay an even sample of the whole run.
class Tracer {
 public:
  Tracer(bool enabled, int thread_index);

  /// Starts the next operation; spans are kept only when it is sampled.
  void BeginOp();
  bool sampled() const { return sampled_; }
  /// Opens a span (end filled by Close); returns its id, 0 if unsampled.
  int64_t Open(std::string_view name, int64_t parent, int64_t start_ns);
  void Close(int64_t id, int64_t end_ns);
  /// Records a finished span; returns its id, 0 if unsampled.
  int64_t Add(std::string_view name, int64_t parent, int64_t start_ns,
              int64_t end_ns);
  /// Ends the operation; may decimate the buffer.
  void EndOp();

  const std::vector<Span>& spans() const { return spans_; }

 private:
  static constexpr size_t kMaxSpans = 150000;

  bool enabled_;
  bool sampled_ = false;
  int64_t id_base_;
  int64_t next_id_ = 1;
  int64_t op_ = 0;
  int64_t stride_ = 1;
  std::set<std::string, std::less<>> names_;
  std::vector<Span> spans_;
};

/// Writes every tracer's spans to `path` as
/// {"fields": [...], "spans": [[id, op, parent, name, start, end], ...]}.
bool WriteTrace(const std::string& path, const std::string& workload,
                const std::vector<const Tracer*>& tracers);

// --------------------------------------------------------------- report

/// What a workload run produces: correctness, operation counts, and the
/// metric maps run.py turns into its output.
struct Report {
  std::string workload;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // correctness-gate failures
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, double> extra;

  /// Records a correctness-gate failure (the run then exits non-zero).
  void Fail(std::string msg);
  bool ok() const { return errors.empty() && failed == 0; }
  std::string ToJson() const;
};

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb();

// ------------------------------------------------------------ read mix

/// One of the twelve read templates (reads.cc).
struct Template {
  const char* name;
  const char* pattern;  // "{N}" marks the seeded parameter
  enum class Param { kNone, kPerson, kAuction, kCategory } param;
  bool count_only;  // Database::Query instead of QueryStrings
  int weight;
};
const std::vector<Template>& Templates();

/// One read drawn from the mix.
struct ReadOp {
  const Template* tpl;
  std::string text;
};

/// The seeded, weighted read stream.
class ReadMix {
 public:
  ReadMix(uint64_t seed, double factor);
  ReadOp Next();
  /// The template's text with parameter `n`.
  static std::string Text(const Template& t, int64_t n);
  /// A few parameters per template for the index-vs-scan gate.
  std::vector<int64_t> GateParams(const Template& t) const;

 private:
  int64_t Range(Template::Param p) const;

  Random rng_;
  int64_t persons_, auctions_, categories_;
  int total_weight_ = 0;
};

/// A read's answer: node ids (count-only templates) or string values.
struct ReadResult {
  std::vector<PreId> nodes;
  std::vector<std::string> values;
  uint64_t Hash() const;
};

/// Runs one read through the public API.
StatusOr<ReadResult> RunRead(Database* db, const ReadOp& op);
/// The same read split into timed layer calls (lock wait, compile, each
/// plan operator, materialization) recorded under an operation span.
StatusOr<ReadResult> RunReadTraced(Database* db, const ReadOp& op,
                                   Tracer* tracer);
/// Index-vs-scan gate: every template (with GateParams) evaluated through
/// the database equals the scan-only evaluator over the same store.
void CheckReadsAgainstScan(Database* db, double factor, Report* report);

// ----------------------------------------------------------- edit mix

/// An XUpdate request with the ApplyStats it must produce.
struct Edit {
  const char* kind;       // bid_append, bid_remove, price_update, ...
  std::string root_span;  // "<prefix>.<kind>"
  std::string doc;
  xupdate::ApplyStats expect;
};

/// The seeded edit mix: bid append 40%, first-bid remove 20%, price text
/// update 20%, item append under a region 10%, attribute update 10%. It
/// tracks each auction's bidder count so every edit has a known effect.
class EditMix {
 public:
  /// Reads the document's auctions and profiles from `db`.
  static StatusOr<std::unique_ptr<EditMix>> Create(Database* db,
                                                   uint64_t seed,
                                                   std::string span_prefix);
  Edit Next();

 private:
  EditMix(uint64_t seed, std::string span_prefix);

  Random rng_;
  std::string prefix_;
  std::vector<std::string> auction_ids_;
  std::vector<int64_t> bidders_;          // per auction
  std::vector<size_t> with_bidders_;      // auctions with bidders > 0
  std::vector<size_t> slot_;              // position in with_bidders_
  std::vector<std::string> profile_ids_;  // persons with a profile
  int64_t closed_auctions_ = 0;
  int64_t persons_ = 0;
  int64_t categories_ = 0;
  int64_t next_item_ = 0;
};

/// Reads the txn layer's histograms and counters without the index's
/// structure walk that Database::Metrics() performs.
class TxnMeter {
 public:
  explicit TxnMeter(Database* db);
  struct Reading {
    int64_t window_ns = 0;
    int64_t wal_ns = 0;
    int64_t wal_bytes = 0;
    int64_t writer_wait_ns = 0;
    int64_t reader_waits = 0;
    int64_t apply_dirty_ns = 0;
  };
  Reading Read() const;

 private:
  Database* db_;
  obs::MetricsRegistry reg_;
};

/// Per-commit counts measured on the traced write path.
struct WriteCounts {
  int64_t tuples_moved = 0;
  int64_t pages_appended = 0;
};

/// Runs one edit through Database::Update and checks its ApplyStats.
Status RunEdit(Database* db, const Edit& edit);
/// The same edit split into Begin, ParseXUpdate, ApplyUpdates and Commit,
/// with the commit window split by the txn layer's histogram deltas.
Status RunEditTraced(Database* db, const Edit& edit, const TxnMeter& meter,
                     Tracer* tracer, WriteCounts* counts);

}  // namespace pxq::e2e

#endif  // PXQ_BENCH_E2E_BENCH_E2E_H_
