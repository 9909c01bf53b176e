// pxq::Database — the top-level public API: an updatable XML database on
// the pre/post (pre/size/level) plane, as in MonetDB/XQuery.
//
//   auto db = pxq::Database::CreateFromXml(xml, options).value();
//   auto nodes = db->Query("/site/people/person[@id='person0']/name");
//   auto text  = db->QueryStrings("//item/name");
//   db->Update(xupdate_document);              // auto-commit transaction
//   auto txn = db->Begin().value();            // explicit transaction
//   txn->Update(...); txn->Query(...); txn->Commit();
//
// With Options::durable set, every commit is WAL-logged and
// Database::Open() recovers snapshot + WAL after a crash.
#ifndef PXQ_DATABASE_H_
#define PXQ_DATABASE_H_

#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "storage/paged_store.h"
#include "txn/txn_manager.h"
#include "xpath/plan_cache.h"
#include "xupdate/apply.h"

namespace pxq {

class DbTransaction;

class Database {
 public:
  struct Options {
    storage::PagedStore::Config store;
    /// Durability: directory for <name>.snapshot / <name>.wal. Empty =>
    /// in-memory only.
    std::string data_dir;
    std::string name = "pxq";
    txn::TxnOptions txn;
    /// Secondary indexes (qname postings + value/attribute dictionaries
    /// + the (parent, self) qname pair path index) consulted by
    /// Query/QueryStrings; maintained in place through commits,
    /// rebuilt on Open(). Probes read the index lock-free under the
    /// database's shared lock. Disable (`index.enabled = false`) to
    /// always scan. Environment override applied at Create/Open:
    /// PXQ_FORCE_CROSS_CHECK=1 flips `index.cross_check` on for every
    /// database in the process (CI leg: the whole suite runs with
    /// divergence detection).
    index::IndexConfig index;
    /// Query profiling sample rate: 0 = off (the default — Query pays
    /// one relaxed atomic load and nothing else), N = every Nth query
    /// runs traced (per-operator wall-time, cardinalities, probe
    /// counts) and files a span into the profiler's ring buffer; 1 =
    /// every query. Environment override: PXQ_PROFILE=<n>.
    int64_t profile_sample_n = 0;
    /// Sampled spans at or above this total wall-time also enter the
    /// slow-query log. Environment override: PXQ_SLOW_QUERY_MS=<ms>.
    int64_t slow_query_ms = 50;
  };

  /// Shred an XML document into a fresh database. With durability
  /// enabled an initial checkpoint snapshot is written.
  static StatusOr<std::unique_ptr<Database>> CreateFromXml(
      std::string_view xml, Options options);
  static StatusOr<std::unique_ptr<Database>> CreateFromXml(
      std::string_view xml) {
    return CreateFromXml(xml, Options());
  }

  /// Re-open a durable database: load the snapshot, redo the WAL.
  static StatusOr<std::unique_ptr<Database>> Open(Options options);

  // --- queries (run under the global read lock) -----------------------
  // Queries ride the compile-once pipeline: the text is compiled to a
  // plan (xpath/plan.h) exactly once and cached process-wide in this
  // database's plan cache, epoch-validated against the qname pool —
  // repeated queries pay a hash lookup, not a re-parse + re-plan.
  StatusOr<std::vector<PreId>> Query(std::string_view xpath);
  StatusOr<std::vector<std::string>> QueryStrings(std::string_view xpath);
  /// Observability: the compiled plan's operator list with the strategy
  /// the executor actually took per operator, and whether the plan came
  /// from the cache. Executes the query (with tracing) to do so.
  StatusOr<std::string> Explain(std::string_view xpath);
  /// Measured per-operator profile: like Explain but with wall-time,
  /// input/output cardinalities, and index-probe counts per operator
  /// (same operator list — both render the executor's trace). Always
  /// traces regardless of the sampling knob, and files the span into
  /// the profiler (so it shows up in slow-query logs and pxq_query_ns).
  StatusOr<std::string> Profile(std::string_view xpath);
  /// Serialize the whole document (or a subtree rooted at `root`).
  StatusOr<std::string> Serialize(PreId root = kNullPre,
                                  bool pretty = false);

  // --- updates ----------------------------------------------------------
  /// Parse and apply an XUpdate document in one transaction; retries
  /// `retries` times on conflict, each retry queued behind the commit
  /// it lost to (TransactionManager::Begin). Gives up with Aborted,
  /// stating the number of attempts.
  StatusOr<xupdate::ApplyStats> Update(std::string_view xupdate_doc,
                                       int retries = 5);

  /// Explicit transaction control.
  StatusOr<std::unique_ptr<DbTransaction>> Begin();

  /// Checkpoint: write a snapshot, truncate the WAL (durable mode
  /// only). Crash-atomic — see TransactionManager::Checkpoint. Note
  /// the whole store serializes while commits wait: writers stall for
  /// the full pxq_checkpoint_ns duration, readers keep going.
  Status Checkpoint();

  storage::PagedStore& store() { return txns_->base(); }
  txn::TransactionManager& txn_manager() { return *txns_; }

  /// Durability status (the `xq stats` durability line).
  bool durable() const { return txns_->durable(); }
  /// Commits replayed from the WAL by the last Open() (0 for a fresh
  /// CreateFromXml database).
  int64_t recovered_commits() const {
    return recovery_replayed_commits_.Value();
  }

  /// Secondary-index observability (zeroed stats when disabled) —
  /// includes shard/snapshot publication counters, planner hit counters
  /// for the child-step and path-prefix plans, and the plan-cache
  /// counters (plan_hits / plan_misses / plan_evictions, live even
  /// with the index disabled — the plan cache is independent of it).
  ///
  /// Snapshot coherence: each half is internally consistent — the
  /// plan-cache triple is one mutex-guarded copy (hits + misses equals
  /// completed lookups exactly), and the index's derived hit counters
  /// read declines before probes so hits stay within [0, probes] even
  /// mid-traffic (see IndexManager::Stats). Cross-subsystem skew
  /// between the two halves is inherent to lock-free counters and
  /// bounded by the in-flight queries at snapshot time.
  index::IndexStats IndexStats() const {
    // Plan-cache stats FIRST: a query increments its plan counter
    // before issuing any probe, so sampling plans before probes keeps
    // "probes implied by counted plans" >= "probes counted" — the
    // conservative direction for hit-rate math.
    const xpath::PlanCache::Stats ps = plan_cache_.stats();
    index::IndexStats s = index_ ? index_->Stats() : index::IndexStats{};
    s.plan_hits = ps.hits;
    s.plan_misses = ps.misses;
    s.plan_evictions = ps.evictions;
    return s;
  }
  /// Global-lock acquire/contention counters (reader vs writer waits).
  txn::GlobalLock::Stats LockStats() const { return txns_->lock_stats(); }
  /// The compiled-plan cache shared by queries and transactions.
  xpath::PlanCache& plan_cache() { return plan_cache_; }
  /// The database's index (nullptr when disabled). Probes are only
  /// valid against the committed base store under the global read lock.
  index::IndexManager* index_manager() { return index_.get(); }

  // --- unified observability ------------------------------------------
  /// Point-in-time snapshot of every registered metric: the index's
  /// probe counters, plan-cache hit/miss/compile-time, global-lock
  /// contention (wait-time histograms), commit-window and WAL append
  /// latencies, and the profiler's query-latency histogram — all read
  /// from the same atomics the hot paths bump.
  obs::MetricsSnapshot Metrics() const { return metrics_.Snapshot(); }
  /// Machine-readable snapshot with stable keys (`xq stats --json`).
  std::string StatsJson() const { return metrics_.Snapshot().ToJson(); }
  /// Prometheus text exposition, scrape-ready for a server front end.
  std::string MetricsText() const { return metrics_.PrometheusText(); }
  /// The profiler: sampled query spans, ring buffers, slow-query log.
  obs::Profiler& profiler() { return *profiler_; }

 private:
  Database() = default;
  std::string SnapshotPath() const;
  std::string WalPath() const;
  /// Build the profiler and register every subsystem's metrics; called
  /// once at the end of CreateFromXml/Open, after all components exist.
  void InitObservability();
  /// The traced query path (sampled queries and Profile): evaluates
  /// with tracing, files a QuerySpan, optionally hands the span back.
  StatusOr<std::vector<PreId>> QueryProfiled(std::string_view xpath,
                                             obs::QuerySpan* span_out);
  /// Count one finished Query/QueryStrings call started at `t0`.
  void NoteQuery(std::chrono::steady_clock::time_point t0, bool ok) const;

  /// Declared FIRST so it is destroyed LAST: the registry holds raw
  /// pointers to counters owned by the components below.
  obs::MetricsRegistry metrics_;
  /// Recovery observability, owned here because recovery runs before
  /// the TransactionManager exists: wall time of the Open() replay
  /// (snapshot load + WAL redo) and how many commits it replayed.
  obs::Histogram recovery_replay_ns_;
  obs::Counter recovery_replayed_commits_;
  /// Every Query/QueryStrings call, sampled or not: its wall time (lock
  /// wait included; the count is the number of queries), and how many
  /// returned an error. pxq_query_ns holds the sampled spans only.
  obs::Counter query_errors_;
  obs::Histogram query_latency_ns_;
  /// Update() attempts after the first, and calls that gave up with
  /// Aborted once their retries ran out.
  obs::Counter update_retries_;
  obs::Counter update_failures_;
  /// Update() selects resolved on the indexed base (the first command
  /// of each attempt) and on the transaction's clone (the commands
  /// after it, counted once the attempt applied them all).
  obs::Counter update_selects_base_;
  obs::Counter update_selects_clone_;
  Options options_;
  std::shared_ptr<storage::PagedStore> store_;
  std::unique_ptr<index::IndexManager> index_;
  std::unique_ptr<txn::TransactionManager> txns_;
  /// Compiled-plan cache: shared across reader threads AND transactions
  /// (plans compiled against the indexed base execute correctly on an
  /// index-less transaction clone — every operator carries a scan
  /// fallback). Entries are epoch-validated against the shared qname
  /// pool, so a transaction interning new names invalidates exactly the
  /// plans that baked a missing name.
  xpath::PlanCache plan_cache_;
  std::unique_ptr<obs::Profiler> profiler_;
};

/// Explicit transaction wrapper: queries and updates against the
/// transaction's private snapshot, then Commit()/Abort().
class DbTransaction {
 public:
  StatusOr<std::vector<PreId>> Query(std::string_view xpath);
  StatusOr<std::vector<std::string>> QueryStrings(std::string_view xpath);
  StatusOr<xupdate::ApplyStats> Update(std::string_view xupdate_doc);
  Status Commit() { return txn_->Commit(); }
  Status Abort() { return txn_->Abort(); }

 private:
  friend class Database;
  DbTransaction(std::unique_ptr<txn::Transaction> txn,
                xpath::PlanCache* plan_cache,
                const index::IndexManager* plan_env)
      : txn_(std::move(txn)),
        plan_cache_(plan_cache),
        plan_env_(plan_env) {}
  std::unique_ptr<txn::Transaction> txn_;
  /// The owning database's plan cache: transaction queries share the
  /// compiled plans (executed without the index — it describes the
  /// committed base, not this clone — so indexed operators take their
  /// scan fallbacks). `plan_env_` is the database's compile
  /// environment, so lookups and compiles agree on the fingerprint.
  xpath::PlanCache* plan_cache_ = nullptr;
  const index::IndexManager* plan_env_ = nullptr;
};

}  // namespace pxq

#endif  // PXQ_DATABASE_H_
