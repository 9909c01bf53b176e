#include "database.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"
#include "storage/shredder.h"
#include "storage/store_serializer.h"
#include "xpath/evaluator.h"

namespace pxq {

namespace {
/// CI hook: PXQ_FORCE_CROSS_CHECK=1 turns on index/scan cross-checking
/// for every database in the process, so a whole test suite can run
/// with indexed-vs-reference divergence failing the build instead of
/// only firing where a test opted in explicitly.
bool ForcedCrossCheck() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before threads start
  const char* e = std::getenv("PXQ_FORCE_CROSS_CHECK");
  return e != nullptr && e[0] != '\0' && e[0] != '0';
}

/// PXQ_PROFILE=<n> turns on 1-in-n query profiling (1 = every query)
/// and PXQ_SLOW_QUERY_MS=<ms> sets the slow-query threshold — both
/// without a rebuild or a code change, mirroring PXQ_FORCE_CROSS_CHECK.
void ApplyProfileEnvOverrides(Database::Options* opts) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before threads start
  if (const char* e = std::getenv("PXQ_PROFILE");
      e != nullptr && e[0] != '\0') {
    opts->profile_sample_n = std::atoll(e);
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read before threads start
  if (const char* e = std::getenv("PXQ_SLOW_QUERY_MS");
      e != nullptr && e[0] != '\0') {
    opts->slow_query_ms = std::atoll(e);
  }
}

std::string FormatMs(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3fms",
                static_cast<double>(ns) / 1e6);
  return buf;
}
}  // namespace

std::string Database::SnapshotPath() const {
  return options_.data_dir + "/" + options_.name + ".snapshot";
}
std::string Database::WalPath() const {
  return options_.data_dir + "/" + options_.name + ".wal";
}

StatusOr<std::unique_ptr<Database>> Database::CreateFromXml(
    std::string_view xml, Options options) {
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = std::move(options);
  if (ForcedCrossCheck()) db->options_.index.cross_check = true;
  ApplyProfileEnvOverrides(&db->options_);
  PXQ_ASSIGN_OR_RETURN(storage::DenseDocument dense, storage::ShredXml(xml));
  PXQ_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::PagedStore> store,
      storage::PagedStore::Build(std::move(dense), db->options_.store));
  db->store_ = std::move(store);
  txn::TxnOptions topts = db->options_.txn;
  if (!db->options_.data_dir.empty()) {
    PXQ_RETURN_IF_ERROR(db->store_->SaveSnapshot(db->SnapshotPath()));
    topts.wal_path = db->WalPath();
  }
  if (db->options_.index.enabled) {
    db->index_ = std::make_unique<index::IndexManager>(db->options_.index);
    db->index_->Rebuild(*db->store_);
    topts.index = db->index_.get();
  }
  PXQ_ASSIGN_OR_RETURN(db->txns_,
                       txn::TransactionManager::Create(db->store_, topts));
  db->InitObservability();
  return db;
}

StatusOr<std::unique_ptr<Database>> Database::Open(Options options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("Open requires a data_dir");
  }
  auto db = std::unique_ptr<Database>(new Database());
  db->options_ = std::move(options);
  if (ForcedCrossCheck()) db->options_.index.cross_check = true;
  ApplyProfileEnvOverrides(&db->options_);
  const auto recovery_t0 = std::chrono::steady_clock::now();
  PXQ_ASSIGN_OR_RETURN(
      txn::TransactionManager::RecoveryResult rec,
      txn::TransactionManager::Recover(db->SnapshotPath(), db->WalPath()));
  db->store_ = std::move(rec.store);
  db->recovery_replay_ns_.Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - recovery_t0)
          .count());
  db->recovery_replayed_commits_.Inc(rec.replayed_commits);
  // Fold the recovered WAL into a fresh checkpoint so the log restarts
  // empty (recovered work must not be replayed twice). The snapshot
  // carries the recovered last_lsn with no outstanding claims: every
  // future transaction's snapshot LSN will be >= last_lsn, so none can
  // need pre-recovery claim history. Ordering as in CheckpointLocked:
  // snapshot rename first, WAL reset after.
  PXQ_RETURN_IF_ERROR(
      db->store_->SaveSnapshot(db->SnapshotPath(), rec.last_lsn, {}));
  {
    PXQ_ASSIGN_OR_RETURN(std::unique_ptr<txn::Wal> wal,
                         txn::Wal::Open(db->WalPath()));
    PXQ_RETURN_IF_ERROR(wal->Reset());
  }
  txn::TxnOptions topts = db->options_.txn;
  topts.wal_path = db->WalPath();
  // Continue the LSN space where the checkpoint left off (fresh LSNs
  // must stay above the snapshot's recorded last_lsn, or recovery
  // would skip them as already-absorbed).
  topts.start_lsn = rec.last_lsn;
  if (db->options_.index.enabled) {
    // Recovery path: the WAL replay reconstructed the base store, so
    // the secondary indexes are re-derived from a single full scan.
    db->index_ = std::make_unique<index::IndexManager>(db->options_.index);
    db->index_->Rebuild(*db->store_);
    topts.index = db->index_.get();
  }
  PXQ_ASSIGN_OR_RETURN(db->txns_,
                       txn::TransactionManager::Create(db->store_, topts));
  db->InitObservability();
  return db;
}

void Database::InitObservability() {
  obs::Profiler::Options popts;
  popts.sample_n = options_.profile_sample_n;
  popts.slow_ns = options_.slow_query_ms * 1'000'000;
  profiler_ = std::make_unique<obs::Profiler>(popts);
  // One registry, many owners: every subsystem registers REFERENCES to
  // the counters/histograms its hot paths already bump, plus callback
  // groups for mutex-guarded derived values. The registry is just the
  // catalog — there is exactly one set of atomics.
  profiler_->RegisterMetrics(&metrics_);
  plan_cache_.RegisterMetrics(&metrics_);
  if (index_ != nullptr) index_->RegisterMetrics(&metrics_);
  txns_->RegisterMetrics(&metrics_);
  // Recovery metrics live on the Database (recovery runs before the
  // manager exists). Registered unconditionally for stable keys; a
  // fresh CreateFromXml database reports zeros.
  metrics_.RegisterHistogram("pxq_recovery_replay_ns", &recovery_replay_ns_);
  metrics_.RegisterCounter("pxq_recovery_replayed_commits",
                           &recovery_replayed_commits_);
}

StatusOr<std::vector<PreId>> Database::Query(std::string_view xpath) {
  // Sampling off: ShouldSample is one relaxed load; the evaluation
  // below is byte-identical to the pre-profiler path (trace == nullptr
  // inside the executor).
  if (profiler_->ShouldSample()) {
    return QueryProfiled(xpath, nullptr);
  }
  return txns_->Read([&](const storage::PagedStore& s) {
    return xpath::EvaluatePath(s, xpath, index_.get(), &plan_cache_);
  });
}

StatusOr<std::vector<PreId>> Database::QueryProfiled(
    std::string_view xpath, obs::QuerySpan* span_out) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  auto traced = txns_->Read(
      [&](const storage::PagedStore& s)
          -> StatusOr<
              xpath::Evaluator<storage::PagedStore>::TracedResult> {
        xpath::Evaluator<storage::PagedStore> ev(s, index_.get(),
                                                 &plan_cache_);
        return ev.EvalTraced(xpath);
      });
  obs::QuerySpan span;
  span.text = std::string(xpath);
  span.total_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
  if (traced.ok()) {
    const auto& tr = traced.value();
    span.cache_hit = tr.cache_hit;
    span.compile_ns = tr.compile_ns;
    span.result_count = static_cast<int64_t>(tr.nodes.size());
    span.ops.reserve(tr.trace.size());
    for (const xpath::OpTrace& t : tr.trace) {
      span.ops.push_back({t.op, tr.plan->DescribeOp(t.op), t.strategy,
                          t.in, t.out, t.wall_ns, t.index_probes});
    }
  } else {
    span.ok = false;
    span.error = traced.status().ToString();
  }
  if (span_out != nullptr) *span_out = span;
  profiler_->RecordSpan(std::move(span));
  if (!traced.ok()) return traced.status();
  return std::move(traced.value().nodes);
}

StatusOr<std::string> Database::Profile(std::string_view xpath) {
  obs::QuerySpan span;
  auto res = QueryProfiled(xpath, &span);
  std::string out = "profile for " + std::string(xpath) + "\n";
  if (!res.ok()) {
    return out + "  error: " + res.status().ToString() + "\n";
  }
  out += "  plan: " + std::string(span.cache_hit ? "cache hit" : "compiled");
  if (!span.cache_hit) out += " in " + FormatMs(span.compile_ns);
  out += "\n";
  for (const obs::OpProfile& op : span.ops) {
    out += "  " + std::to_string(op.op + 1) + ". " + op.describe + " -> " +
           op.strategy + ", in=" + std::to_string(op.in) +
           " out=" + std::to_string(op.out) +
           " probes=" + std::to_string(op.index_probes) + " t=" +
           FormatMs(op.wall_ns) + "\n";
  }
  out += "  total: " + FormatMs(span.total_ns) + ", " +
         std::to_string(span.result_count) + " nodes\n";
  return out;
}

StatusOr<std::vector<std::string>> Database::QueryStrings(
    std::string_view xpath) {
  return txns_->Read(
      [&](const storage::PagedStore& s)
          -> StatusOr<std::vector<std::string>> {
        xpath::Evaluator<storage::PagedStore> ev(s, index_.get(),
                                                 &plan_cache_);
        return ev.EvalStrings(xpath);
      });
}

StatusOr<std::string> Database::Explain(std::string_view xpath) {
  return txns_->Read(
      [&](const storage::PagedStore& s) -> StatusOr<std::string> {
        xpath::Evaluator<storage::PagedStore> ev(s, index_.get(),
                                                 &plan_cache_);
        return ev.Explain(xpath);
      });
}

StatusOr<std::string> Database::Serialize(PreId root, bool pretty) {
  return txns_->Read(
      [&](const storage::PagedStore& s) -> StatusOr<std::string> {
        return storage::SerializeSubtree(s, root == kNullPre ? s.Root()
                                                             : root,
                                         pretty);
      });
}

StatusOr<xupdate::ApplyStats> Database::Update(std::string_view xupdate_doc,
                                               int retries) {
  Status last = Status::OK();
  // A retry first waits for the page the failed attempt lost on, so it
  // queues behind that commit instead of racing the next writer to the
  // same page with an already stale snapshot.
  PageId contested = -1;
  for (int attempt = 0; attempt <= retries; ++attempt) {
    PXQ_ASSIGN_OR_RETURN(std::unique_ptr<txn::Transaction> t,
                         txns_->Begin(contested));
    auto stats = xupdate::ApplyXUpdate(t->store(), xupdate_doc);
    contested = t->contested_page();
    if (!stats.ok()) {
      t->Abort().ok();
      if (stats.status().IsConflict()) {
        last = stats.status();
        continue;  // retry
      }
      return stats.status();
    }
    Status c = t->Commit();
    if (c.ok()) return stats.value();
    last = c;
    if (!c.IsAborted() && !c.IsConflict()) return c;
  }
  return Status::Aborted(StrFormat("update failed after %d attempts: %s",
                                   retries + 1, last.ToString().c_str()));
}

StatusOr<std::unique_ptr<DbTransaction>> Database::Begin() {
  PXQ_ASSIGN_OR_RETURN(std::unique_ptr<txn::Transaction> t, txns_->Begin());
  return std::unique_ptr<DbTransaction>(
      new DbTransaction(std::move(t), &plan_cache_, index_.get()));
}

Status Database::Checkpoint() {
  if (options_.data_dir.empty()) {
    return Status::InvalidArgument("not a durable database");
  }
  return txns_->Checkpoint(SnapshotPath());
}

// Transaction queries share the database's compiled plans: the clone
// shares the qname pool (ids are globally consistent) and the cache's
// epoch validation catches names this or any transaction interned. The
// index stays detached — it describes the committed base, so indexed
// operators take their scan fallbacks here, exactly as before.
StatusOr<std::vector<PreId>> DbTransaction::Query(std::string_view xpath) {
  xpath::Evaluator<storage::PagedStore> ev(*txn_->store(), nullptr,
                                           plan_cache_, plan_env_);
  return ev.Eval(xpath);
}

StatusOr<std::vector<std::string>> DbTransaction::QueryStrings(
    std::string_view xpath) {
  xpath::Evaluator<storage::PagedStore> ev(*txn_->store(), nullptr,
                                           plan_cache_, plan_env_);
  return ev.EvalStrings(xpath);
}

StatusOr<xupdate::ApplyStats> DbTransaction::Update(
    std::string_view xupdate_doc) {
  return xupdate::ApplyXUpdate(txn_->store(), xupdate_doc);
}

}  // namespace pxq
