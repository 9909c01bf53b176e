#include "txn/txn_manager.h"

#include <algorithm>

#include "index/index_manager.h"

namespace pxq::txn {

using storage::ContentPools;
using storage::OpLog;
using storage::PagedStore;

// ---------------------------------------------------------------------------
// TransactionManager
// ---------------------------------------------------------------------------

TransactionManager::TransactionManager(std::shared_ptr<PagedStore> base,
                                       TxnOptions options)
    : base_(std::move(base)),
      options_(std::move(options)),
      global_(options_.reader_slots),
      page_locks_(options_.lock_timeout),
      commit_lsn_(options_.start_lsn),
      pool_mark_(base_->pools().Sizes()) {}

StatusOr<std::unique_ptr<TransactionManager>> TransactionManager::Create(
    std::shared_ptr<PagedStore> base, TxnOptions options) {
  auto mgr = std::unique_ptr<TransactionManager>(
      new TransactionManager(std::move(base), std::move(options)));
  if (!mgr->options_.wal_path.empty()) {
    PXQ_ASSIGN_OR_RETURN(mgr->wal_, Wal::Open(mgr->options_.wal_path));
  }
  return mgr;
}

StatusOr<std::unique_ptr<Transaction>> TransactionManager::Begin(
    PageId contested,
    const std::function<void(const PagedStore&)>& with_base) {
  TxnId id = next_txn_id_.fetch_add(1);
  if (contested >= 0) {
    // The page lock is released only after the holder's commit applied,
    // so the snapshot below includes it. Holding nothing else, this
    // wait cannot deadlock; a timeout just forgoes the head start.
    page_locks_.Acquire(id, contested).ok();
  }
  {
    // Wait out an in-flight commit batch: its records may already be
    // durable, so a snapshot taken before it applies starts stale, and
    // writes to its pages would conflict at the first page write.
    MutexLock wait(&commit_mu_);
  }
  uint64_t snapshot;
  std::unique_ptr<PagedStore> clone;
  {
    // Clone under the shared lock: the base must not be mid-commit. The
    // snapshot must also be registered before the guard drops, or a
    // concurrent commit could trim committed deltas this transaction
    // still needs for its commit-time fixup.
    GlobalLock::ReadGuard guard(&global_);
    snapshot = commit_lsn_.load();
    clone = base_->Clone();
    if (with_base) with_base(*base_);
    MutexLock lock(&meta_mu_);
    active_snapshots_[id] = snapshot;
  }
  auto txn = std::unique_ptr<Transaction>(
      new Transaction(this, id, snapshot, std::move(clone)));
  Transaction* raw = txn.get();
  txn->clone_->AttachOpLog(&txn->oplog_, [this, raw](PageId page) {
    return OnFirstPageWrite(raw, page);
  });
  if (options_.index != nullptr) {
    txn->clone_->AttachIndexDelta(&txn->idx_delta_);
  }
  return txn;
}

Status TransactionManager::OnFirstPageWrite(Transaction* txn, PageId page) {
  // Incremental strict-2PL acquisition (Fig. 8: "write-lock all pages
  // that need to be updated ... incrementally").
  Status s = page_locks_.Acquire(txn->id(), page);
  if (!s.ok()) {
    txn->poisoned_ = s;
    txn->contested_page_ = page;
    return s;
  }
  // First-updater-wins: a page structurally committed after our snapshot
  // means our copy-on-write image would clobber that commit.
  MutexLock lock(&meta_mu_);
  auto it = page_version_.find(page);
  if (it != page_version_.end() && it->second > txn->snapshot_lsn()) {
    txn->poisoned_ = Status::Conflict(
        "page was structurally modified by a newer commit");
    txn->contested_page_ = page;
    return txn->poisoned_;
  }
  return Status::OK();
}

Status TransactionManager::CommitInternal(Transaction* txn) {
  if (!txn->poisoned_.ok()) {
    Status reason = txn->poisoned_;
    EndTransaction(txn);
    return Status::Aborted("transaction poisoned: " + reason.ToString());
  }
  if (txn->oplog_.empty()) {
    EndTransaction(txn);  // read-only transaction
    return Status::OK();
  }
  // Consistency stage (Fig. 8: document validation before commit).
  if (options_.validate_on_commit) {
    Status valid = txn->clone_->CheckInvariants();
    if (!valid.ok()) {
      EndTransaction(txn);
      return Status::Aborted("validation failed: " + valid.ToString());
    }
  }

  // Without a WAL nothing is logged, so there is nothing to capture.
  std::vector<PoolDelta> pool_delta;
  if (wal_ != nullptr) {
    txn->oplog_.SealRanges();
    pool_delta = CapturePoolDelta(*txn);
  }

  // Group commit: take a seat in the queue. Whoever finds no leader
  // becomes one and commits batches until the queue drains; everyone
  // else waits for their verdict. Batches form naturally from commits
  // arriving while a leader is mid-window; group_commit_window_us adds
  // an explicit pile-up wait for bursty workloads.
  PendingCommit req;
  req.txn = txn;
  req.pool_delta = &pool_delta;
  {
    MutexLock l(&gc_mu_);
    gc_queue_.push_back(&req);
    if (gc_leader_active_) {
      while (!req.done) gc_cv_.Wait(l);
      return req.result;
    }
    gc_leader_active_ = true;
    if (options_.group_commit_window_us > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.group_commit_window_us);
      while (std::chrono::steady_clock::now() < deadline) {
        gc_cv_.WaitUntil(l, deadline);
      }
    }
  }
  for (;;) {
    std::vector<PendingCommit*> batch;
    {
      MutexLock l(&gc_mu_);
      batch.swap(gc_queue_);
    }
    CommitBatch(batch);
    MutexLock l(&gc_mu_);
    for (PendingCommit* r : batch) r->done = true;
    gc_cv_.NotifyAll();
    if (gc_queue_.empty()) {
      gc_leader_active_ = false;
      break;
    }
    // Committers arrived while the batch was in flight: lead one more
    // round instead of waking a follower to re-elect.
  }
  return req.result;
}

std::vector<PoolDelta> TransactionManager::CapturePoolDelta(
    const Transaction& txn) {
  // Log exactly the pool entries the oplog references (logged page
  // tuples and attribute ops) that the last snapshot may lack: ids at
  // or above the watermark. Tuples outside a page image's changed
  // range are unchanged since the snapshot, so the checkpoint snapshot
  // or an earlier record already holds their entries. Capturing the
  // id interval above the watermark instead would miss entries first
  // interned by a concurrent transaction that aborted (deduplicating
  // pools hand out such ids); logging referenced entries is complete
  // and idempotent across records. A watermark read before a
  // concurrent checkpoint moves it only logs more than needed.
  ContentPools::PoolSizes mark;
  {
    MutexLock lock(&meta_mu_);
    mark = pool_mark_;
  }
  using Kind = ContentPools::PoolKind;
  std::vector<std::pair<Kind, int32_t>> refs;
  const auto add = [&](Kind kind, int32_t id) {
    if (id >= mark.sizes[static_cast<int>(kind)]) refs.emplace_back(kind, id);
  };
  const auto add_tuples = [&](const storage::Page& pg, size_t lo,
                              size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      if (pg.level[i] == kNullLevel || pg.ref[i] < 0) continue;
      switch (static_cast<NodeKind>(pg.kind[i])) {
        case NodeKind::kElement: add(Kind::kQname, pg.ref[i]); break;
        case NodeKind::kText: add(Kind::kText, pg.ref[i]); break;
        case NodeKind::kComment: add(Kind::kComment, pg.ref[i]); break;
        case NodeKind::kPi: add(Kind::kPi, pg.ref[i]); break;
        default: break;
      }
    }
  };
  for (const auto& pi : txn.oplog_.page_images) {
    add_tuples(*pi.image, static_cast<size_t>(pi.lo),
               static_cast<size_t>(pi.hi));
  }
  for (const auto& pa : txn.oplog_.page_appends) {
    add_tuples(*pa.image, 0, pa.image->level.size());
  }
  for (const auto& op : txn.oplog_.attr_ops) {
    if (op.qname >= 0) add(Kind::kQname, op.qname);
    if (op.prop >= 0) add(Kind::kProp, op.prop);
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  std::vector<PoolDelta> out;
  out.reserve(refs.size());
  for (const auto& [kind, id] : refs) {
    out.push_back({kind, id, base_->pools().Entry(kind, id)});
  }
  return out;
}

void TransactionManager::CommitBatch(
    const std::vector<PendingCommit*>& batch) {
  MutexLock commit_lock(&commit_mu_);
  const uint64_t base_lsn = commit_lsn_.load();

  // Atomicity: the batch's single fsynced WAL append is the commit
  // point for every member (the paper's single-I/O commit, amortized
  // across the group). It runs before the exclusive window, so readers
  // keep going through the fsync; the commit mutex keeps Checkpoint
  // from resetting the WAL until the batch has applied. Page locks
  // held until EndTransaction guarantee members touch disjoint pages,
  // so applying them back to back inside one window is equivalent to
  // consecutive solo windows.
  if (wal_ != nullptr) {
    std::vector<Wal::BatchEntry> entries;
    entries.reserve(batch.size());
    uint64_t lsn = base_lsn;
    for (PendingCommit* r : batch) {
      entries.push_back({r->txn->id(), r->txn->snapshot_lsn(), ++lsn,
                         &r->txn->oplog_, r->pool_delta});
    }
    Status s = wal_->AppendBatch(entries);
    if (!s.ok()) {
      for (PendingCommit* r : batch) {
        r->result = Status::Aborted("WAL append failed: " + s.ToString());
        EndTransaction(r->txn);
      }
      return;
    }
    for (PendingCommit* r : batch) {
      pool_delta_entries_.Inc(static_cast<int64_t>(r->pool_delta->size()));
    }
  }

  global_.LockExclusive();
  // Commit-window latency: everything readers are locked out for
  // (replay + size resolution + index maintenance), once per batch.
  const auto window_t0 = std::chrono::steady_clock::now();
  group_commits_.Inc();
  commits_per_group_.Record(static_cast<int64_t>(batch.size()));

  uint64_t lsn = base_lsn;
  for (PendingCommit* r : batch) {
    r->result = ApplyCommitLocked(r->txn, ++lsn);
  }
  commit_window_ns_.Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - window_t0)
          .count());
  global_.UnlockExclusive();
  for (PendingCommit* r : batch) EndTransaction(r->txn);
}

Status TransactionManager::ApplyCommitLocked(Transaction* txn, uint64_t lsn) {
  const auto replay_t0 = std::chrono::steady_clock::now();
  std::vector<PageId> installed;
  Status s = base_->ReplayOpLog(txn->oplog_, &installed);
  if (!s.ok()) {
    // Base replay can only fail on corruption; surface loudly. The
    // member's WAL record is already durable — like the old solo path's
    // post-append failures, this is corruption-grade, not recoverable
    // bookkeeping. Later batch members still apply (disjoint pages).
    return Status::Corruption("oplog replay failed: " + s.ToString());
  }

  {
    MutexLock lock(&meta_mu_);
    // Size resolution: every region extent this transaction claimed to
    // change, plus every extent claimed by commits since our snapshot
    // (our page images may have clobbered their stored values), is
    // recomputed exactly against the merged structure. Resolution is a
    // pure function of the current structure, so commit order cannot
    // matter — the property the paper obtains from delta commutativity.
    // Earlier batch members' claims are in committed_claims_ with their
    // (higher-than-snapshot) LSNs by the time this member runs, exactly
    // as if they had committed in their own windows.
    std::vector<NodeId> claims = txn->oplog_.size_claims;
    for (const CommittedClaim& cc : committed_claims_) {
      if (cc.lsn > txn->snapshot_lsn()) claims.push_back(cc.node);
    }
    s = base_->ResolveSizes(claims);
    if (!s.ok()) {
      return Status::Corruption("size resolution failed: " + s.ToString());
    }
    commit_replay_ns_.Record(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - replay_t0)
            .count());
    for (PageId p : installed) page_version_[p] = lsn;
    for (NodeId n : txn->oplog_.size_claims) {
      committed_claims_.push_back({lsn, n});
    }
    // Trim claims no active transaction can still need.
    uint64_t min_snapshot = lsn;
    for (const auto& [tid, snap] : active_snapshots_) {
      if (tid != txn->id()) min_snapshot = std::min(min_snapshot, snap);
    }
    while (!committed_claims_.empty() &&
           committed_claims_.front().lsn <= min_snapshot) {
      committed_claims_.pop_front();
    }
  }

  // Secondary-index merge: re-derive every dirty node against the now
  // fully merged base structure (replayed oplog + resolved sizes), in
  // place, so concurrent commits converge regardless of order. Still
  // inside the exclusive window — readers never see a store/index
  // mismatch. The overlay's structural flag tells the
  // index whether pre ranks shifted (memo invalidation granularity).
  // Every non-commit exit (poisoned, validation, WAL failure, Abort)
  // ends the transaction WITHOUT this call: the overlay dies with the
  // Transaction and the index never observes it.
  if (options_.index != nullptr) {
    options_.index->ApplyDirty(*base_, txn->idx_delta_);
  }

  commit_lsn_.store(lsn);
  return Status::OK();
}

void TransactionManager::EndTransaction(Transaction* txn) {
  page_locks_.ReleaseAll(txn->id());
  MutexLock lock(&meta_mu_);
  active_snapshots_.erase(txn->id());
}

void TransactionManager::RegisterMetrics(obs::MetricsRegistry* reg) const {
  reg->RegisterHistogram("pxq_commit_window_ns", &commit_window_ns_);
  reg->RegisterHistogram("pxq_commit_replay_ns", &commit_replay_ns_);
  reg->RegisterHistogram("pxq_checkpoint_ns", &checkpoint_ns_);
  reg->RegisterHistogram("pxq_lock_reader_wait_ns",
                         &global_.reader_wait_hist());
  reg->RegisterHistogram("pxq_lock_writer_wait_ns",
                         &global_.writer_wait_hist());
  reg->RegisterHistogram("pxq_commits_per_group", &commits_per_group_);
  reg->RegisterCounter("pxq_group_commits", &group_commits_);
  // One stats() copy per snapshot: stats() reads waits before acquires,
  // so waits <= acquires holds within the group.
  reg->RegisterGroup([this](std::vector<std::pair<std::string, int64_t>>* o) {
    const GlobalLock::Stats s = global_.stats();
    o->emplace_back("pxq_lock_reader_acquires", s.reader_acquires);
    o->emplace_back("pxq_lock_reader_waits", s.reader_waits);
    o->emplace_back("pxq_lock_writer_acquires", s.writer_acquires);
    o->emplace_back("pxq_lock_writer_waits", s.writer_waits);
    o->emplace_back("pxq_lock_slot_collisions", s.slot_collisions);
    o->emplace_back("pxq_lock_drain_notifies", s.drain_notifies);
  });
  if (wal_ != nullptr) {
    reg->RegisterHistogram("pxq_wal_append_ns", &wal_->append_hist());
    reg->RegisterCounter("pxq_wal_appended_bytes_total",
                         &wal_->appended_bytes());
    reg->RegisterCounter("pxq_wal_pool_delta_entries_total",
                         &pool_delta_entries_);
    reg->RegisterCallback("pxq_wal_commits",
                          [this] { return wal_->commit_count(); });
  }
}

Status TransactionManager::Checkpoint(const std::string& snapshot_path) {
  // The commit mutex keeps every commit out, and only commits change
  // the base, so the shared lock is enough: readers and Begin() keep
  // going while the snapshot is written.
  MutexLock commit_lock(&commit_mu_);
  GlobalLock::ReadGuard guard(&global_);
  const auto t0 = std::chrono::steady_clock::now();
  Status s = CheckpointLocked(snapshot_path);
  checkpoint_ns_.Record(std::chrono::duration_cast<std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
  return s;
}

Status TransactionManager::CheckpointLocked(
    const std::string& snapshot_path) {
  // The snapshot records where in the LSN space it sits (recovery
  // skips WAL records it already contains — the crash-between-rename-
  // and-reset double-replay guard) and the outstanding committed
  // size-claims: a transaction that began before this checkpoint and
  // commits after it writes a record with snapshot_lsn < last_lsn into
  // the fresh WAL, and its recovery-side fixup needs exactly the
  // claims the live commit saw in committed_claims_.
  std::vector<std::pair<uint64_t, NodeId>> claims;
  {
    MutexLock lock(&meta_mu_);
    claims.reserve(committed_claims_.size());
    for (const CommittedClaim& cc : committed_claims_) {
      claims.emplace_back(cc.lsn, cc.node);
    }
  }
  // Ordering is the crash protocol: the WAL truncates only after
  // SaveSnapshot's rename is durable. Failing between the two leaves
  // snapshot(last_lsn) + the old WAL — recovery skips the absorbed
  // records by LSN.
  //
  // The watermark: pools are append-only, so every entry below the
  // sizes read BEFORE the save is in the snapshot (transactions keep
  // interning concurrently). It moves only once the save succeeded — a
  // failed save leaves the old snapshot, which lacks those entries.
  const ContentPools::PoolSizes mark = base_->pools().Sizes();
  PXQ_RETURN_IF_ERROR(
      base_->SaveSnapshot(snapshot_path, commit_lsn_.load(), claims));
  {
    MutexLock lock(&meta_mu_);
    pool_mark_ = mark;
  }
  if (wal_ != nullptr) PXQ_RETURN_IF_ERROR(wal_->Reset());
  return Status::OK();
}

StatusOr<TransactionManager::RecoveryResult> TransactionManager::Recover(
    const std::string& snapshot_path, const std::string& wal_path) {
  RecoveryResult result;
  std::vector<std::pair<uint64_t, NodeId>> claims_seen;
  PXQ_ASSIGN_OR_RETURN(
      std::unique_ptr<PagedStore> loaded,
      PagedStore::LoadSnapshot(snapshot_path, &result.last_lsn,
                               &claims_seen));
  std::shared_ptr<PagedStore> store = std::move(loaded);
  const uint64_t snapshot_last_lsn = result.last_lsn;
  PXQ_ASSIGN_OR_RETURN(
      std::vector<Wal::Recovered> records,
      Wal::ReadAll(wal_path, store->page_tuples()));
  // Redo committed transactions in commit order, replicating the live
  // commit's size-claim resolution using the recorded LSNs. claims_seen
  // starts from the snapshot's persisted claim list so records whose
  // snapshot predates the checkpoint fix up pre-checkpoint commits too.
  std::vector<NodeId> installed_nodes;
  for (Wal::Recovered& rec : records) {
    if (rec.commit_lsn <= snapshot_last_lsn) {
      // Already folded into the snapshot (the checkpoint crashed after
      // the rename but before the WAL reset). Replaying would duplicate
      // the record's page appends.
      continue;
    }
    for (const PoolDelta& d : rec.pool_delta) {
      store->pools().SetEntry(d.kind, d.id, d.value);
    }
    // The live commit installed the transaction's whole page. Outside
    // the logged range that page differs from the one replay has built
    // so far only in size fields: the transaction's own claims and
    // those of commits after its snapshot, all re-resolved below just
    // as the live commit re-resolved them.
    for (const Wal::PageRange& r : rec.page_ranges) {
      if (r.phys < 0 || r.phys >= store->physical_page_count()) {
        return Status::Corruption("WAL range references unknown page");
      }
      auto image = std::make_shared<storage::Page>(
          store->physical_page(r.phys));
      r.LayOver(image.get());
      rec.log.page_images.push_back({r.phys, std::move(image)});
    }
    PXQ_RETURN_IF_ERROR(store->ReplayOpLog(rec.log));
    for (const auto& nps : rec.log.node_pos_sets) {
      if (nps.clone_phys >= 0) installed_nodes.push_back(nps.node);
    }
    std::vector<NodeId> claims = rec.log.size_claims;
    for (const auto& [lsn, node] : claims_seen) {
      if (lsn > rec.snapshot_lsn) claims.push_back(node);
    }
    PXQ_RETURN_IF_ERROR(store->ResolveSizes(claims));
    for (NodeId n : rec.log.size_claims) {
      claims_seen.emplace_back(rec.commit_lsn, n);
    }
    result.last_lsn = std::max(result.last_lsn, rec.commit_lsn);
    ++result.replayed_commits;
  }
  // Nobody allocated the replayed ids from this store's allocator; make
  // them unmintable, or the first new transaction could duplicate one.
  // Marking an id that a later record freed again only leaks it.
  store->node_allocator()->MarkUsed(installed_nodes);
  result.store = std::move(store);
  return result;
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

Transaction::Transaction(TransactionManager* mgr, TxnId id,
                         uint64_t snapshot_lsn,
                         std::unique_ptr<PagedStore> clone)
    : mgr_(mgr),
      id_(id),
      snapshot_lsn_(snapshot_lsn),
      clone_(std::move(clone)) {}

Transaction::~Transaction() {
  if (!finished_) Abort().ok();
}

Status Transaction::Commit() {
  if (finished_) return Status::InvalidArgument("transaction finished");
  finished_ = true;
  return mgr_->CommitInternal(this);
}

Status Transaction::Abort() {
  if (finished_) return Status::InvalidArgument("transaction finished");
  finished_ = true;
  mgr_->EndTransaction(this);
  return Status::OK();
}

}  // namespace pxq::txn
