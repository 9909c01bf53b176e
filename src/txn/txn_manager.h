// Transaction manager implementing the Figure 8 protocol:
//
//   write-transaction:
//     - work on a copy-on-write clone of the base store (isolation);
//     - page write locks are acquired incrementally, the first time a
//       page is structurally modified (the store's PageWriteHook);
//       bulk inserts go to newly appended pages referenced only by the
//       clone's private page table;
//     - ancestor size updates are captured as commutative deltas, never
//       locking the ancestors' pages (no root bottleneck);
//     - commit: append ONE fsynced WAL record (before the exclusive
//       window, so readers keep running through the fsync), then take
//       the global write lock, replay the oplog onto the base, fix up
//       foreign size deltas committed since this transaction's
//       snapshot, bump page versions, release locks.
//
// Concurrency control is page-level snapshot isolation with
// first-updater-wins: structurally touching a page whose version is
// newer than the transaction's snapshot aborts it; waiting on a page
// lock past the timeout aborts it (deadlock resolution). Readers run
// against the base under the global shared lock; their reads are
// consistent because base mutation happens only inside the exclusive
// commit window.
#ifndef PXQ_TXN_TXN_MANAGER_H_
#define PXQ_TXN_TXN_MANAGER_H_

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "index/delta_index.h"
#include "storage/paged_store.h"
#include "txn/lock_manager.h"
#include "txn/wal.h"

namespace pxq::index {
class IndexManager;
}  // namespace pxq::index

namespace pxq::txn {

struct TxnOptions {
  /// Page lock wait budget before declaring deadlock and aborting.
  std::chrono::milliseconds lock_timeout{200};
  /// Run the full structural invariant check on the transaction's view
  /// before commit (the paper's "document validation" stage; we validate
  /// well-formedness instead of a schema).
  bool validate_on_commit = false;
  /// WAL file; empty disables durability (in-memory ACI only).
  std::string wal_path;
  /// Secondary indexes over the base store (owned by the database
  /// layer). When set, every transaction buffers index maintenance in a
  /// DeltaIndex overlay that is merged here inside the exclusive commit
  /// window — and simply dropped on abort.
  index::IndexManager* index = nullptr;
  /// Reader-slot count for the global lock's sharded registration
  /// (rounded up to a power of two, clamped to GlobalLock::kMaxSlots).
  /// 0 = auto: 2×hardware_concurrency.
  int32_t reader_slots = 0;
  /// Group-commit batching window: a commit leader waits this long for
  /// more committers to join its batch before opening the exclusive
  /// window, trading commit latency for fewer fsyncs. 0 = no artificial
  /// wait — batches still form naturally from commits that arrive while
  /// a leader is mid-window.
  int64_t group_commit_window_us = 0;
  /// First commit LSN minus one: a manager built over a recovered store
  /// continues the LSN space where the snapshot + WAL left off
  /// (RecoveryResult::last_lsn). Restarting at 0 would mint LSNs at or
  /// below the snapshot's recorded last_lsn, and recovery would then
  /// skip those commits as "already in the snapshot".
  uint64_t start_lsn = 0;
};

class Transaction;

class TransactionManager {
 public:
  /// The manager takes shared ownership of the base store. With a WAL,
  /// every pool entry `base` holds at this point must already be
  /// recoverable — in the snapshot the WAL replays onto, or in a record
  /// of that WAL — because commits log only entries interned after it
  /// (the pool-delta watermark; see Checkpoint).
  static StatusOr<std::unique_ptr<TransactionManager>> Create(
      std::shared_ptr<storage::PagedStore> base, TxnOptions options = {});

  /// Start a write transaction, once any commit batch in flight (or a
  /// running checkpoint) has finished. `contested` names a page an
  /// earlier attempt lost on (Transaction::contested_page()): Begin
  /// first waits for and takes that page's lock, so the new snapshot
  /// includes the winner's commit and no rival commits over the page
  /// before this transaction ends. A wait that times out starts the
  /// transaction without the lock.
  /// `with_base`, when given, runs on the base under the same shared
  /// lock that clones it, so it sees exactly the document the new
  /// transaction starts from (and may use the index, which describes
  /// the base). It must not write the base.
  StatusOr<std::unique_ptr<Transaction>> Begin(
      PageId contested = -1,
      const std::function<void(const storage::PagedStore&)>& with_base =
          nullptr);

  /// Run a read-only function under the global shared lock:
  /// fn(const storage::PagedStore&).
  template <typename F>
  auto Read(F&& fn) {
    GlobalLock::ReadGuard guard(&global_);
    return fn(static_cast<const storage::PagedStore&>(*base_));
  }

  /// Write a checkpoint snapshot and truncate the WAL (quiesces commits
  /// via the commit mutex; the store serializes under the shared lock,
  /// so checkpoint duration stalls commits but not reads;
  /// pxq_checkpoint_ns measures it). The pool sizes taken just before the save become
  /// the pool-delta watermark once the save succeeds: later commit
  /// records log only pool entries at or above it. Crash-atomic: the
  /// snapshot replaces the previous one only via tmp + fsync + rename,
  /// and the WAL truncates only after the rename is durable — a crash
  /// at any step recovers either the old checkpoint + full WAL or the
  /// new checkpoint (whose recorded last_lsn makes the not-yet-reset
  /// WAL records no-ops).
  Status Checkpoint(const std::string& snapshot_path);

  /// What Recover rebuilt: the store, the highest commit LSN folded
  /// into it (the new manager's TxnOptions::start_lsn), and how many
  /// WAL records were replayed on top of the snapshot.
  struct RecoveryResult {
    std::shared_ptr<storage::PagedStore> store;
    uint64_t last_lsn = 0;
    int64_t replayed_commits = 0;
  };

  /// Rebuild a store from a snapshot + WAL (crash recovery). WAL
  /// records at or below the snapshot's recorded last_lsn are skipped
  /// (the snapshot already contains them — a crash between the
  /// checkpoint rename and the WAL reset leaves such records behind).
  /// Construct a new manager over the result, with
  /// options.start_lsn = last_lsn, to resume.
  static StatusOr<RecoveryResult> Recover(const std::string& snapshot_path,
                                          const std::string& wal_path);

  storage::PagedStore& base() { return *base_; }
  uint64_t commit_lsn() const { return commit_lsn_.load(); }

  /// Durability status (for the `xq stats` durability line).
  bool durable() const { return wal_ != nullptr; }
  /// Commits currently sitting in the WAL (0 when not durable).
  int64_t wal_commits() const {
    return wal_ != nullptr ? wal_->commit_count() : 0;
  }
  /// Checkpoint latency/count: one Record per Checkpoint() call, i.e.
  /// one commit stall each.
  const obs::Histogram& checkpoint_hist() const { return checkpoint_ns_; }

  /// Global-lock acquire/contention counters (reader vs writer waits,
  /// slot collisions, drain wakeups).
  GlobalLock::Stats lock_stats() const { return global_.stats(); }

  /// Group-commit effectiveness: batches led (one WAL fsync each) and
  /// the distribution of commits folded into each batch.
  int64_t group_commits() const { return group_commits_.Value(); }
  const obs::Histogram& commits_per_group_hist() const {
    return commits_per_group_;
  }

  /// Expose lock contention (wait-time histograms + acquire counters),
  /// the commit window, and WAL append metrics through a registry.
  void RegisterMetrics(obs::MetricsRegistry* reg) const;

 private:
  friend class Transaction;
  TransactionManager(std::shared_ptr<storage::PagedStore> base,
                     TxnOptions options);

  /// One committer's seat in the group-commit queue. Lives on the
  /// committing thread's stack; the leader fills `result` and flips
  /// `done` under gc_mu_.
  struct PendingCommit {
    Transaction* txn;
    const std::vector<PoolDelta>* pool_delta;
    Status result;
    bool done = false;
  };

  Status OnFirstPageWrite(Transaction* txn, PageId page);
  Status CommitInternal(Transaction* txn);
  /// The pool entries `txn`'s oplog references at or above the
  /// watermark, sorted by (pool, id) and distinct — what recovery needs
  /// on top of the last snapshot to resolve every id the record uses.
  std::vector<PoolDelta> CapturePoolDelta(const Transaction& txn)
      PXQ_EXCLUDES(meta_mu_);
  /// Commit a whole batch under the commit mutex: a single AppendBatch
  /// fsync before the exclusive window, then per-member
  /// replay/size/index application in batch order inside ONE window.
  /// Fills each member's result and ends its transaction.
  void CommitBatch(const std::vector<PendingCommit*>& batch)
      PXQ_EXCLUDES(gc_mu_, commit_mu_);
  /// Apply one member onto the base (oplog replay, size resolution,
  /// page versions, index merge, commit_lsn). Exclusive window only.
  Status ApplyCommitLocked(Transaction* txn, uint64_t lsn)
      PXQ_REQUIRES(global_);
  /// The checkpoint protocol body (snapshot with LSN state, watermark,
  /// then WAL reset). SaveSnapshot reads the whole base, legal only
  /// while no commit can change it: the commit mutex shuts out commits
  /// (the only writers of the base), and the shared lock is what every
  /// reader of the base holds. Wal::Reset must not run between a
  /// commit's WAL append and its apply, which the commit mutex also
  /// excludes — the analysis rejects any caller that has not taken
  /// both.
  Status CheckpointLocked(const std::string& snapshot_path)
      PXQ_REQUIRES_SHARED(global_) PXQ_REQUIRES(commit_mu_);
  void EndTransaction(Transaction* txn);

  std::shared_ptr<storage::PagedStore> base_;
  TxnOptions options_;
  GlobalLock global_;
  PageLockManager page_locks_;
  std::unique_ptr<Wal> wal_;

  std::atomic<TxnId> next_txn_id_{1};
  std::atomic<uint64_t> commit_lsn_{0};
  // ns from LockExclusive to UnlockExclusive per committed batch: oplog
  // replay, size resolution and index maintenance.
  obs::Histogram commit_window_ns_;
  // Oplog replay + size resolution per committed member: the window's
  // share besides index maintenance.
  obs::Histogram commit_replay_ns_;
  obs::Histogram checkpoint_ns_;
  obs::Counter pool_delta_entries_;

  // Held by the group-commit leader from a batch's WAL append through
  // its apply, and by Checkpoint: a checkpoint therefore never resets
  // the WAL between a record's fsync and its apply (the record would
  // vanish while the snapshot lacks the commit). Acquired before the
  // GlobalLock, never inside it; only the leader writes commit_lsn_,
  // so the batch's LSNs read under it are stable.
  Mutex commit_mu_;

  // Group commit: committers enqueue their PendingCommit; the first one
  // to find no leader becomes the leader and drains the queue in
  // batches, each batch committed with one WAL fsync and under one
  // exclusive window. gc_mu_ is never held across CommitBatch — it sits
  // OUTSIDE the commit mutex and the GlobalLock in the hierarchy and
  // nests nothing.
  Mutex gc_mu_;
  CondVar gc_cv_;
  std::vector<PendingCommit*> gc_queue_ PXQ_GUARDED_BY(gc_mu_);
  bool gc_leader_active_ PXQ_GUARDED_BY(gc_mu_) = false;
  obs::Counter group_commits_;
  obs::Histogram commits_per_group_;

  // meta_mu_ nests inside the commit window (GlobalLock exclusive) and
  // never wraps any other lock acquisition.
  Mutex meta_mu_;
  std::unordered_map<PageId, uint64_t> page_version_ PXQ_GUARDED_BY(meta_mu_);
  struct CommittedClaim {
    uint64_t lsn;
    NodeId node;
  };
  std::deque<CommittedClaim> committed_claims_ PXQ_GUARDED_BY(meta_mu_);
  std::unordered_map<TxnId, uint64_t> active_snapshots_
      PXQ_GUARDED_BY(meta_mu_);
  // Pool sizes at the last snapshot save (construction, or a successful
  // checkpoint's SaveSnapshot): every entry below them is in the
  // snapshot recovery starts from.
  storage::ContentPools::PoolSizes pool_mark_ PXQ_GUARDED_BY(meta_mu_);
};

/// A single write transaction. Work against store() (read-your-writes);
/// finish with Commit() or Abort(). Destroying an unfinished
/// transaction aborts it.
class Transaction {
 public:
  ~Transaction();
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// The transaction's private view of the database.
  storage::PagedStore* store() { return clone_.get(); }

  TxnId id() const { return id_; }
  uint64_t snapshot_lsn() const { return snapshot_lsn_; }
  bool finished() const { return finished_; }
  /// The page whose lock wait or version check failed this transaction
  /// (-1 when none): pass it to TransactionManager::Begin for the retry.
  PageId contested_page() const { return contested_page_; }

  /// Figure 8's commit sequence. On Conflict/Aborted the transaction is
  /// rolled back and may be retried from a fresh Begin().
  Status Commit();
  Status Abort();

 private:
  friend class TransactionManager;
  Transaction(TransactionManager* mgr, TxnId id, uint64_t snapshot_lsn,
              std::unique_ptr<storage::PagedStore> clone);

  TransactionManager* mgr_;
  TxnId id_;
  uint64_t snapshot_lsn_;
  std::unique_ptr<storage::PagedStore> clone_;
  storage::OpLog oplog_;
  index::DeltaIndex idx_delta_;
  bool finished_ = false;
  Status poisoned_ = Status::OK();  // set when a page hook failed
  PageId contested_page_ = -1;      // the page the hook failed on
};

}  // namespace pxq::txn

#endif  // PXQ_TXN_TXN_MANAGER_H_
