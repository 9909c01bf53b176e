// Write-ahead log (Fig. 8: "writing the WAL is the crucial stage in
// transaction commit, it consists of a single I/O").
//
// Each commit appends ONE record carrying everything needed to redo the
// transaction against the checkpoint snapshot: the new string-pool
// entries, the changed tuple range of each page it wrote, the pages it
// appended, the pageOffset (logical order) inserts, node/pos updates,
// the size claims, attribute ops and freed node ids. The record is
// length-prefixed and checksummed (Checksum64); recovery replays
// complete records in order and stops at the first torn/corrupt tail
// (that transaction never committed). Format v2 (DESIGN.md §8); a v1
// record (whole-page images) is refused with an error.
#ifndef PXQ_TXN_WAL_H_
#define PXQ_TXN_WAL_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/io_file.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/paged_store.h"

namespace pxq::txn {

/// Pool entries appended by a transaction, (pool, id, value) triples.
/// Installation is idempotent, so overlap between concurrent
/// transactions' captures is harmless.
struct PoolDelta {
  storage::ContentPools::PoolKind kind;
  int32_t id;
  std::string value;
};

/// Thread compatibility: the WAL holds no lock of its own. AppendBatch
/// (and AppendCommit, its batch-of-one shorthand) and Reset are called
/// only under TransactionManager's commit mutex — the group-commit
/// leader holds it from a batch's append through its apply, Checkpoint
/// holds it around the snapshot save and Reset — which serializes them
/// without adding a mutex here that nothing else could contend on. The
/// appends run before the exclusive commit window, so readers keep
/// running through the fsync. The contract is machine-checked at the
/// call sites: TransactionManager::CheckpointLocked is
/// PXQ_REQUIRES(global_, commit_mu_) and CommitBatch takes commit_mu_
/// itself. The accessors expose a plain counter written only under that
/// mutex plus lock-free histogram/counter atomics, all safe to sample
/// concurrently.
class Wal {
 public:
  ~Wal() = default;

  /// Open (creating if absent) a WAL file for appending.
  static StatusOr<std::unique_ptr<Wal>> Open(const std::string& path);

  /// One member of a group-commit batch. `snapshot_lsn`/`commit_lsn`
  /// let recovery replay the same concurrent-delta fixup the live
  /// commit performed (see txn_manager). The referenced oplog and pool
  /// delta must outlive the AppendBatch call; the oplog's page-image
  /// ranges must be set (OpLog::SealRanges), as only they are logged.
  struct BatchEntry {
    TxnId txn_id;
    uint64_t snapshot_lsn;
    uint64_t commit_lsn;
    const storage::OpLog* log;
    const std::vector<PoolDelta>* pool_delta;
  };

  /// Group commit: append the batch's records back to back and fsync
  /// ONCE (one I/O is the commit point for every member). Records keep
  /// the exact single-commit wire format, so ReadAll recovers a batched
  /// log identically to a sequential one — in entry order, and a torn
  /// tail drops a suffix of the batch, never reorders it.
  ///
  /// On a write/fsync failure the batch is rolled back off the file
  /// (truncate to the pre-append offset) so a garbage tail can never
  /// shadow later successful commits; if even the rollback fails the
  /// log is poisoned and every further append reports IOError.
  Status AppendBatch(const std::vector<BatchEntry>& entries);

  /// Append one commit record and fsync it (a batch of one).
  Status AppendCommit(TxnId txn_id, uint64_t snapshot_lsn,
                      uint64_t commit_lsn, const storage::OpLog& log,
                      const std::vector<PoolDelta>& pool_delta);

  /// Truncate the log (after a checkpoint snapshot was written) and
  /// fsync the truncation. Reports the failure (instead of OK on a
  /// dirty truncate) — the checkpoint protocol treats a non-durable
  /// reset as a failed checkpoint. commit_count_ is reset only on
  /// success; called under the commit mutex and inside the exclusive
  /// window, enforced at the call site
  /// (TransactionManager::CheckpointLocked).
  Status Reset();

  int64_t commit_count() const {
    // relaxed: monotonic stat counter scraped by metrics callbacks; no
    // other data is ordered against it.
    return commit_count_.load(std::memory_order_relaxed);
  }

  /// Durability observability: the single-I/O commit point, measured.
  /// append_hist is ns per AppendBatch (serialize + write + fsync);
  /// appended_bytes is the cumulative record volume.
  const obs::Histogram& append_hist() const { return append_ns_; }
  const obs::Counter& appended_bytes() const { return appended_bytes_; }

  /// A logged page image: after the commit, page `phys` holds `used`
  /// real tuples and `tuples` at offsets [lo, lo + tuples.size.size());
  /// its other tuples are as the transaction found them. Recovery lays
  /// the range over the page as replay has left it so far.
  struct PageRange {
    PageId phys = 0;
    int32_t used = 0;
    int32_t lo = 0;
    storage::Page tuples{0};

    /// Write the range and `used` into `page`, a copy of page `phys`.
    void LayOver(storage::Page* page) const;
  };

  /// One recovered commit record. `log` holds everything but the page
  /// images, which come as `page_ranges`.
  struct Recovered {
    TxnId txn_id;
    uint64_t snapshot_lsn;
    uint64_t commit_lsn;
    std::vector<PageRange> page_ranges;
    storage::OpLog log;
    std::vector<PoolDelta> pool_delta;
  };

  /// Read all complete commit records of a WAL file (static: used before
  /// the Wal is opened for appending). A missing file yields zero
  /// records; a v1 record yields Status::Corruption naming the format.
  /// `page_tuples` must match the store config.
  static StatusOr<std::vector<Recovered>> ReadAll(const std::string& path,
                                                  int32_t page_tuples);

 private:
  Wal() = default;

  std::string path_;
  WritableFile file_;
  // Set when a failed append could not be rolled back off the file:
  // the on-disk tail is garbage, so further appends must not succeed.
  bool broken_ = false;
  // Written only under the commit mutex; atomic because metrics scrapes
  // read it without it.
  std::atomic<int64_t> commit_count_{0};
  obs::Histogram append_ns_;
  obs::Counter appended_bytes_;
};

}  // namespace pxq::txn

#endif  // PXQ_TXN_WAL_H_
