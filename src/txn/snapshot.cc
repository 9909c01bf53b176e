// Checkpoint snapshots of a PagedStore (durability substrate). Together
// with the WAL this implements the paper's recovery story: on restart,
// load the last snapshot and redo every committed WAL record.
//
// Implemented here (not in storage/) because the format shares framing
// conventions with the WAL; declared as PagedStore members so it can
// reach the store internals without widening the public surface.
//
// Format v3 and the crash protocol (DESIGN.md §8):
//
//   [magic u32][version=3 u32][payload][Checksum64 of everything before]
//
// The payload carries, besides the full store image, the checkpoint's
// position in the commit-LSN space: `last_lsn` (the highest commit LSN
// folded into the image) lets recovery skip WAL records the snapshot
// already contains — replaying them twice would duplicate page appends
// — and the outstanding committed size-claims let records whose
// snapshot predates the checkpoint run the same size fixup the live
// commit performed.
//
// SaveSnapshot never touches the previous snapshot: it writes
// `<path>.tmp` with every write checked, fsyncs it, renames it over
// `path`, and fsyncs the parent directory. A crash (or injected fault)
// at any step leaves either the old snapshot or the new one, never a
// torn file; LoadSnapshot verifies the trailing checksum and
// bounds-checks every count against the remaining file bytes, so even
// a hand-corrupted snapshot yields Status::Corruption, not bad_alloc.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "common/io_file.h"
#include "storage/paged_store.h"

namespace pxq::storage {
namespace {

constexpr uint32_t kSnapshotMagic = 0x50585153;  // "PXQS"
constexpr uint32_t kSnapshotVersion = 3;

// Scalars and arrays are raw native-endian bytes (snapshots are
// machine-local checkpoint state, not an interchange format).
template <typename T>
void Put(std::string* b, T v) {
  b->append(reinterpret_cast<const char*>(&v), sizeof(T));
}
void PutBytes(std::string* b, const void* p, size_t n) {
  b->append(static_cast<const char*>(p), n);
}
void PutStr(std::string* b, const std::string& s) {
  Put<uint64_t>(b, s.size());
  b->append(s);
}

/// Bounds-checked cursor over the snapshot bytes: every Get fails
/// cleanly at EOF instead of trusting an on-disk count.
class Cursor {
 public:
  Cursor(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* v) {
    if (sizeof(T) > remaining()) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool GetBytes(void* p, size_t n) {
    if (n > remaining()) return false;
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool GetStr(std::string* s) {
    uint64_t n;
    if (!Get(&n) || n > remaining()) return false;
    s->assign(data_ + pos_, static_cast<size_t>(n));
    pos_ += static_cast<size_t>(n);
    return true;
  }
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

using PoolKind = ContentPools::PoolKind;
constexpr PoolKind kAllPools[] = {PoolKind::kQname, PoolKind::kText,
                                  PoolKind::kComment, PoolKind::kPi,
                                  PoolKind::kProp};

}  // namespace

Status PagedStore::SaveSnapshot(
    const std::string& path, uint64_t last_lsn,
    const std::vector<std::pair<uint64_t, NodeId>>& committed_claims) const {
  std::string b;
  Put<uint32_t>(&b, kSnapshotMagic);
  Put<uint32_t>(&b, kSnapshotVersion);
  Put<int32_t>(&b, config_.page_tuples);
  Put<double>(&b, config_.shred_fill);

  // Checkpoint LSN state (see the header comment: the double-replay
  // guard and the cross-checkpoint size-claim fixup).
  Put<uint64_t>(&b, last_lsn);
  Put<uint64_t>(&b, committed_claims.size());
  for (const auto& [lsn, node] : committed_claims) {
    Put<uint64_t>(&b, lsn);
    Put<int64_t>(&b, node);
  }

  // Pools.
  ContentPools::PoolSizes sizes = pools_->Sizes();
  for (int k = 0; k < 5; ++k) {
    Put<int64_t>(&b, sizes.sizes[k]);
    for (int64_t i = 0; i < sizes.sizes[k]; ++i) {
      PutStr(&b, pools_->Entry(kAllPools[k], static_cast<int32_t>(i)));
    }
  }

  // Pages (physical order) + page tables.
  Put<uint64_t>(&b, pages_.size());
  for (const auto& pg : pages_) {
    Put<int32_t>(&b, pg->used);
    PutBytes(&b, pg->size.data(), pg->size.size() * sizeof(int64_t));
    PutBytes(&b, pg->level.data(), pg->level.size() * sizeof(int32_t));
    PutBytes(&b, pg->kind.data(), pg->kind.size() * sizeof(uint8_t));
    PutBytes(&b, pg->ref.data(), pg->ref.size() * sizeof(int32_t));
    PutBytes(&b, pg->node.data(), pg->node.size() * sizeof(int64_t));
  }
  Put<uint64_t>(&b, logical_pages_.size());
  for (PageId p : logical_pages_) Put<int64_t>(&b, p);

  // node/pos.
  Put<uint64_t>(&b, node_pos_pages_.size());
  for (const auto& np : node_pos_pages_) {
    PutBytes(&b, np->data(), np->size() * sizeof(PosId));
  }

  // Allocator.
  {
    Put<int64_t>(&b, node_alloc_->limit());
    // Reconstruct the free list as "allocatable" = ids not mapped.
    // (Cheaper than exposing allocator internals; ids of holes.)
    std::vector<NodeId> free_ids;
    for (NodeId id = 0; id < node_alloc_->limit(); ++id) {
      if (PosOfNode(id) == kNullPos) free_ids.push_back(id);
    }
    Put<uint64_t>(&b, free_ids.size());
    for (NodeId id : free_ids) Put<int64_t>(&b, id);
  }

  Put<int64_t>(&b, used_count_);

  // Attributes (live rows only).
  Put<uint64_t>(&b, static_cast<uint64_t>(attrs_.live_count()));
  for (int32_t r = 0; r < attrs_.size(); ++r) {
    const AttrRow& row = attrs_.row(r);
    if (row.owner < 0) continue;
    Put<int64_t>(&b, row.owner);
    Put<int32_t>(&b, row.qname);
    Put<int32_t>(&b, row.prop);
  }

  // Whole-file checksum: a torn or bit-flipped snapshot can never load.
  Put<uint64_t>(&b, Checksum64(b.data(), b.size()));

  // Atomic install: tmp -> checked writes -> fsync -> rename -> parent
  // fsync. The previous snapshot stays untouched until the rename, so
  // any failure (ENOSPC, injected crash) leaves it fully readable.
  const std::string tmp = path + ".tmp";
  WritableFile f;
  Status s = f.Open(tmp, /*truncate=*/true);
  if (s.ok()) s = f.Append(b);
  if (s.ok()) s = f.SyncData();
  if (s.ok()) s = f.Close();
  if (s.ok()) s = AtomicRename(tmp, path);
  if (s.ok()) s = SyncParentDir(path);
  if (!s.ok()) {
    // Best-effort cleanup of the tmp file; deliberately NOT routed
    // through the fault injector (the injected crash already happened —
    // this models the next process start tidying up).
    std::remove(tmp.c_str());
    return Status::IOError("snapshot " + path + ": " + s.message());
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<PagedStore>> PagedStore::LoadSnapshot(
    const std::string& path, uint64_t* last_lsn,
    std::vector<std::pair<uint64_t, NodeId>>* committed_claims) {
  StatusOr<std::string> content_or = ReadFileToString(path);
  if (!content_or.ok()) {
    return Status::IOError("cannot read snapshot " + path);
  }
  const std::string& content = content_or.value();
  auto fail = [&](const char* what) {
    return Status::Corruption(std::string("snapshot: ") + what);
  };

  // The version word before the checksum: an older format's trailer
  // is a different checksum, and should read as that, not as damage.
  if (content.size() < 4 + 4 + 8) return fail("truncated");
  uint32_t header_version;
  std::memcpy(&header_version, content.data() + 4, 4);
  if (header_version != kSnapshotVersion) {
    return Status::Corruption(
        "snapshot: format version " + std::to_string(header_version) +
        ", this build reads only version " +
        std::to_string(kSnapshotVersion));
  }
  // Checksum next: the trailer covers everything before it, so a
  // torn/flipped file is rejected before any count is trusted.
  uint64_t want_crc;
  std::memcpy(&want_crc, content.data() + content.size() - 8, 8);
  if (Checksum64(content.data(), content.size() - 8) != want_crc) {
    return fail("checksum mismatch");
  }
  Cursor c(content.data(), content.size() - 8);

  uint32_t magic, version;
  Config cfg;
  if (!c.Get(&magic) || magic != kSnapshotMagic) return fail("magic");
  if (!c.Get(&version)) return fail("version");
  if (!c.Get(&cfg.page_tuples) || !c.Get(&cfg.shred_fill)) {
    return fail("config");
  }
  // page_tuples drives every allocation size below; a corrupt value
  // must not survive even with a valid checksum (table tests patch
  // counts and re-checksum).
  if (cfg.page_tuples <= 0 || cfg.page_tuples > (1 << 20) ||
      (cfg.page_tuples & (cfg.page_tuples - 1)) != 0) {
    return fail("page_tuples");
  }

  uint64_t snap_lsn = 0;
  if (!c.Get(&snap_lsn)) return fail("last_lsn");
  uint64_t nclaims;
  if (!c.Get(&nclaims) || nclaims > c.remaining() / 16) {
    return fail("claim count");
  }
  if (committed_claims != nullptr) committed_claims->clear();
  for (uint64_t i = 0; i < nclaims; ++i) {
    uint64_t lsn;
    int64_t node;
    if (!c.Get(&lsn) || !c.Get(&node)) return fail("claim entry");
    if (committed_claims != nullptr) {
      committed_claims->emplace_back(lsn, node);
    }
  }
  if (last_lsn != nullptr) *last_lsn = snap_lsn;

  auto store = std::unique_ptr<PagedStore>(new PagedStore(cfg));
  store->pools_ = std::make_shared<ContentPools>();
  for (int k = 0; k < 5; ++k) {
    int64_t n;
    // Each entry costs at least its 8-byte length prefix.
    if (!c.Get(&n) || n < 0 || static_cast<uint64_t>(n) > c.remaining() / 8) {
      return fail("pool size");
    }
    for (int64_t i = 0; i < n; ++i) {
      std::string s;
      if (!c.GetStr(&s)) return fail("pool entry");
      store->pools_->SetEntry(kAllPools[k], static_cast<int32_t>(i), s);
    }
  }

  const auto cap = static_cast<size_t>(cfg.page_tuples);
  const uint64_t page_bytes =
      4 + static_cast<uint64_t>(cap) * (8 + 4 + 1 + 4 + 8);
  uint64_t npages;
  if (!c.Get(&npages) || npages > c.remaining() / page_bytes) {
    return fail("page count");
  }
  for (uint64_t p = 0; p < npages; ++p) {
    auto pg = std::make_shared<Page>(cfg.page_tuples);
    if (!c.Get(&pg->used) ||
        !c.GetBytes(pg->size.data(), cap * sizeof(int64_t)) ||
        !c.GetBytes(pg->level.data(), cap * sizeof(int32_t)) ||
        !c.GetBytes(pg->kind.data(), cap * sizeof(uint8_t)) ||
        !c.GetBytes(pg->ref.data(), cap * sizeof(int32_t)) ||
        !c.GetBytes(pg->node.data(), cap * sizeof(int64_t))) {
      return fail("page payload");
    }
    if (pg->used < 0 || pg->used > cfg.page_tuples) {
      return fail("page used count");
    }
    store->pages_.push_back(std::move(pg));
  }
  uint64_t nlogical;
  if (!c.Get(&nlogical) || nlogical != npages) return fail("page table");
  store->logical_pages_.resize(nlogical);
  store->page_logical_.assign(npages, -1);
  for (uint64_t l = 0; l < nlogical; ++l) {
    if (!c.Get(&store->logical_pages_[l])) return fail("page table");
    const int64_t phys = store->logical_pages_[l];
    // A physical id out of range would index page_logical_ (and later
    // the view) out of bounds.
    if (phys < 0 || static_cast<uint64_t>(phys) >= npages) {
      return fail("page table entry");
    }
    store->page_logical_[static_cast<size_t>(phys)] =
        static_cast<int64_t>(l);
  }
  store->RefreshView();

  uint64_t nnp;
  if (!c.Get(&nnp) || nnp > c.remaining() / (cap * sizeof(PosId))) {
    return fail("node/pos count");
  }
  for (uint64_t p = 0; p < nnp; ++p) {
    auto np = std::make_shared<std::vector<PosId>>(cap, kNullPos);
    if (!c.GetBytes(np->data(), cap * sizeof(PosId))) {
      return fail("node/pos payload");
    }
    store->node_pos_pages_.push_back(std::move(np));
  }

  int64_t limit;
  uint64_t nfree;
  if (!c.Get(&limit) || limit < 0 || !c.Get(&nfree) ||
      nfree > c.remaining() / 8) {
    return fail("allocator");
  }
  std::vector<NodeId> free_ids(nfree);
  for (auto& id : free_ids) {
    if (!c.Get(&id) || id < 0 || id >= limit) return fail("free list");
  }
  store->node_alloc_->Seed(limit, std::move(free_ids));

  if (!c.Get(&store->used_count_) || store->used_count_ < 0 ||
      static_cast<uint64_t>(store->used_count_) >
          npages * static_cast<uint64_t>(cfg.page_tuples)) {
    return fail("used count");
  }

  uint64_t nattrs;
  if (!c.Get(&nattrs) || nattrs > c.remaining() / 16) {
    return fail("attr count");
  }
  for (uint64_t i = 0; i < nattrs; ++i) {
    int64_t owner;
    int32_t qn, prop;
    if (!c.Get(&owner) || !c.Get(&qn) || !c.Get(&prop) || owner < 0) {
      return fail("attr row");
    }
    store->attrs_.Add(owner, qn, prop);
  }
  if (c.remaining() != 0) return fail("trailing bytes");
  return store;
}

}  // namespace pxq::storage
