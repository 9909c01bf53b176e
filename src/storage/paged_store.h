// The updatable pos/size/level schema (Fig. 4/6/7) — the paper's core
// contribution.
//
// Physical layout: the node table is an array of fixed-size logical
// pages. Pages are only ever appended physically; a page table keeps the
// *logical* page order, so the pre/size/level view (logical order) can
// differ from the pos order (physical order). Where MonetDB re-maps
// virtual-memory pages to build the view, we apply the same indirection
// explicitly per access:
//
//     pos = physical(pre >> B) << B | (pre & M)      // view -> table
//     pre = logical (pos >> B) << B | (pos & M)      // table -> view
//
// `pre` and `pos` are both virtual (void) columns: neither is stored.
//
// Unused tuples ("holes") carry level = kNullLevel and size = number of
// directly-following holes in the same page, so scans skip a run in O(1).
// Deletes only create holes; inserts shift tuples within one page or
// append fresh pages — never O(document).
//
// Size semantics (DESIGN.md §2): size(v) = pre(lrd(v)) - pre(v), where
// lrd(v) is v's last real descendant in view order (v itself for a leaf,
// giving size 0). The region (pre(v), pre(v)+size(v)] then contains all
// real descendants of v plus interior holes and nothing else, so the
// XPath interval tests stay exact despite holes, and the tuple at
// pre(v)+size(v) *is* lrd(v) — an O(1) lookup the maintenance code uses.
// Structural edits recompute the sizes of the affected ancestor chains
// from witnesses captured before the edit; under transactions the
// affected nodes are additionally logged as "size claims" that the
// commit re-resolves against the merged structure (Section 3.2's
// commutative ancestor maintenance, made exact — see DESIGN.md §2).
//
// Concurrency: pages are held by shared_ptr and copied on first write
// when shared (MonetDB's copy-on-write mmap analog). Clone() snapshots a
// store in O(#pages); an attached OpLog records primitive mutations so a
// transaction's work can be replayed onto the base at commit (Fig. 8).
#ifndef PXQ_STORAGE_PAGED_STORE_H_
#define PXQ_STORAGE_PAGED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "index/delta_index.h"
#include "storage/attr_table.h"
#include "storage/store_common.h"

namespace pxq::storage {

/// One logical page of the pos/size/level/kind/ref/node table,
/// struct-of-arrays, exactly `capacity` tuples (holes included).
struct Page {
  explicit Page(int32_t capacity)
      : size(capacity, 0),
        level(capacity, kNullLevel),
        kind(capacity, static_cast<uint8_t>(NodeKind::kUnused)),
        ref(capacity, -1),
        node(capacity, kNullNode),
        used(0) {}

  std::vector<int64_t> size;
  std::vector<int32_t> level;
  std::vector<uint8_t> kind;
  std::vector<int32_t> ref;
  std::vector<int64_t> node;
  int32_t used;  // number of real (non-hole) tuples
};

/// Thread-safe node-id allocator shared between a base store and all of
/// its transaction clones, so concurrent transactions never hand out the
/// same id. Ids claimed by an aborted transaction leak (harmless).
class NodeIdAllocator {
 public:
  std::vector<NodeId> Allocate(int64_t n);
  void Release(const std::vector<NodeId>& ids);
  NodeId limit() const;  // ids handed out so far live in [0, limit)
  void Seed(NodeId next, std::vector<NodeId> free);
  /// Guarantee `ids` can never be handed out again: raises the high
  /// water mark past them and drops them from the free list. Live
  /// commits Allocate() their ids from this shared allocator and never
  /// need it. Recovery does: WAL replay installs ids nobody here
  /// allocated, and without this a post-recovery commit would mint a
  /// duplicate. O(free list), so recovery calls it once, not per record.
  void MarkUsed(const std::vector<NodeId>& ids);

 private:
  mutable Mutex mu_;
  std::vector<NodeId> free_ PXQ_GUARDED_BY(mu_);
  NodeId next_ PXQ_GUARDED_BY(mu_) = 0;
};

/// Primitive-mutation log captured during a transaction so the same work
/// can be replayed onto the base store at commit time. Physical ids of
/// pages the transaction appended are clone-local; replay remaps them in
/// `page_appends` order.
struct OpLog {
  struct PageImage {        // an existing, locked page the txn wrote
    PageId phys;
    std::shared_ptr<Page> image;  // post-image; live until commit
    /// The page as the transaction found it, before its first write.
    std::shared_ptr<const Page> pre = nullptr;
    /// The tuples where `image` differs from `pre` in any column, set
    /// by SealRanges(). Outside [lo, hi) the image equals the page as
    /// the transaction found it, which is all the WAL needs to log.
    int32_t lo = 0;
    int32_t hi = 0;
  };
  struct PageAppend {       // fresh page appended by the transaction
    PageId clone_phys;
    std::shared_ptr<Page> image;
  };
  struct LogicalInsert {    // stitch: place page after an anchor page
    PageId clone_phys;      // page being inserted (remapped if fresh)
    PageId anchor_phys;     // existing physical page it follows
  };
  struct NodePosSet {
    NodeId node;
    PageId clone_phys;      // -1 => deleted (pos := kNullPos)
    int32_t offset;
  };
  /// Attribute mutation keyed by immutable owner node id (never by row
  /// index, which is not stable across replay).
  struct AttrOp {
    enum class Kind : uint8_t { kAdd, kRemoveOwner, kRemoveNamed, kSetNamed };
    Kind kind;
    NodeId owner;
    QnameId qname;  // kAdd / kRemoveNamed / kSetNamed
    ValueId prop;   // kAdd / kSetNamed
  };

  std::vector<PageImage> page_images;
  std::vector<PageAppend> page_appends;
  std::vector<LogicalInsert> logical_inserts;
  std::vector<NodePosSet> node_pos_sets;
  /// Nodes whose region extent this transaction may have changed
  /// ("size claims"). At commit the manager re-resolves each claimed
  /// node's size against the merged structure (ResolveSizes) — an exact,
  /// order-independent realization of the paper's commutative ancestor
  /// updates that also stays correct when a concurrent commit stitched
  /// pages into the same region.
  std::vector<NodeId> size_claims;
  std::vector<AttrOp> attr_ops;
  std::vector<NodeId> freed_nodes;      // released to the allocator at commit
  int64_t used_delta = 0;               // change in real-node count

  bool empty() const {
    return page_images.empty() && page_appends.empty() &&
           logical_inserts.empty() && node_pos_sets.empty() &&
           size_claims.empty() && attr_ops.empty() && freed_nodes.empty();
  }

  /// Diff each page image against its pre-image to set [lo, hi). Call
  /// once the transaction has stopped writing, before logging it.
  void SealRanges();
};

/// Counters exposed for the E2/E3 cost experiments.
struct PagedStoreStats {
  int64_t hole_fill_inserts = 0;   // fast path: wrote straight into holes
  int64_t within_page_inserts = 0; // shifted tuples inside one page
  int64_t overflow_inserts = 0;    // needed fresh pages
  int64_t pages_appended = 0;
  int64_t tuples_moved = 0;        // tuple copies caused by shifts/moves
  int64_t deletes = 0;
};

class PagedStore {
 public:
  struct Config {
    /// Tuples per logical page; must be a power of two. The paper uses
    /// the VM mapping granularity (64 Ki); tests use tiny pages to
    /// stress the page machinery.
    int32_t page_tuples = 1 << 16;
    /// Fraction of each page filled at shred time (rest left as holes).
    /// The Figure 9 scenario keeps ~20% unused => shred_fill = 0.8.
    double shred_fill = 0.8;
  };

  /// Hook invoked the first time an existing physical page is about to
  /// be structurally modified; a transaction layer acquires the page
  /// write lock here (incremental locking, Fig. 8). Returning non-OK
  /// aborts the edit.
  using PageWriteHook = std::function<Status(PageId)>;

  /// Repack a dense shredded document into logical pages, converting
  /// descendant-count sizes into view extents and assigning node ids
  /// (node == pos at shred time, as in the paper).
  static StatusOr<std::unique_ptr<PagedStore>> Build(DenseDocument doc,
                                                     const Config& config);

  // --- geometry ------------------------------------------------------
  int32_t page_tuples() const { return config_.page_tuples; }
  const Config& config() const { return config_; }
  int64_t logical_page_count() const {
    return static_cast<int64_t>(logical_pages_.size());
  }
  int64_t physical_page_count() const {
    return static_cast<int64_t>(pages_.size());
  }
  int64_t view_size() const { return logical_page_count() << page_bits_; }
  /// Page by physical id, 0 <= phys < physical_page_count().
  const Page& physical_page(PageId phys) const { return *pages_[phys]; }
  int64_t used_count() const { return used_count_; }

  // --- pre / pos / node translation (all O(1)) -------------------------
  PosId PosOfPre(PreId pre) const {
    return (logical_pages_[pre >> page_bits_] << page_bits_) |
           (pre & page_mask_);
  }
  PreId PreOfPos(PosId pos) const {
    return (page_logical_[pos >> page_bits_] << page_bits_) |
           (pos & page_mask_);
  }
  /// Physical position of a node id; kNullPos if deleted/never allocated.
  PosId PosOfNode(NodeId node) const;
  /// View position of a node id (the paper's swizzle), or NotFound.
  StatusOr<PreId> PreOfNode(NodeId node) const;

  // --- tuple access by pre ---------------------------------------------
  bool IsUsed(PreId pre) const { return LevelAt(pre) != kNullLevel; }
  int64_t SizeAt(PreId pre) const { return Field(&Page::size, pre); }
  int32_t LevelAt(PreId pre) const { return Field(&Page::level, pre); }
  NodeKind KindAt(PreId pre) const {
    return static_cast<NodeKind>(Field(&Page::kind, pre));
  }
  int32_t RefAt(PreId pre) const { return Field(&Page::ref, pre); }
  NodeId NodeAt(PreId pre) const { return Field(&Page::node, pre); }

  /// First used slot >= pre (view order); view_size() if none. Holes are
  /// skipped run-at-a-time via their size field.
  PreId SkipHoles(PreId pre) const;
  /// View position of the root element (first used slot).
  PreId Root() const { return SkipHoles(0); }

  /// Attribute owner key for a pre: the node id (requires reading the
  /// node column — the indirection Fig. 9 charges to the `up` schema).
  int64_t AttrOwnerOf(PreId pre) const { return NodeAt(pre); }

  // --- navigation --------------------------------------------------------
  /// Ancestor chain of `pre`, root first, parent last (empty for root),
  /// found by descending from the root with sibling size-skips.
  std::vector<PreId> AncestorChain(PreId pre) const;
  /// Parent of `pre` (kNullPre for the root).
  PreId ParentOf(PreId pre) const;

  // --- structural updates (Fig. 7) -----------------------------------------
  /// Insert a subtree of `tuples` (document order, levels relative to the
  /// subtree root) so its first tuple lands at view slot `at`, as content
  /// of the element at `parent_pre`. `at` must lie in (parent_pre,
  /// parent_pre + size + 1] extended to the free slots directly after the
  /// region — i.e. between two existing children, after the last child,
  /// or before the first. Returns the node ids assigned to the new
  /// tuples (document order); the caller attaches attribute rows itself.
  ///
  /// Internally picks the cheapest of three paths: hole fill (write into
  /// existing unused tuples — no moves), within-page shift (Fig. 7a), or
  /// page overflow (Fig. 7b: fill the page, spill the overflow into
  /// fresh pages stitched in logically). Ancestor sizes are maintained
  /// as commutative deltas (logged when an oplog is attached).
  StatusOr<std::vector<NodeId>> InsertTuples(
      PreId at, PreId parent_pre, const std::vector<NewTuple>& tuples);

  /// Delete the subtree rooted at view slot `pre`: tuples become holes,
  /// node/pos entries are nulled, ids recycled (deferred to commit when
  /// an oplog is attached), and attribute rows of the deleted elements
  /// removed. Returns the deleted node ids (document order). The root
  /// cannot be deleted.
  StatusOr<std::vector<NodeId>> DeleteSubtree(PreId pre);

  /// Value update: repoint a text/comment/pi node at a new pool value.
  Status SetRef(PreId pre, int32_t ref);

  /// Recompute the exact region extent of each claimed node against the
  /// current structure (deepest node first so parents see corrected
  /// child sizes). Dead nodes are skipped. Commit/recovery path.
  Status ResolveSizes(const std::vector<NodeId>& claims);

  // --- attributes / pools ---------------------------------------------------
  /// Attribute mutations go through the store so they are oplogged for
  /// transactional replay. Owners are immutable node ids.
  void AddAttr(NodeId owner, QnameId qname, ValueId prop);
  void RemoveAttrsOf(NodeId owner);
  /// Remove owner's attribute named `qname`; NotFound if absent.
  Status RemoveAttrNamed(NodeId owner, QnameId qname);
  /// Set (add or replace) owner's attribute named `qname`.
  void SetAttrNamed(NodeId owner, QnameId qname, ValueId prop);

  AttrTable& attrs() { return attrs_; }
  const AttrTable& attrs() const { return attrs_; }
  ContentPools& pools() { return *pools_; }
  const ContentPools& pools() const { return *pools_; }

  // --- transactions -----------------------------------------------------------
  /// O(#pages) snapshot: page payloads, node/pos pages and attribute
  /// chunks are shared copy-on-write, pools are shared append-only, and
  /// only the page tables and chunk pointer arrays are copied.
  std::unique_ptr<PagedStore> Clone() const;

  /// Attach a primitive-op log + page-write-lock hook (txn recording).
  void AttachOpLog(OpLog* log, PageWriteHook hook = nullptr);

  /// Attach a secondary-index maintenance buffer: structural and value
  /// mutations mark the affected node ids dirty (inserted/deleted nodes
  /// and the parent whose content or extent they change), so the commit
  /// path can re-derive their index entries against the merged base.
  void AttachIndexDelta(index::DeltaIndex* delta) { idx_delta_ = delta; }

  /// Replay a transaction's oplog onto this (base) store. Size claims
  /// are NOT resolved here; the caller follows up with ResolveSizes()
  /// over the claim set (its own plus concurrent commits'). Nor is the
  /// node-id allocator told about installed ids: a live commit
  /// allocated them from it, and recovery marks them used once, after
  /// its last record. The caller holds the global write lock and the
  /// page locks named by PagesWrittenBy().
  /// `installed` (optional) receives the physical pages this replay
  /// overwrote or appended — the set the transaction manager must fix up
  /// with concurrently committed foreign size deltas.
  Status ReplayOpLog(const OpLog& log,
                     std::vector<PageId>* installed = nullptr);

  /// Existing physical pages a replay of `log` would overwrite.
  static std::vector<PageId> PagesWrittenBy(const OpLog& log);

  const PagedStoreStats& stats() const { return stats_; }
  const std::shared_ptr<NodeIdAllocator>& node_allocator() const {
    return node_alloc_;
  }

  /// Payload bytes of node table + node/pos + page tables (E7 footprint).
  int64_t NodeTableBytes() const;

  // --- durability (checkpoint snapshots; implemented in txn/snapshot.cc)
  /// Write the full store (pages, page tables, node/pos, pools, attrs,
  /// allocator state) to a file, atomically: the bytes land in
  /// `<path>.tmp` (every write checked, whole-file checksum appended)
  /// and replace `path` only via fsync + rename + directory fsync — on
  /// any failure the previous snapshot is untouched. Call while
  /// nothing writes this store (a checkpoint holds the commit mutex;
  /// readers may run alongside). `last_lsn` is the highest commit LSN folded
  /// into this image (recovery skips WAL records at or below it) and
  /// `committed_claims` the outstanding (lsn, node) size-claims the
  /// cross-checkpoint fixup needs (see txn_manager).
  Status SaveSnapshot(const std::string& path, uint64_t last_lsn = 0,
                      const std::vector<std::pair<uint64_t, NodeId>>&
                          committed_claims = {}) const;
  /// Load a snapshot written by SaveSnapshot. Verifies the trailing
  /// checksum and bounds-checks every on-disk count, returning
  /// Status::Corruption (never throwing / over-allocating) on damage.
  static StatusOr<std::unique_ptr<PagedStore>> LoadSnapshot(
      const std::string& path, uint64_t* last_lsn = nullptr,
      std::vector<std::pair<uint64_t, NodeId>>* committed_claims = nullptr);

  /// Deep structural invariant check (tests): size/lrd semantics, hole
  /// runs, node/pos bijection, page-table inverses, used counts.
  Status CheckInvariants() const;

 private:
  explicit PagedStore(const Config& config);

  template <typename T>
  T Field(std::vector<T> Page::* column, PreId pre) const {
    const Page& pg = *view_[static_cast<size_t>(pre >> page_bits_)];
    return (pg.*column)[static_cast<size_t>(pre & page_mask_)];
  }

  /// Rebuild the materialized view (logical page order -> raw page
  /// pointers). This is our analog of MonetDB re-mapping the table's
  /// pages into a fresh virtual-memory region: reads then pay no
  /// indirection beyond one pointer per page. Called after every
  /// operation that changes page identities or the logical order; O(#
  /// pages), trivially cheap next to any structural edit.
  void RefreshView();

  // --- page plumbing ---
  /// Copy-on-write mutable access. While recording, the first touch of
  /// an existing page fires the write hook, copies the page and logs a
  /// PageImage of the copy with the original as its pre-image.
  StatusOr<Page*> MutablePage(PageId phys);
  PageId AppendPage();                      // physical append (+oplog)
  void StitchAfter(PageId phys, PageId anchor_phys);  // logical insert
  void RepairHoleRuns(PageId phys);         // one backward pass
  void SetNodePos(NodeId node, PosId pos);  // grows node/pos as needed

  // --- size maintenance (witness capture / recompute) ---
  struct Witness {
    NodeId node;      // the ancestor whose size may change
    NodeId lrd;       // its last real descendant before the edit (== node
                      // for a leaf); position re-resolved after the edit
    int64_t old_size;
  };
  /// Capture the ancestor chains (incl. the node itself when
  /// `include_self`) of each listed view position, deduplicated.
  std::vector<Witness> CaptureWitnesses(const std::vector<PreId>& pres,
                                        bool include_self) const;
  /// Recompute witness sizes after the edit. `extra_candidate` (used by
  /// inserts: the last inserted node) competes with the captured lrd for
  /// witnesses on `grow_chain` (node-id set of the insert parent chain).
  /// Emits and applies commutative deltas; logs them when recording.
  Status RecomputeSizes(const std::vector<Witness>& witnesses,
                        NodeId extra_candidate,
                        const std::unordered_set<NodeId>& grow_chain);

  struct TupleData {
    int64_t size;
    int32_t level;
    uint8_t kind;
    int32_t ref;
    int64_t node;
  };
  TupleData ReadTuple(const Page& pg, int32_t off) const;
  static void WriteTuple(Page* pg, int32_t off, const TupleData& t);
  static void MakeHole(Page* pg, int32_t off);

  /// Write a size value directly (recompute path): COW page write that
  /// does NOT log a page image — the delta is logged instead, so replay
  /// never double-counts.
  void WriteSizeRaw(PosId pos, int64_t size);

  // --- insert paths (Fig. 7) ---
  /// Are the view slots [at, at+k) all holes (within the current view)?
  bool AllHoles(PreId at, int64_t k) const;
  Status InsertHoleFill(PreId at, const std::vector<TupleData>& tuples);
  /// Shift within the page of `at`, consuming the holes at the page
  /// offsets listed in `removed_offs` (chosen by the planner).
  Status InsertWithinPage(PreId at, const std::vector<TupleData>& tuples,
                          const std::vector<int32_t>& removed_offs);
  Status InsertOverflow(PreId at, const std::vector<TupleData>& tuples);

  Config config_;
  int32_t page_bits_;
  int64_t page_mask_;

  std::vector<std::shared_ptr<Page>> pages_;  // physical order
  std::vector<PageId> logical_pages_;         // logical idx -> physical id
  std::vector<int64_t> page_logical_;         // physical id -> logical idx
  std::vector<const Page*> view_;             // materialized logical view

  // node/pos table, paged so Clone() stays O(#pages).
  std::vector<std::shared_ptr<std::vector<PosId>>> node_pos_pages_;

  std::shared_ptr<NodeIdAllocator> node_alloc_;
  int64_t used_count_ = 0;
  std::shared_ptr<ContentPools> pools_;
  AttrTable attrs_;

  OpLog* oplog_ = nullptr;
  index::DeltaIndex* idx_delta_ = nullptr;
  PageWriteHook page_write_hook_;
  std::unordered_set<PageId> imaged_pages_;   // logged PageImages
  std::unordered_set<PageId> fresh_pages_;    // appended while recording
  // Pages privatized by this store since the last Clone(). Cleared by
  // Clone(): afterwards every page is shared again and the next write
  // must copy. Mutable + mutex because concurrent readers may Clone()
  // under the shared global lock while writers mutate it exclusively.
  mutable std::unordered_set<PageId> cow_pages_ PXQ_GUARDED_BY(cow_mu_);
  mutable Mutex cow_mu_;

  PagedStoreStats stats_;
};

}  // namespace pxq::storage

#endif  // PXQ_STORAGE_PAGED_STORE_H_
