#include "storage/paged_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/strings.h"

namespace pxq::storage {

namespace {
bool IsPowerOfTwo(int64_t v) { return v > 0 && (v & (v - 1)) == 0; }

int32_t Log2(int64_t v) {
  int32_t b = 0;
  while ((int64_t{1} << b) < v) ++b;
  return b;
}
}  // namespace

// ---------------------------------------------------------------------------
// NodeIdAllocator
// ---------------------------------------------------------------------------

std::vector<NodeId> NodeIdAllocator::Allocate(int64_t n) {
  MutexLock lock(&mu_);
  std::vector<NodeId> out;
  out.reserve(static_cast<size_t>(n));
  while (n > 0 && !free_.empty()) {
    out.push_back(free_.back());
    free_.pop_back();
    --n;
  }
  while (n > 0) {
    out.push_back(next_++);
    --n;
  }
  // Document order favors ascending ids (purely cosmetic).
  std::sort(out.begin(), out.end());
  return out;
}

void NodeIdAllocator::Release(const std::vector<NodeId>& ids) {
  MutexLock lock(&mu_);
  free_.insert(free_.end(), ids.begin(), ids.end());
}

NodeId NodeIdAllocator::limit() const {
  MutexLock lock(&mu_);
  return next_;
}

void NodeIdAllocator::Seed(NodeId next, std::vector<NodeId> free) {
  MutexLock lock(&mu_);
  next_ = next;
  free_ = std::move(free);
}

void NodeIdAllocator::MarkUsed(const std::vector<NodeId>& ids) {
  if (ids.empty()) return;
  MutexLock lock(&mu_);
  NodeId max_id = -1;
  for (NodeId id : ids) max_id = std::max(max_id, id);
  if (max_id >= next_) next_ = max_id + 1;
  if (!free_.empty()) {
    std::vector<NodeId> sorted(ids);
    std::sort(sorted.begin(), sorted.end());
    free_.erase(
        std::remove_if(free_.begin(), free_.end(),
                       [&](NodeId id) {
                         return std::binary_search(sorted.begin(),
                                                   sorted.end(), id);
                       }),
        free_.end());
  }
}

// ---------------------------------------------------------------------------
// OpLog
// ---------------------------------------------------------------------------

namespace {

// Offset of the first difference of a and b in [0, end); `end` if none.
template <typename T>
size_t FirstDiff(const std::vector<T>& a, const std::vector<T>& b,
                 size_t end) {
  // memcmp runs at memory speed; only the block that differs is
  // searched element by element.
  constexpr size_t kBlock = 512;
  for (size_t i = 0; i < end; i += kBlock) {
    const size_t n = std::min(kBlock, end - i);
    if (std::memcmp(&a[i], &b[i], n * sizeof(T)) == 0) continue;
    while (a[i] == b[i]) ++i;
    return i;
  }
  return end;
}

// One past the last difference of a and b in [begin, size); `begin` if
// none.
template <typename T>
size_t LastDiffEnd(const std::vector<T>& a, const std::vector<T>& b,
                   size_t begin) {
  constexpr size_t kBlock = 512;
  for (size_t e = a.size(); e > begin;) {
    const size_t n = std::min(kBlock, e - begin);
    if (std::memcmp(&a[e - n], &b[e - n], n * sizeof(T)) != 0) {
      while (a[e - 1] == b[e - 1]) --e;
      return e;
    }
    e -= n;
  }
  return begin;
}

}  // namespace

void OpLog::SealRanges() {
  for (PageImage& pi : page_images) {
    assert(pi.pre != nullptr);
    const Page& pre = *pi.pre;
    const Page& post = *pi.image;
    const size_t cap = post.size.size();
    // Each column only searches the part the earlier columns left open.
    size_t lo = FirstDiff(pre.size, post.size, cap);
    lo = FirstDiff(pre.level, post.level, lo);
    lo = FirstDiff(pre.kind, post.kind, lo);
    lo = FirstDiff(pre.ref, post.ref, lo);
    lo = FirstDiff(pre.node, post.node, lo);
    size_t hi = lo;
    if (lo < cap) {
      hi = LastDiffEnd(pre.size, post.size, lo);
      hi = LastDiffEnd(pre.level, post.level, hi);
      hi = LastDiffEnd(pre.kind, post.kind, hi);
      hi = LastDiffEnd(pre.ref, post.ref, hi);
      hi = LastDiffEnd(pre.node, post.node, hi);
    }
    pi.lo = static_cast<int32_t>(lo);
    pi.hi = static_cast<int32_t>(hi);
  }
}

// ---------------------------------------------------------------------------
// Construction / Build
// ---------------------------------------------------------------------------

PagedStore::PagedStore(const Config& config)
    : config_(config),
      page_bits_(Log2(config.page_tuples)),
      page_mask_(config.page_tuples - 1),
      node_alloc_(std::make_shared<NodeIdAllocator>()) {}

void PagedStore::RefreshView() {
  view_.resize(logical_pages_.size());
  for (size_t l = 0; l < logical_pages_.size(); ++l) {
    view_[l] = pages_[static_cast<size_t>(logical_pages_[l])].get();
  }
}

StatusOr<std::unique_ptr<PagedStore>> PagedStore::Build(DenseDocument doc,
                                                        const Config& config) {
  if (!IsPowerOfTwo(config.page_tuples)) {
    return Status::InvalidArgument("page_tuples must be a power of two");
  }
  if (config.shred_fill <= 0.0 || config.shred_fill > 1.0) {
    return Status::InvalidArgument("shred_fill must be in (0, 1]");
  }
  if (doc.node_count() == 0) {
    return Status::InvalidArgument("cannot build a store from zero nodes");
  }

  auto store = std::unique_ptr<PagedStore>(new PagedStore(config));
  const int64_t n = doc.node_count();
  const int32_t cap = config.page_tuples;
  const auto upp = std::max<int64_t>(
      1, static_cast<int64_t>(cap * config.shred_fill));
  const int64_t num_pages = (n + upp - 1) / upp;

  // pre position of dense rank r: page r/upp, offset r%upp.
  auto pre_of_rank = [&](int64_t r) -> PreId {
    return (r / upp) * cap + (r % upp);
  };

  for (int64_t p = 0; p < num_pages; ++p) {
    PageId phys = store->AppendPage();
    store->StitchAfter(phys, p == 0 ? -1 : phys - 1);
  }

  for (int64_t r = 0; r < n; ++r) {
    PreId pre = pre_of_rank(r);
    Page* pg = store->pages_[pre >> store->page_bits_].get();  // fresh pages
    auto off = static_cast<size_t>(pre & store->page_mask_);
    // Dense size counts descendants; they are contiguous in dense rank,
    // so the last descendant has rank r + size and the view extent is
    // the position difference.
    pg->size[off] = pre_of_rank(r + doc.size[r]) - pre;
    pg->level[off] = doc.level[r];
    pg->kind[off] = doc.kind[r];
    pg->ref[off] = doc.ref[r];
    pg->node[off] = pre;  // node == pos == pre at shred time
    pg->used += 1;
  }
  store->used_count_ = n;
  for (int64_t p = 0; p < num_pages; ++p) store->RepairHoleRuns(p);

  // node/pos: identity for used slots, null for holes; hole ids seed the
  // free list (the paper's "scan for NULL pos" reuse, as a free list).
  std::vector<NodeId> free_ids;
  for (int64_t p = 0; p < num_pages; ++p) {
    auto npp = std::make_shared<std::vector<PosId>>(
        static_cast<size_t>(cap), kNullPos);
    const Page& pg = *store->pages_[p];
    for (int32_t i = 0; i < cap; ++i) {
      PosId pos = p * cap + i;
      if (pg.level[static_cast<size_t>(i)] != kNullLevel) {
        (*npp)[static_cast<size_t>(i)] = pos;
      } else {
        free_ids.push_back(pos);
      }
    }
    store->node_pos_pages_.push_back(std::move(npp));
  }
  // Free list in descending order so low ids are reused first.
  std::sort(free_ids.rbegin(), free_ids.rend());
  store->node_alloc_->Seed(num_pages * cap, std::move(free_ids));

  for (const auto& a : doc.attrs) {
    store->attrs_.Add(pre_of_rank(a.owner_pre), a.qname, a.prop);
  }
  store->pools_ = std::move(doc.pools);
  return store;
}

// ---------------------------------------------------------------------------
// Translation / access
// ---------------------------------------------------------------------------

PosId PagedStore::PosOfNode(NodeId node) const {
  if (node < 0) return kNullPos;
  int64_t pg = node >> page_bits_;
  if (pg >= static_cast<int64_t>(node_pos_pages_.size())) return kNullPos;
  return (*node_pos_pages_[pg])[static_cast<size_t>(node & page_mask_)];
}

StatusOr<PreId> PagedStore::PreOfNode(NodeId node) const {
  PosId pos = PosOfNode(node);
  if (pos == kNullPos) {
    return Status::NotFound(StrFormat("node %lld has no position",
                                      static_cast<long long>(node)));
  }
  return PreOfPos(pos);
}

PreId PagedStore::SkipHoles(PreId pre) const {
  const int64_t end = view_size();
  while (pre < end) {
    const Page& pg = *view_[static_cast<size_t>(pre >> page_bits_)];
    auto off = static_cast<size_t>(pre & page_mask_);
    if (pg.level[off] != kNullLevel) return pre;
    // Hole: its size is the count of directly following holes in the
    // same page — skip the whole run in one step.
    pre += pg.size[off] + 1;
  }
  return end;
}

std::vector<PreId> PagedStore::AncestorChain(PreId pre) const {
  std::vector<PreId> chain;
  PreId cur = Root();
  while (cur != pre) {
    chain.push_back(cur);
    // Child of cur whose region contains pre.
    PreId c = SkipHoles(cur + 1);
    while (!(c <= pre && pre <= c + SizeAt(c))) {
      c = SkipHoles(c + SizeAt(c) + 1);
      assert(c < view_size() && "descent lost its target");
    }
    cur = c;
  }
  return chain;
}

PreId PagedStore::ParentOf(PreId pre) const {
  auto chain = AncestorChain(pre);
  return chain.empty() ? kNullPre : chain.back();
}

// ---------------------------------------------------------------------------
// Page plumbing
// ---------------------------------------------------------------------------

StatusOr<Page*> PagedStore::MutablePage(PageId phys) {
  const bool fresh = fresh_pages_.count(phys) > 0;
  const bool imaged = imaged_pages_.count(phys) > 0;
  auto& slot = pages_[phys];
  if (oplog_ != nullptr && !fresh && !imaged) {
    if (page_write_hook_) {
      PXQ_RETURN_IF_ERROR(page_write_hook_(phys));
    }
    // Keep the page as found: the WAL logs only the range where the
    // image differs from it. Copy even an unshared page (one a
    // concurrent ResolveSizes copied away from the base): written in
    // place, it would be its own pre-image and the diff would be empty.
    std::shared_ptr<const Page> pre = slot;
    slot = std::make_shared<Page>(*slot);
    RefreshView();
    oplog_->page_images.push_back({phys, slot, std::move(pre)});
    imaged_pages_.insert(phys);
    return slot.get();
  }
  // Copy-on-write — but never re-copy a page this store already
  // privatized: the oplog's image reference must keep seeing later
  // writes of the same transaction (it is a live object, serialized
  // only at commit), so its extra refcount must not trigger a copy.
  bool owned = fresh || imaged;
  if (!owned) {
    MutexLock lock(&cow_mu_);
    owned = cow_pages_.count(phys) > 0;
  }
  if (!owned && SharedWithOthers(slot)) {
    slot = std::make_shared<Page>(*slot);  // copy-on-write
    {
      MutexLock lock(&cow_mu_);
      cow_pages_.insert(phys);
    }
    RefreshView();
  }
  return slot.get();
}

PageId PagedStore::AppendPage() {
  PageId phys = static_cast<PageId>(pages_.size());
  pages_.push_back(std::make_shared<Page>(config_.page_tuples));
  page_logical_.push_back(-1);
  if (oplog_ != nullptr) {
    fresh_pages_.insert(phys);
    oplog_->page_appends.push_back({phys, pages_.back()});
  }
  ++stats_.pages_appended;
  return phys;
}

void PagedStore::StitchAfter(PageId phys, PageId anchor_phys) {
  int64_t logical = (anchor_phys < 0) ? 0 : page_logical_[anchor_phys] + 1;
  logical_pages_.insert(logical_pages_.begin() + logical, phys);
  for (auto i = static_cast<size_t>(logical); i < logical_pages_.size(); ++i) {
    page_logical_[logical_pages_[i]] = static_cast<int64_t>(i);
  }
  if (oplog_ != nullptr) {
    oplog_->logical_inserts.push_back({phys, anchor_phys});
  }
  RefreshView();
}

void PagedStore::RepairHoleRuns(PageId phys) {
  Page* pg = pages_[phys].get();  // callers already hold a mutable page
  const int32_t cap = config_.page_tuples;
  int64_t run = 0;
  for (int32_t off = cap - 1; off >= 0; --off) {
    auto o = static_cast<size_t>(off);
    if (pg->level[o] == kNullLevel) {
      pg->size[o] = run;
      pg->kind[o] = static_cast<uint8_t>(NodeKind::kUnused);
      pg->ref[o] = -1;
      pg->node[o] = kNullNode;
      ++run;
    } else {
      run = 0;
    }
  }
}

void PagedStore::SetNodePos(NodeId node, PosId pos) {
  int64_t pg = node >> page_bits_;
  while (pg >= static_cast<int64_t>(node_pos_pages_.size())) {
    node_pos_pages_.push_back(std::make_shared<std::vector<PosId>>(
        static_cast<size_t>(config_.page_tuples), kNullPos));
  }
  auto& slot = node_pos_pages_[pg];
  if (SharedWithOthers(slot)) {
    slot = std::make_shared<std::vector<PosId>>(*slot);  // COW
  }
  (*slot)[static_cast<size_t>(node & page_mask_)] = pos;
  if (oplog_ != nullptr) {
    if (pos == kNullPos) {
      oplog_->node_pos_sets.push_back({node, PageId{-1}, 0});
    } else {
      oplog_->node_pos_sets.push_back(
          {node, pos >> page_bits_, static_cast<int32_t>(pos & page_mask_)});
    }
  }
}

PagedStore::TupleData PagedStore::ReadTuple(const Page& pg,
                                            int32_t off) const {
  auto o = static_cast<size_t>(off);
  return {pg.size[o], pg.level[o], pg.kind[o], pg.ref[o], pg.node[o]};
}

void PagedStore::WriteTuple(Page* pg, int32_t off, const TupleData& t) {
  auto o = static_cast<size_t>(off);
  pg->size[o] = t.size;
  pg->level[o] = t.level;
  pg->kind[o] = t.kind;
  pg->ref[o] = t.ref;
  pg->node[o] = t.node;
}

void PagedStore::MakeHole(Page* pg, int32_t off) {
  auto o = static_cast<size_t>(off);
  pg->size[o] = 0;  // exact run length restored by RepairHoleRuns
  pg->level[o] = kNullLevel;
  pg->kind[o] = static_cast<uint8_t>(NodeKind::kUnused);
  pg->ref[o] = -1;
  pg->node[o] = kNullNode;
}

void PagedStore::WriteSizeRaw(PosId pos, int64_t size) {
  // Ancestor-size path: COW write without logging a page image — the
  // commutative delta is logged instead (never both, or replay would
  // double-count). If the page happens to be imaged/fresh already, the
  // image carries the value and ReplayOpLog skips the delta for it.
  const PageId phys = pos >> page_bits_;
  auto& slot = pages_[phys];
  bool owned = fresh_pages_.count(phys) > 0 || imaged_pages_.count(phys) > 0;
  if (!owned) {
    MutexLock lock(&cow_mu_);
    owned = cow_pages_.count(phys) > 0;
  }
  if (!owned && SharedWithOthers(slot)) {
    slot = std::make_shared<Page>(*slot);
    {
      MutexLock lock(&cow_mu_);
      cow_pages_.insert(phys);
    }
    RefreshView();
  }
  slot->size[static_cast<size_t>(pos & page_mask_)] = size;
}

// ---------------------------------------------------------------------------
// Size maintenance
// ---------------------------------------------------------------------------

std::vector<PagedStore::Witness> PagedStore::CaptureWitnesses(
    const std::vector<PreId>& pres, bool include_self) const {
  std::vector<Witness> out;
  std::unordered_set<NodeId> seen;
  for (PreId p : pres) {
    std::vector<PreId> chain = AncestorChain(p);
    if (include_self) chain.push_back(p);
    for (PreId a : chain) {
      NodeId id = NodeAt(a);
      if (!seen.insert(id).second) continue;
      int64_t size = SizeAt(a);
      // size(v) = pre(lrd) - pre(v): the tuple at region end IS lrd.
      NodeId lrd = (size == 0) ? id : NodeAt(a + size);
      out.push_back({id, lrd, size});
    }
  }
  return out;
}

Status PagedStore::RecomputeSizes(
    const std::vector<Witness>& witnesses, NodeId extra_candidate,
    const std::unordered_set<NodeId>& grow_chain) {
  PreId extra_pre = kNullPre;
  if (extra_candidate != kNullNode) {
    PXQ_ASSIGN_OR_RETURN(extra_pre, PreOfNode(extra_candidate));
  }
  for (const Witness& w : witnesses) {
    PXQ_ASSIGN_OR_RETURN(PreId v_pre, PreOfNode(w.node));
    PXQ_ASSIGN_OR_RETURN(PreId lrd_pre, PreOfNode(w.lrd));
    int64_t new_size = lrd_pre - v_pre;
    if (extra_pre != kNullPre && grow_chain.count(w.node)) {
      new_size = std::max(new_size, extra_pre - v_pre);
    }
    if (new_size != w.old_size) {
      WriteSizeRaw(PosOfNode(w.node), new_size);
    }
    // Claim every witness — even a locally-unchanged extent may need a
    // commit-time re-resolution once concurrent work is merged in.
    if (oplog_ != nullptr) oplog_->size_claims.push_back(w.node);
  }
  return Status::OK();
}

}  // namespace pxq::storage

namespace pxq::storage {

Status PagedStore::ResolveSizes(const std::vector<NodeId>& claims) {
  // Deepest first: a parent's extent walk relies on its children's
  // (possibly also claimed) sizes being correct already.
  struct Claim {
    NodeId node;
    PreId pre;
    int32_t level;
  };
  std::vector<Claim> live;
  std::unordered_set<NodeId> seen;
  for (NodeId n : claims) {
    if (!seen.insert(n).second) continue;
    PosId pos = PosOfNode(n);
    if (pos == kNullPos) continue;  // deleted by a later commit
    PreId pre = PreOfPos(pos);
    live.push_back({n, pre, LevelAt(pre)});
  }
  std::sort(live.begin(), live.end(),
            [](const Claim& a, const Claim& b) { return a.level > b.level; });
  const PreId end = view_size();
  for (const Claim& c : live) {
    // Region-bound-free walk along the rightmost child spine: the bound
    // being recomputed cannot be trusted, so sibling iteration stops on
    // the LEVEL dropping to c's level or below (document structure),
    // while child extents (deeper, already resolved) do the skipping.
    const int32_t clevel = c.level;
    PreId first = SkipHoles(c.pre + 1);
    if (first >= end || LevelAt(first) <= clevel) {
      if (SizeAt(c.pre) != 0) WriteSizeRaw(PosOfPre(c.pre), 0);
      continue;  // childless
    }
    PreId last_child = first;
    for (PreId s = SkipHoles(first + SizeAt(first) + 1);
         s < end && LevelAt(s) > clevel;
         s = SkipHoles(s + SizeAt(s) + 1)) {
      last_child = s;
    }
    int64_t new_size = (last_child + SizeAt(last_child)) - c.pre;
    if (SizeAt(c.pre) != new_size) WriteSizeRaw(PosOfPre(c.pre), new_size);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Structural insert (Fig. 7)
// ---------------------------------------------------------------------------

bool PagedStore::AllHoles(PreId at, int64_t k) const {
  if (at < 0 || at + k > view_size()) return false;
  for (PreId p = at; p < at + k; ++p) {
    if (IsUsed(p)) return false;
  }
  return true;
}

StatusOr<std::vector<NodeId>> PagedStore::InsertTuples(
    PreId at, PreId parent_pre, const std::vector<NewTuple>& tuples) {
  // --- validation ----------------------------------------------------
  if (tuples.empty()) {
    return Status::InvalidArgument("empty tuple sequence");
  }
  if (parent_pre < 0 || parent_pre >= view_size() || !IsUsed(parent_pre)) {
    return Status::InvalidArgument("insert parent is not a used tuple");
  }
  if (KindAt(parent_pre) != NodeKind::kElement) {
    return Status::InvalidArgument("insert parent is not an element");
  }
  if (at <= parent_pre || at > parent_pre + SizeAt(parent_pre) + 1 ||
      at > view_size()) {
    return Status::InvalidArgument("insert slot outside parent region");
  }
  // A forest is allowed: multiple level_rel == 0 roots inserted as
  // consecutive content of the parent.
  if (tuples[0].level_rel != 0) {
    return Status::InvalidArgument("first tuple must have level_rel 0");
  }
  for (size_t i = 1; i < tuples.size(); ++i) {
    if (tuples[i].level_rel < 0 ||
        tuples[i].level_rel > tuples[i - 1].level_rel + 1) {
      return Status::InvalidArgument("malformed forest level sequence");
    }
  }

  const auto k = static_cast<int64_t>(tuples.size());
  const int32_t cap = config_.page_tuples;

  // --- build tuple images ---------------------------------------------
  // Sizes of the new nodes are view extents; the block is written onto
  // contiguous view slots, so the extent is the index distance to the
  // last descendant within the block (computed with a level stack).
  std::vector<NodeId> ids = node_alloc_->Allocate(k);
  const NodeId parent_node = NodeAt(parent_pre);
  const int32_t parent_level = LevelAt(parent_pre);
  std::vector<TupleData> td(static_cast<size_t>(k));
  {
    std::vector<size_t> stack;  // open ancestors (indices into tuples)
    std::vector<int64_t> last_desc(static_cast<size_t>(k));
    for (size_t i = 0; i < tuples.size(); ++i) {
      while (!stack.empty() &&
             tuples[stack.back()].level_rel >= tuples[i].level_rel) {
        stack.pop_back();
      }
      stack.push_back(i);
      for (size_t a : stack) last_desc[a] = static_cast<int64_t>(i);
    }
    for (size_t i = 0; i < tuples.size(); ++i) {
      td[i] = {last_desc[i] - static_cast<int64_t>(i),
               parent_level + 1 + tuples[i].level_rel,
               static_cast<uint8_t>(tuples[i].kind), tuples[i].ref, ids[i]};
    }
  }

  // --- plan the physical path ----------------------------------------
  enum class Path { kHoleFill, kWithinPage, kOverflow };
  Path path;
  std::vector<int32_t> removed_offs;   // within-page: consumed hole slots
  std::vector<PreId> witness_pres{parent_pre};

  if (at == view_size()) {
    path = Path::kOverflow;
  } else if (IsUsed(at) && at - k > parent_pre && AllHoles(at - k, k)) {
    // Backfill: an insert-before can reuse the free slots directly in
    // front of the successor (they are interior to the parent region).
    at -= k;
    path = Path::kHoleFill;
  } else if (AllHoles(at, k)) {
    path = Path::kHoleFill;
  } else {
    const PageId phys = logical_pages_[at >> page_bits_];
    const auto at_off = static_cast<int32_t>(at & page_mask_);
    const Page& pg = *pages_[phys];
    // Holes available in this page at or after the insert offset.
    std::vector<int32_t> hole_offs;
    for (int32_t o = at_off; o < cap; ++o) {
      if (pg.level[static_cast<size_t>(o)] == kNullLevel) {
        hole_offs.push_back(o);
      }
    }
    if (static_cast<int64_t>(hole_offs.size()) >= k) {
      path = Path::kWithinPage;
      // Consume the *last* k holes: content between them shifts right,
      // content after them stays put.
      removed_offs.assign(hole_offs.end() - static_cast<size_t>(k),
                          hole_offs.end());
      // Regions spanning a consumed hole contract; every such region is
      // an ancestor-or-self of the real tuple directly before the hole.
      int32_t prev_real = -1;
      for (int32_t o = 0; o < removed_offs.front(); ++o) {
        if (pg.level[static_cast<size_t>(o)] != kNullLevel) prev_real = o;
      }
      size_t next_removed = 0;
      for (int32_t o = removed_offs.front(); o < cap; ++o) {
        if (next_removed < removed_offs.size() &&
            o == removed_offs[next_removed]) {
          ++next_removed;
          if (prev_real >= 0) {
            witness_pres.push_back((at & ~page_mask_) | prev_real);
          }
          // else: the hole's owners lie on earlier pages; they are
          // ancestors of the parent and already witnessed via it.
        } else if (pg.level[static_cast<size_t>(o)] != kNullLevel) {
          prev_real = o;
        }
      }
    } else {
      path = Path::kOverflow;
    }
  }

  if (path == Path::kOverflow && at < view_size()) {
    // The spilled tail ends in fresh-page padding holes; regions spanning
    // that new boundary are ancestors of the last real tuple of the tail.
    const PageId phys = logical_pages_[at >> page_bits_];
    const auto at_off = static_cast<int32_t>(at & page_mask_);
    const Page& pg = *pages_[phys];
    for (int32_t o = cap - 1; o >= at_off; --o) {
      if (pg.level[static_cast<size_t>(o)] != kNullLevel) {
        witness_pres.push_back((at & ~page_mask_) | o);
        break;
      }
    }
  }

  // --- capture size witnesses before mutating --------------------------
  std::vector<Witness> witnesses =
      CaptureWitnesses(witness_pres, /*include_self=*/true);
  std::unordered_set<NodeId> grow_chain;
  for (PreId a : AncestorChain(parent_pre)) grow_chain.insert(NodeAt(a));
  grow_chain.insert(NodeAt(parent_pre));

  // --- execute ----------------------------------------------------------
  Status s;
  switch (path) {
    case Path::kHoleFill:
      s = InsertHoleFill(at, td);
      ++stats_.hole_fill_inserts;
      break;
    case Path::kWithinPage:
      s = InsertWithinPage(at, td, removed_offs);
      ++stats_.within_page_inserts;
      break;
    case Path::kOverflow:
      s = InsertOverflow(at, td);
      ++stats_.overflow_inserts;
      break;
  }
  PXQ_RETURN_IF_ERROR(s);

  used_count_ += k;
  if (oplog_ != nullptr) oplog_->used_delta += k;

  // --- ancestor size maintenance ----------------------------------------
  PXQ_RETURN_IF_ERROR(
      RecomputeSizes(witnesses, td.back().node, grow_chain));
  if (idx_delta_ != nullptr) {
    // The parent's value-index entry depends on its content; deeper
    // ancestors have an element child on the path and are never
    // value-indexed, so marking the parent suffices.
    idx_delta_->MarkStructural();  // pre ranks shifted
    idx_delta_->MarkDirty(parent_node);
    idx_delta_->MarkDirty(ids);
  }
  return ids;
}

Status PagedStore::InsertHoleFill(PreId at,
                                  const std::vector<TupleData>& tuples) {
  std::vector<PageId> touched;
  for (size_t i = 0; i < tuples.size(); ++i) {
    PreId pre = at + static_cast<int64_t>(i);
    PageId phys = logical_pages_[pre >> page_bits_];
    PXQ_ASSIGN_OR_RETURN(Page * pg, MutablePage(phys));
    auto off = static_cast<int32_t>(pre & page_mask_);
    assert(pg->level[static_cast<size_t>(off)] == kNullLevel);
    WriteTuple(pg, off, tuples[i]);
    pg->used += 1;
    SetNodePos(tuples[i].node, (phys << page_bits_) | off);
    if (touched.empty() || touched.back() != phys) touched.push_back(phys);
  }
  for (PageId p : touched) RepairHoleRuns(p);
  return Status::OK();
}

Status PagedStore::InsertWithinPage(PreId at,
                                    const std::vector<TupleData>& tuples,
                                    const std::vector<int32_t>& removed_offs) {
  const int32_t cap = config_.page_tuples;
  const PageId phys = logical_pages_[at >> page_bits_];
  const auto at_off = static_cast<int32_t>(at & page_mask_);
  PXQ_ASSIGN_OR_RETURN(Page * pg, MutablePage(phys));

  // Old content of [at_off, cap) minus the consumed holes...
  std::vector<TupleData> seq;
  seq.reserve(static_cast<size_t>(cap - at_off));
  for (const TupleData& t : tuples) seq.push_back(t);
  {
    size_t next_removed = 0;
    for (int32_t o = at_off; o < cap; ++o) {
      if (next_removed < removed_offs.size() &&
          o == removed_offs[next_removed]) {
        ++next_removed;
        continue;
      }
      seq.push_back(ReadTuple(*pg, o));
    }
  }
  assert(static_cast<int32_t>(seq.size()) == cap - at_off);

  // ... written back with the new tuples in front.
  for (int32_t o = at_off; o < cap; ++o) {
    const TupleData& t = seq[static_cast<size_t>(o - at_off)];
    bool was_new = (o - at_off) < static_cast<int32_t>(tuples.size());
    if (t.node != kNullNode) {
      PosId new_pos = (phys << page_bits_) | o;
      if (was_new || PosOfNode(t.node) != new_pos) {
        SetNodePos(t.node, new_pos);
        if (!was_new) ++stats_.tuples_moved;
      }
    }
    WriteTuple(pg, o, t);
  }
  pg->used += static_cast<int32_t>(tuples.size());
  RepairHoleRuns(phys);
  return Status::OK();
}

Status PagedStore::InsertOverflow(PreId at,
                                  const std::vector<TupleData>& tuples) {
  const int32_t cap = config_.page_tuples;
  const bool at_end = (at == view_size());
  const PageId p_phys =
      at_end ? logical_pages_.back() : logical_pages_[at >> page_bits_];
  const auto at_off =
      at_end ? cap : static_cast<int32_t>(at & page_mask_);

  // S = new tuples ++ old tail of the page (holes preserved). |S| =
  // k + (cap - at_off); the page keeps the first cap - at_off entries,
  // so exactly k tuples spill into fresh pages.
  std::vector<TupleData> seq(tuples);
  // The anchor page is locked/imaged even for a pure append (at_off ==
  // cap): concurrent trailing inserts must serialize (their ancestor
  // size deltas do not commute; see DESIGN.md).
  PXQ_ASSIGN_OR_RETURN(Page * pg, MutablePage(p_phys));
  for (int32_t o = at_off; o < cap; ++o) {
    seq.push_back(ReadTuple(*pg, o));
  }

  size_t idx = 0;
  int32_t used_delta_p = 0;
  for (int32_t o = at_off; o < cap; ++o, ++idx) {
    const TupleData& t = seq[idx];
    bool was_new = idx < tuples.size();
    if (t.node != kNullNode) {
      PosId new_pos = (p_phys << page_bits_) | o;
      if (was_new) {
        ++used_delta_p;
        SetNodePos(t.node, new_pos);
      } else if (PosOfNode(t.node) != new_pos) {
        SetNodePos(t.node, new_pos);
        ++stats_.tuples_moved;
      }
    } else if (!was_new && pg->level[static_cast<size_t>(o)] != kNullLevel) {
      // a real tuple is replaced by a spilled hole; accounted below
    }
    WriteTuple(pg, o, t);
  }
  // Recount used on the anchor page (mixed moves make delta tracking
  // error-prone; one pass over the page is already paid for).
  {
    int32_t used = 0;
    for (int32_t o = 0; o < cap; ++o) {
      if (pg->level[static_cast<size_t>(o)] != kNullLevel) ++used;
    }
    pg->used = used;
  }
  RepairHoleRuns(p_phys);
  (void)used_delta_p;

  // Spill the remainder into fresh pages stitched after the anchor.
  PageId anchor = p_phys;
  while (idx < seq.size()) {
    PageId f = AppendPage();
    StitchAfter(f, anchor);
    anchor = f;
    Page* fp = pages_[f].get();
    int32_t used = 0;
    for (int32_t o = 0; o < cap && idx < seq.size(); ++o, ++idx) {
      const TupleData& t = seq[idx];
      WriteTuple(fp, o, t);
      if (t.node != kNullNode) {
        bool was_new = idx < tuples.size();
        PosId new_pos = (f << page_bits_) | o;
        SetNodePos(t.node, new_pos);
        if (!was_new) ++stats_.tuples_moved;
        ++used;
      }
    }
    fp->used = used;
    RepairHoleRuns(f);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Structural delete
// ---------------------------------------------------------------------------

StatusOr<std::vector<NodeId>> PagedStore::DeleteSubtree(PreId pre) {
  if (pre < 0 || pre >= view_size() || !IsUsed(pre)) {
    return Status::InvalidArgument("delete target is not a used tuple");
  }
  if (pre == Root()) {
    return Status::InvalidArgument("cannot delete the document root");
  }
  const int64_t size = SizeAt(pre);
  const PreId region_end = pre + size;

  // --- capture ----------------------------------------------------------
  std::vector<PreId> chain = AncestorChain(pre);  // root .. parent
  const PreId parent = chain.back();
  struct ChainInfo {
    NodeId node;
    PreId node_pre;
    int64_t old_size;
    bool lrd_in_region;
  };
  std::vector<ChainInfo> infos;
  infos.reserve(chain.size());
  for (PreId a : chain) {
    int64_t asize = SizeAt(a);
    PreId lrd_pre = a + asize;
    infos.push_back(
        {NodeAt(a), a, asize, lrd_pre >= pre && lrd_pre <= region_end});
  }

  // New lrd of the parent if the deleted node was its trailing content:
  // the lrd of the preceding sibling (or the parent itself).
  bool parent_trailing = infos.back().lrd_in_region;
  PreId new_parent_lrd_pre = parent;  // parent becomes childless
  if (parent_trailing) {
    PreId c = SkipHoles(parent + 1);
    while (c < pre) {
      new_parent_lrd_pre = c + SizeAt(c);  // lrd(c) in O(1)
      c = SkipHoles(c + SizeAt(c) + 1);
    }
  }
  NodeId new_parent_lrd =
      (new_parent_lrd_pre == parent) ? infos.back().node
                                     : NodeAt(new_parent_lrd_pre);

  // --- mark the region as holes -----------------------------------------
  std::vector<NodeId> freed;
  std::vector<PageId> touched;
  for (PreId p = pre; p <= region_end; ++p) {
    PageId phys = logical_pages_[p >> page_bits_];
    PXQ_ASSIGN_OR_RETURN(Page * pg, MutablePage(phys));
    auto off = static_cast<int32_t>(p & page_mask_);
    if (pg->level[static_cast<size_t>(off)] == kNullLevel) {
      // interior hole: skip its run
      p += pg->size[static_cast<size_t>(off)];
      continue;
    }
    NodeId id = pg->node[static_cast<size_t>(off)];
    if (static_cast<NodeKind>(pg->kind[static_cast<size_t>(off)]) ==
        NodeKind::kElement) {
      RemoveAttrsOf(id);
    }
    MakeHole(pg, off);
    pg->used -= 1;
    SetNodePos(id, kNullPos);
    freed.push_back(id);
    if (touched.empty() || touched.back() != phys) touched.push_back(phys);
  }
  for (PageId p : touched) RepairHoleRuns(p);
  used_count_ -= static_cast<int64_t>(freed.size());
  if (oplog_ != nullptr) {
    oplog_->used_delta -= static_cast<int64_t>(freed.size());
    oplog_->freed_nodes.insert(oplog_->freed_nodes.end(), freed.begin(),
                               freed.end());
  } else {
    node_alloc_->Release(freed);
  }
  ++stats_.deletes;

  // --- shrink trailing ancestor extents bottom-up -------------------------
  // Deletes move nothing, so only chains whose lrd died change size.
  NodeId cur_lrd = new_parent_lrd;
  PreId cur_lrd_pre =
      (new_parent_lrd_pre == parent) ? parent : new_parent_lrd_pre;
  for (auto it = infos.rbegin(); it != infos.rend(); ++it) {
    if (!it->lrd_in_region) break;  // higher ancestors end elsewhere
    int64_t new_size = cur_lrd_pre - it->node_pre;
    if (new_size != it->old_size) {
      WriteSizeRaw(PosOfNode(it->node), new_size);
    }
    if (oplog_ != nullptr) oplog_->size_claims.push_back(it->node);
    // The chain is this ancestor's trailing content, so its new lrd is
    // the same node (or itself if it became empty — impossible above the
    // parent, which still contains this chain).
    (void)cur_lrd;
  }
  if (idx_delta_ != nullptr) {
    idx_delta_->MarkStructural();  // pre ranks shifted
    idx_delta_->MarkDirty(infos.back().node);  // parent content changed
    idx_delta_->MarkDirty(freed);
  }
  return freed;
}

Status PagedStore::SetRef(PreId pre, int32_t ref) {
  if (pre < 0 || pre >= view_size() || !IsUsed(pre)) {
    return Status::InvalidArgument("SetRef target is not a used tuple");
  }
  PageId phys = logical_pages_[pre >> page_bits_];
  PXQ_ASSIGN_OR_RETURN(Page * pg, MutablePage(phys));
  pg->ref[static_cast<size_t>(pre & page_mask_)] = ref;
  if (idx_delta_ != nullptr) {
    if (KindAt(pre) == NodeKind::kElement) {
      // Element rename re-keys it. Its element children's path-index
      // keys change too, but THEIR re-derivation is commit-side
      // (IndexManager::ApplyDirty detects the qname change and walks the
      // children of the *merged* base): enumerating children here, on
      // the clone, would miss a child a concurrent transaction commits
      // first.
      idx_delta_->MarkDirty(NodeAt(pre));
    } else {
      // A text/comment/pi repoint changes the parent's string value; the
      // node itself holds no index entries.
      PreId parent = ParentOf(pre);
      if (parent != kNullPre) idx_delta_->MarkDirty(NodeAt(parent));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

void PagedStore::AddAttr(NodeId owner, QnameId qname, ValueId prop) {
  attrs_.Add(owner, qname, prop);
  if (oplog_ != nullptr) {
    oplog_->attr_ops.push_back(
        {OpLog::AttrOp::Kind::kAdd, owner, qname, prop});
  }
  if (idx_delta_ != nullptr) idx_delta_->MarkDirty(owner);
}

void PagedStore::RemoveAttrsOf(NodeId owner) {
  attrs_.RemoveOwner(owner);
  if (oplog_ != nullptr) {
    oplog_->attr_ops.push_back(
        {OpLog::AttrOp::Kind::kRemoveOwner, owner, -1, -1});
  }
  if (idx_delta_ != nullptr) idx_delta_->MarkDirty(owner);
}

Status PagedStore::RemoveAttrNamed(NodeId owner, QnameId qname) {
  int32_t row = attrs_.FindByName(owner, qname);
  if (row < 0) {
    return Status::NotFound("attribute not present on node");
  }
  attrs_.RemoveRow(row);
  if (oplog_ != nullptr) {
    oplog_->attr_ops.push_back(
        {OpLog::AttrOp::Kind::kRemoveNamed, owner, qname, -1});
  }
  if (idx_delta_ != nullptr) idx_delta_->MarkDirty(owner);
  return Status::OK();
}

void PagedStore::SetAttrNamed(NodeId owner, QnameId qname, ValueId prop) {
  int32_t row = attrs_.FindByName(owner, qname);
  if (row >= 0) {
    attrs_.SetProp(row, prop);
  } else {
    attrs_.Add(owner, qname, prop);
  }
  if (oplog_ != nullptr) {
    oplog_->attr_ops.push_back(
        {OpLog::AttrOp::Kind::kSetNamed, owner, qname, prop});
  }
  if (idx_delta_ != nullptr) idx_delta_->MarkDirty(owner);
}

// ---------------------------------------------------------------------------
// Clone / oplog replay (transaction substrate)
// ---------------------------------------------------------------------------

std::unique_ptr<PagedStore> PagedStore::Clone() const {
  auto clone = std::unique_ptr<PagedStore>(new PagedStore(config_));
  clone->pages_ = pages_;                    // shared payloads (COW)
  clone->logical_pages_ = logical_pages_;
  clone->page_logical_ = page_logical_;
  clone->node_pos_pages_ = node_pos_pages_;  // shared payloads (COW)
  clone->node_alloc_ = node_alloc_;          // shared allocator
  clone->used_count_ = used_count_;
  clone->pools_ = pools_;                    // shared, append-only
  clone->attrs_ = attrs_;                    // shared chunks (COW)
  clone->RefreshView();
  // Every page is shared with the clone now; this store's next write to
  // any of them must copy again.
  {
    MutexLock lock(&cow_mu_);
    cow_pages_.clear();
  }
  return clone;
}

void PagedStore::AttachOpLog(OpLog* log, PageWriteHook hook) {
  oplog_ = log;
  page_write_hook_ = std::move(hook);
  imaged_pages_.clear();
  fresh_pages_.clear();
}

std::vector<PageId> PagedStore::PagesWrittenBy(const OpLog& log) {
  std::vector<PageId> out;
  out.reserve(log.page_images.size());
  for (const auto& pi : log.page_images) out.push_back(pi.phys);
  return out;
}

Status PagedStore::ReplayOpLog(const OpLog& log,
                               std::vector<PageId>* installed_out) {
  if (oplog_ != nullptr) {
    return Status::InvalidArgument("cannot replay into a recording store");
  }
  std::unordered_map<PageId, PageId> remap;
  std::unordered_set<PageId> installed;

  for (const auto& pa : log.page_appends) {
    PageId np = static_cast<PageId>(pages_.size());
    pages_.push_back(pa.image);  // adopt the transaction's page
    page_logical_.push_back(-1);
    remap[pa.clone_phys] = np;
    installed.insert(np);
  }
  auto mapped = [&](PageId p) {
    auto it = remap.find(p);
    return it == remap.end() ? p : it->second;
  };
  for (const auto& pi : log.page_images) {
    if (pi.phys < 0 || pi.phys >= static_cast<PageId>(pages_.size())) {
      return Status::Corruption("oplog image references unknown page");
    }
    pages_[pi.phys] = pi.image;
    installed.insert(pi.phys);
  }
  // Installed pages alias the committed transaction's objects; they are
  // not privately owned by this store anymore.
  {
    MutexLock lock(&cow_mu_);
    for (PageId p : installed) cow_pages_.erase(p);
  }
  RefreshView();
  for (const auto& li : log.logical_inserts) {
    StitchAfter(mapped(li.clone_phys), mapped(li.anchor_phys));
  }
  for (const auto& nps : log.node_pos_sets) {
    if (nps.clone_phys < 0) {
      SetNodePos(nps.node, kNullPos);
    } else {
      SetNodePos(nps.node,
                 (mapped(nps.clone_phys) << page_bits_) | nps.offset);
    }
  }
  for (const auto& op : log.attr_ops) {
    switch (op.kind) {
      case OpLog::AttrOp::Kind::kAdd:
        attrs_.Add(op.owner, op.qname, op.prop);
        break;
      case OpLog::AttrOp::Kind::kRemoveOwner:
        attrs_.RemoveOwner(op.owner);
        break;
      case OpLog::AttrOp::Kind::kRemoveNamed: {
        int32_t row = attrs_.FindByName(op.owner, op.qname);
        if (row >= 0) attrs_.RemoveRow(row);
        break;
      }
      case OpLog::AttrOp::Kind::kSetNamed: {
        int32_t row = attrs_.FindByName(op.owner, op.qname);
        if (row >= 0) {
          attrs_.SetProp(row, op.prop);
        } else {
          attrs_.Add(op.owner, op.qname, op.prop);
        }
        break;
      }
    }
  }
  node_alloc_->Release(log.freed_nodes);
  used_count_ += log.used_delta;
  // Size claims are resolved by the caller via ResolveSizes().
  if (installed_out != nullptr) {
    installed_out->assign(installed.begin(), installed.end());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

int64_t PagedStore::NodeTableBytes() const {
  // Per tuple: size(8) + level(4) + kind(1) + ref(4) + node(8).
  constexpr int64_t kTupleBytes = 25;
  int64_t bytes = physical_page_count() * config_.page_tuples * kTupleBytes;
  // node/pos table + the two page tables.
  bytes += static_cast<int64_t>(node_pos_pages_.size()) *
           config_.page_tuples * static_cast<int64_t>(sizeof(PosId));
  bytes += static_cast<int64_t>(logical_pages_.size() * sizeof(PageId));
  bytes += static_cast<int64_t>(page_logical_.size() * sizeof(int64_t));
  return bytes;
}

Status PagedStore::CheckInvariants() const {
  const int32_t cap = config_.page_tuples;
  // Page tables are inverse permutations.
  if (logical_pages_.size() != page_logical_.size() ||
      logical_pages_.size() != pages_.size()) {
    return Status::Corruption("page table sizes disagree");
  }
  for (size_t l = 0; l < logical_pages_.size(); ++l) {
    PageId phys = logical_pages_[l];
    if (phys < 0 || phys >= static_cast<PageId>(pages_.size()) ||
        page_logical_[phys] != static_cast<int64_t>(l)) {
      return Status::Corruption("page tables are not inverse");
    }
  }

  int64_t used = 0;
  std::vector<std::pair<PreId, int64_t>> stack;  // (pre, size) of open nodes
  std::vector<PreId> lrd_check;  // pre of last real node seen per level path
  PreId prev_used = kNullPre;
  int32_t prev_level = -1;

  for (PreId pre = 0; pre < view_size(); ++pre) {
    PageId phys = logical_pages_[pre >> page_bits_];
    const Page& pg = *pages_[phys];
    auto off = static_cast<size_t>(pre & page_mask_);
    if (pg.level[off] == kNullLevel) {
      // Hole-run lengths must be exact within the page.
      int64_t run = 0;
      for (auto o = off + 1;
           o < static_cast<size_t>(cap) && pg.level[o] == kNullLevel; ++o) {
        ++run;
      }
      if (pg.size[off] != run) {
        return Status::Corruption(
            StrFormat("hole run at pre %lld: stored %lld actual %lld",
                      static_cast<long long>(pre),
                      static_cast<long long>(pg.size[off]),
                      static_cast<long long>(run)));
      }
      if (pg.node[off] != kNullNode) {
        return Status::Corruption("hole tuple carries a node id");
      }
      continue;
    }
    ++used;
    int32_t level = pg.level[off];
    if (prev_used == kNullPre) {
      if (level != 0) return Status::Corruption("first node not at level 0");
    } else if (level < 1 || level > prev_level + 1) {
      return Status::Corruption(
          StrFormat("level jump %d -> %d at pre %lld", prev_level, level,
                    static_cast<long long>(pre)));
    }
    // Close regions that ended before this node; their size must point
    // exactly at their last real descendant.
    while (!stack.empty() &&
           static_cast<int64_t>(stack.size()) > level) {
      auto [open_pre, open_size] = stack.back();
      stack.pop_back();
      if (open_pre + open_size != prev_used) {
        return Status::Corruption(StrFormat(
            "size of node at pre %lld is %lld, lrd actually at %lld",
            static_cast<long long>(open_pre),
            static_cast<long long>(open_size),
            static_cast<long long>(prev_used - open_pre)));
      }
    }
    if (static_cast<int64_t>(stack.size()) != level) {
      return Status::Corruption("level without open ancestor");
    }
    stack.emplace_back(pre, pg.size[off]);
    // node/pos bijection.
    NodeId id = pg.node[off];
    if (id < 0 || PosOfNode(id) !=
                      ((phys << page_bits_) | static_cast<int64_t>(off))) {
      return Status::Corruption(
          StrFormat("node/pos mismatch for node %lld at pre %lld",
                    static_cast<long long>(id),
                    static_cast<long long>(pre)));
    }
    prev_used = pre;
    prev_level = level;
  }
  while (!stack.empty()) {
    auto [open_pre, open_size] = stack.back();
    stack.pop_back();
    if (open_pre + open_size != prev_used) {
      return Status::Corruption("trailing region size mismatch");
    }
  }
  if (used != used_count_) {
    return Status::Corruption(StrFormat(
        "used_count %lld but %lld used tuples found",
        static_cast<long long>(used_count_), static_cast<long long>(used)));
  }
  // Per-page used counters.
  for (size_t p = 0; p < pages_.size(); ++p) {
    int32_t u = 0;
    for (int32_t o = 0; o < cap; ++o) {
      if (pages_[p]->level[static_cast<size_t>(o)] != kNullLevel) ++u;
    }
    if (u != pages_[p]->used) {
      return Status::Corruption("per-page used counter mismatch");
    }
  }
  // Live attribute rows reference live element nodes.
  for (int32_t r = 0; r < attrs_.size(); ++r) {
    const AttrRow& row = attrs_.row(r);
    if (row.owner < 0) continue;
    PosId pos = PosOfNode(row.owner);
    if (pos == kNullPos) {
      return Status::Corruption("attribute row owned by a dead node");
    }
  }
  (void)lrd_check;
  return Status::OK();
}

}  // namespace pxq::storage
