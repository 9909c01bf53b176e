#include "index/index_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>

#include "xpath/value_compare.h"

namespace pxq::index {
namespace {

void SortedInsert(std::vector<NodeId>* v, NodeId n) {
  auto it = std::lower_bound(v->begin(), v->end(), n);
  if (it == v->end() || *it != n) v->insert(it, n);
}

void SortedErase(std::vector<NodeId>* v, NodeId n) {
  auto it = std::lower_bound(v->begin(), v->end(), n);
  if (it != v->end() && *it == n) v->erase(it);
}

void SidecarErase(std::multimap<double, NodeId>* m, double key, NodeId n) {
  auto [lo, hi] = m->equal_range(key);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == n) {
      m->erase(it);
      return;
    }
  }
}

// Postings-bucket maintenance shared by the qname and path maps: every
// touch stamps a fresh generation (memo validation), and a bucket that
// empties drops its key.
template <typename Map, typename Key>
void PostingsInsert(Map* m, const Key& key, NodeId n, uint64_t gen) {
  auto& p = (*m)[key];
  SortedInsert(&p.nodes, n);
  p.gen = gen;
}

template <typename Map, typename Key>
void PostingsErase(Map* m, const Key& key, NodeId n, uint64_t gen) {
  auto it = m->find(key);
  if (it == m->end()) return;
  SortedErase(&it->second.nodes, n);
  if (it->second.nodes.empty()) {
    m->erase(it);
  } else {
    it->second.gen = gen;
  }
}

int RoundShards(int requested) {
  int n = 1;
  while (n < requested && n < 256) n <<= 1;
  return n;
}

const std::vector<PreId> kEmptyPres;

/// Value-index view of one element: simple (no element children) plus
/// the concatenation of its text children — which for a simple element
/// IS its XPath string value, since comments and PIs contain no text
/// descendants.
struct Derived {
  bool simple = true;
  std::string value;
};

Derived DeriveValue(const storage::PagedStore& store, PreId pre) {
  Derived d;
  const PreId end = pre + store.SizeAt(pre);
  for (PreId c = store.SkipHoles(pre + 1); c <= end;
       c = store.SkipHoles(c + store.SizeAt(c) + 1)) {
    switch (store.KindAt(c)) {
      case NodeKind::kElement:
        d.simple = false;
        d.value.clear();
        return d;
      case NodeKind::kText:
        d.value += store.pools().Text(store.RefAt(c));
        break;
      default:
        break;
    }
  }
  return d;
}

}  // namespace

IndexManager::IndexManager(IndexConfig config)
    : config_(config), nshards_(RoundShards(std::max(1, config.shards))) {
  config_.shards = nshards_;
  config_.path_chain_depth =
      std::clamp(config_.path_chain_depth, 2, kMaxChainDepth);
  shards_ = std::make_unique<Shard[]>(static_cast<size_t>(nshards_));
}

IndexManager::~IndexManager() {
  for (int i = 0; i < nshards_; ++i) {
    const MemoTable* t = shards_[i].memo.load(std::memory_order_acquire);
    while (t != nullptr) {
      const MemoTable* prev = t->prev;
      delete t;
      t = prev;
    }
  }
}

// ---------------------------------------------------------------------------
// Writer side: in-place maintenance inside the exclusive window
// ---------------------------------------------------------------------------

std::array<QnameId, IndexManager::kMaxChainDepth - 1> IndexManager::AncTagsOf(
    const storage::PagedStore& store, PreId pre) const {
  std::array<QnameId, kMaxChainDepth - 1> anc;
  anc.fill(-1);
  // AncestorChain returns root..parent; ancestor at distance i+1 is the
  // (i+1)-th element from the back.
  std::vector<PreId> chain = store.AncestorChain(pre);
  const int depth = config_.path_chain_depth - 1;
  for (int i = 0; i < depth && i < static_cast<int>(chain.size()); ++i) {
    anc[static_cast<size_t>(i)] =
        store.RefAt(chain[chain.size() - 1 - static_cast<size_t>(i)]);
  }
  return anc;
}

void IndexManager::AddChainEntries(NodeId node, const NodeState& st) {
  auto& paths = DataOf(st.qn).paths;  // chains shard by self qname
  ChainKey key;
  key.qn[0] = st.qn;
  for (int len = 2; len <= config_.path_chain_depth; ++len) {
    key.qn[static_cast<size_t>(len - 1)] = st.anc[static_cast<size_t>(len - 2)];
    key.len = static_cast<uint8_t>(len);
    PostingsInsert(&paths, key, node, ++next_gen_);
  }
}

void IndexManager::RemoveChainEntries(NodeId node, const NodeState& st) {
  auto& paths = DataOf(st.qn).paths;
  ChainKey key;
  key.qn[0] = st.qn;
  for (int len = 2; len <= config_.path_chain_depth; ++len) {
    key.qn[static_cast<size_t>(len - 1)] = st.anc[static_cast<size_t>(len - 2)];
    key.len = static_cast<uint8_t>(len);
    PostingsErase(&paths, key, node, ++next_gen_);
  }
}

void IndexManager::AddValueEntry(ValueBucket* vb,
                                 const storage::PagedStore& store,
                                 NodeId node, PreId pre, NodeState* st) {
  Derived d = DeriveValue(store, pre);
  const uint64_t g = ++next_gen_;
  if (d.simple) {
    st->simple = true;
    st->value = std::move(d.value);
    st->numeric = xpath::detail::ParseNumber(st->value, &st->num);
    ValueEntry& e = vb->by_string[st->value];
    e.numeric = st->numeric;
    SortedInsert(&e.nodes, node);
    e.gen = g;
    vb->range_gen = g;
    if (st->numeric) {
      vb->by_number.emplace(st->num, node);
      vb->num_gen = g;
      HistInsert(&vb->hist, st->num, vb->by_number);
    }
  } else {
    st->simple = false;
    st->value.clear();
    st->numeric = false;
    SortedInsert(&vb->complex_elems, node);
    vb->complex_gen = g;
  }
}

void IndexManager::RemoveValueEntry(ValueBucket* vb, NodeId node,
                                    const NodeState& st) {
  const uint64_t g = ++next_gen_;
  if (st.simple) {
    auto eit = vb->by_string.find(st.value);
    if (eit != vb->by_string.end()) {
      SortedErase(&eit->second.nodes, node);
      if (eit->second.nodes.empty()) {
        vb->by_string.erase(eit);  // memo sees gen 0 for the vanished key
      } else {
        eit->second.gen = g;
      }
      vb->range_gen = g;
    }
    if (st.numeric) {
      SidecarErase(&vb->by_number, st.num, node);
      vb->num_gen = g;
      vb->range_gen = g;
      HistRemove(&vb->hist, st.num);
    }
  } else {
    SortedErase(&vb->complex_elems, node);
    vb->complex_gen = g;
  }
}

void IndexManager::AddAttrEntries(const storage::PagedStore& store,
                                  NodeId node, NodeState* st) {
  std::vector<int32_t> rows;
  store.attrs().Lookup(node, &rows);
  for (int32_t r : rows) {
    const storage::AttrRow& row = store.attrs().row(r);
    AttrState as;
    as.qn = row.qname;
    as.value = store.pools().Prop(row.prop);
    as.numeric = xpath::detail::ParseNumber(as.value, &as.num);
    AttrBucket* ab = &DataOf(as.qn).attrs[as.qn];
    const uint64_t g = ++next_gen_;
    SortedInsert(&ab->owners, node);
    ab->owners_gen = g;
    ValueEntry& e = ab->by_string[as.value];
    e.numeric = as.numeric;
    SortedInsert(&e.nodes, node);
    e.gen = g;
    ab->range_gen = g;
    if (as.numeric) {
      ab->by_number.emplace(as.num, node);
      ab->num_gen = g;
      HistInsert(&ab->hist, as.num, ab->by_number);
    }
    st->attrs.push_back(std::move(as));
  }
}

void IndexManager::RemoveAttrEntries(NodeId node, const NodeState& st) {
  for (const AttrState& as : st.attrs) {
    auto& attrs = DataOf(as.qn).attrs;
    auto ait = attrs.find(as.qn);
    if (ait == attrs.end()) continue;
    AttrBucket* ab = &ait->second;
    const uint64_t g = ++next_gen_;
    SortedErase(&ab->owners, node);
    ab->owners_gen = g;
    auto eit = ab->by_string.find(as.value);
    if (eit != ab->by_string.end()) {
      SortedErase(&eit->second.nodes, node);
      if (eit->second.nodes.empty()) {
        ab->by_string.erase(eit);
      } else {
        eit->second.gen = g;
      }
      ab->range_gen = g;
    }
    if (as.numeric) {
      SidecarErase(&ab->by_number, as.num, node);
      ab->num_gen = g;
      ab->range_gen = g;
      HistRemove(&ab->hist, as.num);
    }
    if (ab->empty()) attrs.erase(ait);
  }
}

void IndexManager::HistInsert(NumericHistogram* h, double v,
                              const std::multimap<double, NodeId>& sidecar) {
  if (!std::isfinite(v)) return;  // estimate-only: skip unbucketables
  if (h->total == 0) {
    *h = NumericHistogram();
    h->lo = h->hi = v;
    h->counts[0] = 1;
    h->total = 1;
    return;
  }
  if (v < h->lo || v > h->hi) {
    // Out of bounds: widen (bounds only ever grow) and recount from the
    // sidecar, which already contains v — rare after warmup, and the
    // writer holds the sidecar in hand anyway.
    NumericHistogram next;
    next.lo = std::min(h->lo, v);
    next.hi = std::max(h->hi, v);
    for (const auto& [x, n] : sidecar) {
      if (!std::isfinite(x)) continue;
      next.counts[static_cast<size_t>(next.BucketOf(x))] += 1;
      next.total += 1;
    }
    *h = next;
    return;
  }
  h->counts[static_cast<size_t>(h->BucketOf(v))] += 1;
  h->total += 1;
}

void IndexManager::HistRemove(NumericHistogram* h, double v) {
  if (!std::isfinite(v) || h->total == 0) return;
  int64_t& c = h->counts[static_cast<size_t>(h->BucketOf(v))];
  if (c > 0) c -= 1;
  h->total -= 1;
  if (h->total == 0) *h = NumericHistogram();  // re-seed bounds next insert
}

void IndexManager::AddNode(const storage::PagedStore& store, NodeId node,
                           PreId pre,
                           const std::array<QnameId, kMaxChainDepth - 1>& anc) {
  NodeState st;
  st.qn = store.RefAt(pre);
  st.anc = anc;
  ShardData& d = DataOf(st.qn);
  PostingsInsert(&d.postings, st.qn, node, ++next_gen_);
  AddChainEntries(node, st);
  AddValueEntry(&d.values[st.qn], store, node, pre, &st);
  AddAttrEntries(store, node, &st);
  node_state_[node] = std::move(st);
}

void IndexManager::RemoveNode(NodeId node) {
  auto it = node_state_.find(node);
  if (it == node_state_.end()) return;
  const NodeState& st = it->second;

  ShardData& d = DataOf(st.qn);
  PostingsErase(&d.postings, st.qn, node, ++next_gen_);
  RemoveChainEntries(node, st);
  if (auto vit = d.values.find(st.qn); vit != d.values.end()) {
    RemoveValueEntry(&vit->second, node, st);
    if (vit->second.empty()) d.values.erase(vit);
  }
  RemoveAttrEntries(node, st);
  node_state_.erase(it);
}

void IndexManager::PruneMemos() {
  // Exclusive window: no reader holds a memo table pointer, so every
  // table except the newest can be reclaimed — and a table that hit
  // the value-key admission cap is dropped wholesale, so memoization
  // of new literals resumes instead of staying disabled forever (the
  // hot entries re-admit on their next probe).
  for (int i = 0; i < nshards_; ++i) {
    const MemoTable* newest = shards_[i].memo.load(std::memory_order_acquire);
    if (newest == nullptr) continue;
    const MemoTable* t = newest->prev;
    while (t != nullptr) {
      const MemoTable* prev = t->prev;
      delete t;
      t = prev;
    }
    if (newest->value_entries >= kValueMemoCapPerShard) {
      shards_[i].memo.store(nullptr, std::memory_order_release);
      delete newest;
    } else {
      const_cast<MemoTable*>(newest)->prev = nullptr;
    }
  }
}

void IndexManager::Publish(bool structural) {
  PruneMemos();
  if (structural) {
    // Pre ranks shifted: every memoized materialization is stale. Memo
    // entries self-invalidate via the epoch check; no table touch here.
    structure_epoch_.fetch_add(1, std::memory_order_acq_rel);
  }
  publish_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void IndexManager::Rebuild(const storage::PagedStore& store) {
  const auto t0 = std::chrono::steady_clock::now();
  MutexLock lock(&writer_mu_);
  node_state_.clear();
  for (int i = 0; i < nshards_; ++i) shards_[i].data = ShardData();
  if (config_.enabled) {
    // Pre-order walk tracking the enclosing element chain, so each
    // element's parent qname is O(1) instead of an ancestor descent.
    struct Enclosing {
      PreId end;
      QnameId qn;
    };
    std::vector<Enclosing> stack;
    const PreId end = store.view_size();
    for (PreId p = store.SkipHoles(0); p < end; p = store.SkipHoles(p + 1)) {
      while (!stack.empty() && p > stack.back().end) stack.pop_back();
      if (store.KindAt(p) != NodeKind::kElement) continue;
      // The enclosing-element stack IS the ancestor chain: the nearest
      // k-1 tags come off its back, no per-node store walk.
      std::array<QnameId, kMaxChainDepth - 1> anc;
      anc.fill(-1);
      const int depth = config_.path_chain_depth - 1;
      for (int i = 0; i < depth && i < static_cast<int>(stack.size()); ++i) {
        anc[static_cast<size_t>(i)] =
            stack[stack.size() - 1 - static_cast<size_t>(i)].qn;
      }
      AddNode(store, store.NodeAt(p), p, anc);
      stack.push_back({p + store.SizeAt(p), store.RefAt(p)});
    }
  }
  Publish(/*structural=*/true);
  maintenance_ops_ = 0;
  applied_commits_ = 0;
  build_micros_ = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
}

void IndexManager::ApplyDirty(const storage::PagedStore& store,
                              const DeltaIndex& delta) {
  if (!config_.enabled) return;
  // An empty dirty set means no structural/value/attr mutation happened
  // (every pre-shifting primitive marks at least one node), so nothing
  // to publish and the memoized pre-lists are still valid.
  if (delta.empty()) return;
  const auto t0 = std::chrono::steady_clock::now();
  MutexLock lock(&writer_mu_);
  std::vector<NodeId> work = delta.dirty();
  std::vector<uint8_t> kinds;
  kinds.reserve(work.size());
  for (NodeId n : work) kinds.push_back(delta.KindOf(n));
  for (size_t i = 0; i < work.size(); ++i) {
    const NodeId n = work[i];
    const uint8_t kind = kinds[i];
    auto st = node_state_.find(n);
    const bool known = st != node_state_.end();

    // Granular path for value-/attr-/chain-only dirt: the node's qname
    // postings membership is provably unchanged, so leave that bucket
    // (and every warm memo entry sourced from it) alone and refresh
    // just the sides the kind mask names. Falls through to the full
    // path on any surprise (unknown node, vanished node, rival
    // rename) — the full re-derive is always correct, just coarser.
    if ((kind & DeltaIndex::kEntry) == 0 && known &&
        store.PosOfNode(n) != kNullPos) {
      auto gpre = store.PreOfNode(n);
      if (gpre.ok() && store.KindAt(gpre.value()) == NodeKind::kElement &&
          store.RefAt(gpre.value()) == st->second.qn) {
        if ((kind & DeltaIndex::kPath) != 0) {
          // An ancestor within k-1 levels was renamed: re-key the
          // chain entries from the merged base. Skipped when the
          // recomputed ancestor tags match the reverse map — a
          // duplicate expansion (nested renames) must not bump bucket
          // generations and shoot down warm chain memos for nothing.
          auto anc = AncTagsOf(store, gpre.value());
          if (anc != st->second.anc) {
            RemoveChainEntries(n, st->second);
            st->second.anc = anc;
            AddChainEntries(n, st->second);
          }
        }
        if ((kind & DeltaIndex::kValue) != 0) {
          ValueBucket* vb = &DataOf(st->second.qn).values[st->second.qn];
          RemoveValueEntry(vb, n, st->second);
          AddValueEntry(vb, store, n, gpre.value(), &st->second);
        }
        if ((kind & DeltaIndex::kAttrs) != 0) {
          // Old keys from the reverse map, new keys from the merged
          // base: a replaced attribute value moves BOTH dictionary
          // keys' generations, so memoized probes of either value
          // invalidate while sibling keys stay warm.
          std::vector<std::pair<QnameId, uint64_t>> prior_owner_gens;
          prior_owner_gens.reserve(st->second.attrs.size());
          for (const AttrState& as : st->second.attrs) {
            prior_owner_gens.emplace_back(
                as.qn, DataOf(as.qn).attrs[as.qn].owners_gen);
          }
          RemoveAttrEntries(n, st->second);
          st->second.attrs.clear();
          AddAttrEntries(store, n, &st->second);
          // An attribute the node owns both before and after (a value
          // replacement, not an add/remove) leaves the owner LIST
          // byte-identical — the remove/re-insert pair cancels out.
          // Restore its pre-commit generation so warm AttrOwners memo
          // entries stay valid; identical content under the same stamp
          // cannot alias anything else (no ABA).
          for (const auto& [qn, gen] : prior_owner_gens) {
            for (const AttrState& na : st->second.attrs) {
              if (na.qn == qn) {
                DataOf(qn).attrs[qn].owners_gen = gen;
                break;
              }
            }
          }
        }
        continue;
      }
    }

    // Detect renames against the reverse map BEFORE removal: the
    // transaction marks only the renamed node, but the chain keys of
    // every element descendant within k-1 levels changed with it.
    // Enumerating that neighborhood from the MERGED base (not the
    // transaction's clone) keeps concurrent commits convergent — a
    // descendant inserted by a rival commit is re-keyed here even
    // though the renamer's clone never saw it.
    QnameId old_qn = -1;
    if (known) old_qn = st->second.qn;
    RemoveNode(n);
    if (store.PosOfNode(n) == kNullPos) continue;  // deleted (or aborted id)
    auto pre = store.PreOfNode(n);
    if (!pre.ok()) continue;
    if (store.KindAt(pre.value()) != NodeKind::kElement) continue;
    if (known && old_qn != store.RefAt(pre.value())) {
      // Re-enqueue the k-1-deep element neighborhood with kPath-only
      // dirt: exactly the chain entries mention the renamed tag, so
      // the descendants' postings/value/attr buckets (and their warm
      // memos) must survive the re-key. Works regardless of the
      // descendant's own marks or processing order — a kPath pass is
      // idempotent (it re-derives the ancestor tags from the merged
      // base and no-ops when they already match the reverse map), so
      // duplicates from nested renames are cheap, and a descendant the
      // same transaction also value-edited or renamed keeps its other
      // kind bits on its own work item.
      const int reach = config_.path_chain_depth - 1;
      const PreId self = pre.value();
      const PreId end = self + store.SizeAt(self);
      const int32_t base_level = store.LevelAt(self);
      for (PreId c = store.SkipHoles(self + 1); c <= end;) {
        const bool is_elem = store.KindAt(c) == NodeKind::kElement;
        const int32_t rel = store.LevelAt(c) - base_level;
        if (is_elem && rel <= reach) {
          work.push_back(store.NodeAt(c));
          kinds.push_back(DeltaIndex::kPath);
        }
        if (is_elem && rel >= reach) {
          // Deeper elements are out of chain reach: skip the subtree.
          c = store.SkipHoles(c + store.SizeAt(c) + 1);
        } else {
          c = store.SkipHoles(c + 1);
        }
      }
    }
    AddNode(store, n, pre.value(), AncTagsOf(store, pre.value()));
  }
  Publish(delta.structural());
  maintenance_ops_ += static_cast<int64_t>(work.size());
  applied_commits_ += 1;
  apply_dirty_ns_.Record(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

// ---------------------------------------------------------------------------
// Reader side: probes under the database's shared lock
// ---------------------------------------------------------------------------

bool IndexManager::Gate(int64_t candidates, int64_t scan_cost) const {
  if (config_.cross_check) return true;  // always exercise the index
  return static_cast<double>(candidates) <=
         config_.gate_ratio * static_cast<double>(scan_cost);
}

std::vector<PreId> IndexManager::ToPres(const storage::PagedStore& store,
                                        const std::vector<NodeId>& nodes) const {
  std::vector<PreId> pres;
  pres.reserve(nodes.size());
  for (NodeId n : nodes) {
    auto pre = store.PreOfNode(n);
    if (pre.ok()) pres.push_back(pre.value());
  }
  std::sort(pres.begin(), pres.end());
  return pres;
}

const IndexManager::MemoEntry* IndexManager::LookupMemo(
    const Shard& shard, const MemoKey& key) const {
  const MemoTable* memo = shard.memo.load(std::memory_order_acquire);
  if (memo == nullptr) return nullptr;
  auto it = memo->entries.find(key);
  return it == memo->entries.end() ? nullptr : it->second.get();
}

const IndexManager::MemoEntry* IndexManager::PublishMemo(
    const Shard& shard, const MemoKey& key,
    std::shared_ptr<const MemoEntry> entry) const {
  // CAS-publish a new table version. Readers race only with readers
  // (writers prune inside the exclusive window); a loser deletes its
  // never-published candidate and retries against the latest table, so
  // concurrently inserted entries for other keys are never lost.
  // Entries are shared between versions, so each link in the retained
  // chain costs map nodes only, never pre-list copies.
  //
  // Value/attr keys carry user-controlled operands, so their key space
  // is unbounded — and the chain is pruned only inside the exclusive
  // commit window, which a read-only workload never opens. A full
  // table therefore stops admitting NEW value keys (existing keys may
  // still be refreshed in place: same map size), bounding both the
  // retained chain and the per-insert copy cost. Qname/path/chain keys
  // are exempt: their space is bounded by the document's tag
  // structure, and MemoizedPres relies on publication to keep its
  // returned pointer alive.
  const MemoEntry* raw = entry.get();
  const bool value_ns = key.ns != MemoNs::kQname &&
                        key.ns != MemoNs::kPath && key.ns != MemoNs::kChain;
  const MemoTable* cur = shard.memo.load(std::memory_order_acquire);
  for (;;) {
    const bool fresh_key =
        cur == nullptr || cur->entries.find(key) == cur->entries.end();
    if (value_ns && fresh_key && cur != nullptr &&
        cur->value_entries >= kValueMemoCapPerShard) {
      return nullptr;  // table full: serve the result unmemoized
    }
    auto* next = cur ? new MemoTable(*cur) : new MemoTable();
    next->prev = cur;
    next->entries[key] = entry;
    if (value_ns && fresh_key) next->value_entries += 1;
    if (shard.memo.compare_exchange_strong(cur, next,
                                           std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      return raw;  // kept alive by the published table chain
    }
    delete next;
  }
}

const std::vector<PreId>* IndexManager::MemoizedPres(
    const Shard& shard, const storage::PagedStore& store, const MemoKey& mk,
    const Postings& src) const {
  const uint64_t sepoch = structure_epoch_.load(std::memory_order_acquire);
  if (const MemoEntry* e = LookupMemo(shard, mk);
      e != nullptr && e->src_gen == src.gen &&
      e->structure_epoch == sepoch) {
    memo_hits_.Inc();
    return &e->pres;
  }
  memo_misses_.Inc();
  auto entry = std::make_shared<MemoEntry>();
  entry->src_gen = src.gen;
  entry->structure_epoch = sepoch;
  entry->candidates = static_cast<int64_t>(src.nodes.size());
  entry->pres = ToPres(store, src.nodes);
  return &PublishMemo(shard, mk, std::move(entry))->pres;
}

IndexManager::MemoKey IndexManager::ValueMemoKey(MemoNs ns, QnameId qn,
                                                 xpath::CmpOp op,
                                                 const std::string& literal) {
  MemoKey mk;
  mk.ns = ns;
  mk.op = static_cast<uint8_t>(op);
  mk.key = static_cast<uint64_t>(static_cast<uint32_t>(qn));
  double x = 0;
  if (op == xpath::CmpOp::kEq &&
      xpath::detail::ParseNumber(literal, &x)) {
    // Numeric equality reads only the sidecar, so the operand
    // canonicalizes to the parsed value: "17" and "17.0" share one
    // entry. Normalize -0 to +0 (they hit the same sidecar range).
    mk.cls = OperandClass::kNumeric;
    if (x == 0) x = 0;
    static_assert(sizeof(x) == sizeof(mk.num_bits));
    std::memcpy(&mk.num_bits, &x, sizeof(x));
  } else {
    // Ordered operators take lexicographic dictionary bounds from the
    // literal's spelling, so the raw string is the operand.
    mk.cls = OperandClass::kString;
    mk.operand = literal;
  }
  return mk;
}

template <typename Bucket>
uint64_t IndexManager::SourceGenFor(const Bucket& b, const MemoKey& key) {
  if (static_cast<xpath::CmpOp>(key.op) == xpath::CmpOp::kEq) {
    if (key.cls == OperandClass::kNumeric) return b.num_gen;
    auto it = b.by_string.find(key.operand);
    return it == b.by_string.end() ? 0 : it->second.gen;
  }
  return b.range_gen;
}

int64_t IndexManager::PostingsCount(QnameId qn) const {
  if (!config_.enabled || qn < 0) return 0;
  const ShardData& d = DataOf(qn);
  auto it = d.postings.find(qn);
  return it == d.postings.end()
             ? 0
             : static_cast<int64_t>(it->second.nodes.size());
}

const std::vector<PreId>* IndexManager::ElementsByQname(
    const storage::PagedStore& store, QnameId qn, int64_t scan_cost) const {
  if (!config_.enabled || qn < 0) return nullptr;
  probes_.Inc();
  const Shard& shard = shards_[ShardOf(qn)];
  const ShardData& d = shard.data;
  auto it = d.postings.find(qn);
  const int64_t k = it == d.postings.end()
                        ? 0
                        : static_cast<int64_t>(it->second.nodes.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    return nullptr;
  }
  if (it == d.postings.end()) return &kEmptyPres;
  MemoKey mk;
  mk.ns = MemoNs::kQname;
  mk.key = static_cast<uint64_t>(static_cast<uint32_t>(qn));
  return MemoizedPres(shard, store, mk, it->second);
}

const std::vector<PreId>* IndexManager::PathPairProbe(
    const storage::PagedStore& store, QnameId parent_qn, QnameId self_qn,
    int64_t scan_cost) const {
  if (self_qn < 0) return nullptr;
  return PathChainProbe(store, {parent_qn, self_qn}, scan_cost);
}

const std::vector<PreId>* IndexManager::PathChainProbe(
    const storage::PagedStore& store, const std::vector<QnameId>& chain,
    int64_t scan_cost) const {
  const size_t len = chain.size();
  if (!config_.enabled || len < 2 ||
      len > static_cast<size_t>(config_.path_chain_depth)) {
    return nullptr;
  }
  if (chain.back() < 0) return nullptr;  // self must be a real tag
  const PaddedCounter& probes = len == 2 ? path_probes_ : chain_probes_;
  const PaddedCounter& declines = len == 2 ? path_declines_ : chain_declines_;
  probes.Inc();
  // chain is in PATH order (farthest ancestor first); the key stores
  // self first.
  ChainKey key;
  key.len = static_cast<uint8_t>(len);
  for (size_t i = 0; i < len; ++i) key.qn[i] = chain[len - 1 - i];
  const Shard& shard = shards_[ShardOf(key.qn[0])];
  const ShardData& d = shard.data;
  auto it = d.paths.find(key);
  const int64_t k = it == d.paths.end()
                        ? 0
                        : static_cast<int64_t>(it->second.nodes.size());
  if (!Gate(k, scan_cost)) {
    declines.Inc();
    return nullptr;
  }
  if (it == d.paths.end()) return &kEmptyPres;
  MemoKey mk;
  if (len == 2) {
    mk.ns = MemoNs::kPath;
    mk.key = PackedPairOf(key);
  } else {
    // Longer chains carry the raw key bytes as the operand; the chain
    // space is bounded by the document's tag structure, so these keys
    // are exempt from the value-memo admission cap like qname/pair
    // keys.
    mk.ns = MemoNs::kChain;
    mk.cls = OperandClass::kString;
    mk.operand.assign(reinterpret_cast<const char*>(key.qn.data()),
                      len * sizeof(QnameId));
  }
  return MemoizedPres(shard, store, mk, it->second);
}

void IndexManager::CollectMatches(
    const std::map<std::string, ValueEntry>& dict,
    const std::multimap<double, NodeId>& sidecar, xpath::CmpOp op,
    const std::string& literal, std::vector<NodeId>* out) {
  using xpath::CmpOp;
  double x = 0;
  const bool lit_num = xpath::detail::ParseNumber(literal, &x);

  if (op == CmpOp::kEq) {
    if (lit_num) {
      // Numeric equality ("1.0" matches literal "1"): sidecar only. A
      // non-numeric value can never be byte-equal to a string that
      // parses as a number.
      auto [lo, hi] = sidecar.equal_range(x);
      for (auto it = lo; it != hi; ++it) out->push_back(it->second);
    } else {
      auto it = dict.find(literal);
      if (it != dict.end()) {
        out->insert(out->end(), it->second.nodes.begin(),
                    it->second.nodes.end());
      }
    }
    return;
  }

  // Ordered operator. Numeric literal: numeric values compare through
  // the sidecar, non-numeric values lexicographically. Non-numeric
  // literal: everything compares lexicographically.
  const bool skip_numeric_in_dict = lit_num;
  if (lit_num) {
    std::multimap<double, NodeId>::const_iterator lo, hi;
    switch (op) {
      case CmpOp::kLt:
        lo = sidecar.begin();
        hi = sidecar.lower_bound(x);
        break;
      case CmpOp::kLe:
        lo = sidecar.begin();
        hi = sidecar.upper_bound(x);
        break;
      case CmpOp::kGt:
        lo = sidecar.upper_bound(x);
        hi = sidecar.end();
        break;
      default:  // kGe
        lo = sidecar.lower_bound(x);
        hi = sidecar.end();
        break;
    }
    for (auto it = lo; it != hi; ++it) out->push_back(it->second);
  }
  std::map<std::string, ValueEntry>::const_iterator lo, hi;
  switch (op) {
    case CmpOp::kLt:
      lo = dict.begin();
      hi = dict.lower_bound(literal);
      break;
    case CmpOp::kLe:
      lo = dict.begin();
      hi = dict.upper_bound(literal);
      break;
    case CmpOp::kGt:
      lo = dict.upper_bound(literal);
      hi = dict.end();
      break;
    default:  // kGe
      lo = dict.lower_bound(literal);
      hi = dict.end();
      break;
  }
  for (auto it = lo; it != hi; ++it) {
    if (skip_numeric_in_dict && it->second.numeric) continue;
    out->insert(out->end(), it->second.nodes.begin(),
                it->second.nodes.end());
  }
}

bool IndexManager::ChildValueProbe(const storage::PagedStore& store,
                                   QnameId qn, xpath::CmpOp op,
                                   const std::string& literal,
                                   int64_t scan_cost,
                                   std::vector<PreId>* simple,
                                   std::vector<PreId>* complex_rest) const {
  if (!config_.enabled || qn < 0 || op == xpath::CmpOp::kNe) return false;
  probes_.Inc();
  simple->clear();
  complex_rest->clear();
  const Shard& shard = shards_[ShardOf(qn)];
  const ShardData& d = shard.data;
  auto vit = d.values.find(qn);
  if (vit == d.values.end()) {
    // No element carries this tag: the empty result is exact.
    return true;
  }
  const ValueBucket& vb = vit->second;
  const uint64_t sepoch = structure_epoch_.load(std::memory_order_acquire);
  MemoKey mk;
  if (config_.memo_values) {
    mk = ValueMemoKey(MemoNs::kValue, qn, op, literal);
    // Count-only (negative-cache) entries validate on generations
    // alone: a candidate COUNT depends only on dictionary content,
    // never on pre ranks, so structural commits that touched other
    // keys leave a warm decline warm.
    if (const MemoEntry* e = LookupMemo(shard, mk);
        e != nullptr && e->src_gen == SourceGenFor(vb, mk) &&
        e->aux_gen == vb.complex_gen &&
        (!e->materialized || e->structure_epoch == sepoch)) {
      if (!Gate(e->candidates, scan_cost)) {
        // Warm decline: the gate ran off the cached count — no
        // CollectMatches, no dictionary walk.
        value_neg_hits_.Inc();
        probe_declines_.Inc();
        return false;
      }
      if (e->materialized) {
        memo_value_hits_.Inc();
        *simple = e->pres;
        *complex_rest = e->complex_pres;
        return true;
      }
      // Count-only entry, but the caller's scan estimate now passes
      // the gate: fall through and materialize.
    }
  }
  std::vector<NodeId> matches;
  CollectMatches(vb.by_string, vb.by_number, op, literal, &matches);
  const int64_t k = static_cast<int64_t>(matches.size()) +
                    static_cast<int64_t>(vb.complex_elems.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    if (config_.memo_values) {
      // Negative cache (ROADMAP): remember the candidate count so the
      // key's next warm decline skips CollectMatches entirely. The
      // entry invalidates like any other when a commit re-stamps the
      // key's generation.
      auto entry = std::make_shared<MemoEntry>();
      entry->src_gen = SourceGenFor(vb, mk);
      entry->aux_gen = vb.complex_gen;
      entry->structure_epoch = sepoch;
      entry->candidates = k;
      entry->materialized = false;
      PublishMemo(shard, mk, std::move(entry));
    }
    return false;
  }
  *simple = ToPres(store, matches);
  *complex_rest = ToPres(store, vb.complex_elems);
  if (config_.memo_values) {
    memo_value_misses_.Inc();
    auto entry = std::make_shared<MemoEntry>();
    entry->src_gen = SourceGenFor(vb, mk);
    entry->aux_gen = vb.complex_gen;
    entry->structure_epoch = sepoch;
    entry->candidates = k;
    entry->pres = *simple;
    entry->complex_pres = *complex_rest;
    PublishMemo(shard, mk, std::move(entry));
  }
  return true;
}

std::optional<std::vector<PreId>> IndexManager::AttrOwners(
    const storage::PagedStore& store, QnameId qn, int64_t scan_cost) const {
  if (!config_.enabled || qn < 0) return std::nullopt;
  probes_.Inc();
  const Shard& shard = shards_[ShardOf(qn)];
  const ShardData& d = shard.data;
  auto it = d.attrs.find(qn);
  if (it == d.attrs.end()) return std::vector<PreId>{};
  const AttrBucket& ab = it->second;
  const int64_t k = static_cast<int64_t>(ab.owners.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    return std::nullopt;
  }
  const uint64_t sepoch = structure_epoch_.load(std::memory_order_acquire);
  MemoKey mk;
  mk.ns = MemoNs::kAttrOwners;
  mk.key = static_cast<uint64_t>(static_cast<uint32_t>(qn));
  if (config_.memo_values) {
    if (const MemoEntry* e = LookupMemo(shard, mk);
        e != nullptr && e->src_gen == ab.owners_gen &&
        e->structure_epoch == sepoch) {
      memo_value_hits_.Inc();
      return e->pres;
    }
  }
  std::vector<PreId> pres = ToPres(store, ab.owners);
  if (config_.memo_values) {
    memo_value_misses_.Inc();
    auto entry = std::make_shared<MemoEntry>();
    entry->src_gen = ab.owners_gen;
    entry->structure_epoch = sepoch;
    entry->candidates = k;
    entry->pres = pres;
    PublishMemo(shard, mk, std::move(entry));
  }
  return pres;
}

std::optional<std::vector<PreId>> IndexManager::AttrValueProbe(
    const storage::PagedStore& store, QnameId qn, xpath::CmpOp op,
    const std::string& literal, int64_t scan_cost) const {
  if (!config_.enabled || qn < 0 || op == xpath::CmpOp::kNe) {
    return std::nullopt;
  }
  probes_.Inc();
  const Shard& shard = shards_[ShardOf(qn)];
  const ShardData& d = shard.data;
  auto it = d.attrs.find(qn);
  if (it == d.attrs.end()) return std::vector<PreId>{};
  const AttrBucket& ab = it->second;
  const uint64_t sepoch = structure_epoch_.load(std::memory_order_acquire);
  MemoKey mk;
  if (config_.memo_values) {
    mk = ValueMemoKey(MemoNs::kAttrValue, qn, op, literal);
    // Same negative-cache protocol as ChildValueProbe: count-only
    // entries validate on the key generation alone.
    if (const MemoEntry* e = LookupMemo(shard, mk);
        e != nullptr && e->src_gen == SourceGenFor(ab, mk) &&
        (!e->materialized || e->structure_epoch == sepoch)) {
      if (!Gate(e->candidates, scan_cost)) {
        value_neg_hits_.Inc();
        probe_declines_.Inc();
        return std::nullopt;
      }
      if (e->materialized) {
        memo_value_hits_.Inc();
        return e->pres;
      }
    }
  }
  std::vector<NodeId> matches;
  CollectMatches(ab.by_string, ab.by_number, op, literal, &matches);
  const int64_t k = static_cast<int64_t>(matches.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    if (config_.memo_values) {
      auto entry = std::make_shared<MemoEntry>();
      entry->src_gen = SourceGenFor(ab, mk);
      entry->structure_epoch = sepoch;
      entry->candidates = k;
      entry->materialized = false;
      PublishMemo(shard, mk, std::move(entry));
    }
    return std::nullopt;
  }
  std::vector<PreId> pres = ToPres(store, matches);
  if (config_.memo_values) {
    memo_value_misses_.Inc();
    auto entry = std::make_shared<MemoEntry>();
    entry->src_gen = SourceGenFor(ab, mk);
    entry->structure_epoch = sepoch;
    entry->candidates = k;
    entry->pres = pres;
    PublishMemo(shard, mk, std::move(entry));
  }
  return pres;
}

void IndexManager::NoteCrossCheckMismatch() const {
  cross_check_mismatches_.Inc();
}

// ---------------------------------------------------------------------------
// Cardinality statistics: stat reads off the shard buckets
// ---------------------------------------------------------------------------

int64_t IndexManager::HistEstimate(const NumericHistogram& h, xpath::CmpOp op,
                                   double x) {
  using xpath::CmpOp;
  if (h.total == 0) return 0;
  if (op == CmpOp::kEq) {
    if (x < h.lo || x > h.hi) return 0;
    return h.counts[static_cast<size_t>(h.BucketOf(x))];
  }
  if (!(h.hi > h.lo)) {
    // Degenerate single-point histogram: all or nothing.
    const bool match = (op == CmpOp::kLt && h.lo < x) ||
                       (op == CmpOp::kLe && h.lo <= x) ||
                       (op == CmpOp::kGt && h.lo > x) ||
                       (op == CmpOp::kGe && h.lo >= x);
    return match ? h.total : 0;
  }
  const bool below_op = op == CmpOp::kLt || op == CmpOp::kLe;
  if (x <= h.lo) return below_op ? 0 : h.total;
  if (x >= h.hi) return below_op ? h.total : 0;
  // Whole buckets below x plus a uniform share of the boundary bucket.
  const int b = h.BucketOf(x);
  const double width = (h.hi - h.lo) / NumericHistogram::kBuckets;
  const double frac = width > 0 ? (x - (h.lo + b * width)) / width : 0.0;
  double below = 0;
  for (int i = 0; i < b; ++i) {
    below += static_cast<double>(h.counts[static_cast<size_t>(i)]);
  }
  below += static_cast<double>(h.counts[static_cast<size_t>(b)]) * frac;
  const double est =
      below_op ? below : static_cast<double>(h.total) - below;
  return static_cast<int64_t>(est + 0.5);
}

IndexManager::KeyStats IndexManager::DictStats(
    const std::map<std::string, ValueEntry>& dict,
    const std::multimap<double, NodeId>& sidecar, const NumericHistogram& hist,
    xpath::CmpOp op, const std::string& literal) {
  using xpath::CmpOp;
  KeyStats ks;
  if (op == CmpOp::kNe) return ks;  // anti-join: probes decline it too
  double x = 0;
  const bool lit_num = xpath::detail::ParseNumber(literal, &x);
  if (op == CmpOp::kEq) {
    ks.known = true;
    if (lit_num) {
      // Canonicalize exactly like ValueMemoKey: the parsed double IS
      // the operand ("17" == "17.0"), -0 normalizes to +0 — so every
      // spelling of one number lands in the same histogram bucket
      // instead of splitting the estimate across spellings.
      if (x == 0) x = 0;
      ks.count = HistEstimate(hist, CmpOp::kEq, x);
      // A bucket count is an upper bound, not a key read — except the
      // no-numerics case, where zero is exact (a numeric literal can
      // never byte-equal a non-numeric value).
      ks.exact = hist.total == 0;
      (void)sidecar;
      return ks;
    }
    auto it = dict.find(literal);
    ks.count =
        it == dict.end() ? 0 : static_cast<int64_t>(it->second.nodes.size());
    ks.exact = true;
    return ks;
  }
  // Ordered operator: the numeric side comes off the histogram; a
  // non-numeric literal compares lexicographically against the whole
  // dictionary, which has no order statistics — unknown, the caller
  // keeps syntactic order.
  if (!lit_num) return ks;
  ks.known = true;
  ks.exact = false;
  ks.count = HistEstimate(hist, op, x);
  return ks;
}

IndexManager::KeyStats IndexManager::ChainStats(
    const std::vector<QnameId>& chain) const {
  KeyStats ks;
  const size_t len = chain.size();
  if (!config_.enabled || len < 1 ||
      len > static_cast<size_t>(config_.path_chain_depth)) {
    return ks;
  }
  if (chain.back() < 0) return ks;  // self must be a real tag
  estimator_probes_.Inc();
  if (len == 1) {
    // Single tag: the qname posting length (degree-constraint input).
    const QnameId qn = chain[0];
    const ShardData& d = DataOf(qn);
    auto it = d.postings.find(qn);
    ks.count = it == d.postings.end()
                   ? 0
                   : static_cast<int64_t>(it->second.nodes.size());
    ks.exact = true;
    ks.known = true;
    return ks;
  }
  // Same key construction as PathChainProbe: chain is in PATH order
  // (farthest ancestor first), the key stores self first.
  ChainKey key;
  key.len = static_cast<uint8_t>(len);
  for (size_t i = 0; i < len; ++i) key.qn[i] = chain[len - 1 - i];
  const ShardData& d = DataOf(key.qn[0]);
  auto it = d.paths.find(key);
  ks.count = it == d.paths.end()
                 ? 0
                 : static_cast<int64_t>(it->second.nodes.size());
  ks.exact = true;
  ks.known = true;
  return ks;
}

IndexManager::KeyStats IndexManager::ValueStats(
    QnameId qn, xpath::CmpOp op, const std::string& literal) const {
  KeyStats ks;
  if (!config_.enabled || qn < 0) return ks;
  estimator_probes_.Inc();
  const ShardData& d = DataOf(qn);
  auto it = d.values.find(qn);
  if (it == d.values.end()) {
    // No element carries this tag: zero, exactly.
    ks.known = true;
    ks.exact = true;
    return ks;
  }
  const ValueBucket& vb = it->second;
  ks = DictStats(vb.by_string, vb.by_number, vb.hist, op, literal);
  if (ks.known && !vb.complex_elems.empty()) {
    // Complex elements ride every candidate set (evaluated per node
    // regardless of the operand), so they bound the estimate upward.
    ks.count += static_cast<int64_t>(vb.complex_elems.size());
    ks.exact = false;
  }
  return ks;
}

IndexManager::KeyStats IndexManager::AttrStats(
    QnameId qn, bool any_value, xpath::CmpOp op,
    const std::string& literal) const {
  KeyStats ks;
  if (!config_.enabled || qn < 0) return ks;
  estimator_probes_.Inc();
  const ShardData& d = DataOf(qn);
  auto it = d.attrs.find(qn);
  if (it == d.attrs.end()) {
    ks.known = true;
    ks.exact = true;
    return ks;
  }
  const AttrBucket& ab = it->second;
  if (any_value) {
    ks.count = static_cast<int64_t>(ab.owners.size());
    ks.exact = true;
    ks.known = true;
    return ks;
  }
  return DictStats(ab.by_string, ab.by_number, ab.hist, op, literal);
}

void IndexManager::RecordEstimateError(int64_t est, int64_t act) const {
  // +1 on both sides guards log2(0); scaled so 100 == off by 2x.
  const double ratio = std::log2((static_cast<double>(act) + 1.0) /
                                 (static_cast<double>(est) + 1.0));
  est_error_.Record(static_cast<int64_t>(std::abs(ratio) * 100.0 + 0.5));
}

IndexStats IndexManager::Stats() const {
  IndexStats s;
  // Hits are derived as probes - declines from two independent relaxed
  // counters. Read each family's DECLINES first: a probe increments its
  // probe counter before (possibly) its decline counter, so
  // declines-then-probes guarantees declines_read <= probes_read and
  // the derived hits can never transiently dip below the true value or
  // go negative mid-traffic (the reverse order could read a decline
  // whose probe increment it then missed).
  const int64_t probe_declines = probe_declines_.Value();
  s.probes = probes_.Value();
  s.probe_hits = s.probes - probe_declines;
  const int64_t path_declines = path_declines_.Value();
  s.path_probes = path_probes_.Value();
  s.path_hits = s.path_probes - path_declines;
  const int64_t chain_declines = chain_declines_.Value();
  s.chain_probes = chain_probes_.Value();
  s.chain_hits = s.chain_probes - chain_declines;
  s.value_neg_hits = value_neg_hits_.Value();
  s.child_step_hits = child_step_hits_.Value();
  s.memo_hits = memo_hits_.Value();
  s.memo_misses = memo_misses_.Value();
  s.memo_value_hits = memo_value_hits_.Value();
  s.memo_value_misses = memo_value_misses_.Value();
  s.cross_check_mismatches = cross_check_mismatches_.Value();
  s.estimator_probes = estimator_probes_.Value();
  s.plan_reorders = plan_reorders_.Value();
  s.shards = nshards_;
  s.publish_epoch =
      static_cast<int64_t>(publish_epoch_.load(std::memory_order_acquire));
  s.structure_epoch =
      static_cast<int64_t>(structure_epoch_.load(std::memory_order_acquire));
  // Structure walk under writer_mu_: writers mutate the buckets in
  // place, so Stats() must not walk them concurrently with a writer.
  MutexLock lock(&writer_mu_);
  s.build_micros = build_micros_;
  s.maintenance_ops = maintenance_ops_;
  s.applied_commits = applied_commits_;
  s.node_states = static_cast<int64_t>(node_state_.size());
  int64_t bytes = 0;
  for (const auto& [n, st] : node_state_) {
    bytes += static_cast<int64_t>(sizeof(NodeState)) +
             static_cast<int64_t>(st.value.size()) +
             static_cast<int64_t>(st.attrs.size()) * 48;
  }
  for (int i = 0; i < nshards_; ++i) {
    const ShardData& d = shards_[i].data;
    s.qname_keys += static_cast<int64_t>(d.postings.size());
    for (const auto& [qn, p] : d.postings) {
      s.postings_entries += static_cast<int64_t>(p.nodes.size());
      bytes += static_cast<int64_t>(p.nodes.size()) * 8;
    }
    for (const auto& [key, p] : d.paths) {
      if (key.len == 2) {
        s.path_keys += 1;
      } else {
        s.chain_keys += 1;
        s.chain_postings += static_cast<int64_t>(p.nodes.size());
      }
      bytes += static_cast<int64_t>(p.nodes.size()) * 8 +
               static_cast<int64_t>(sizeof(ChainKey));
    }
    // Every posting/path bucket is a stat key (its length IS its
    // cardinality stat); dictionary keys and owner lists join below.
    s.stat_keys += static_cast<int64_t>(d.postings.size()) +
                   static_cast<int64_t>(d.paths.size());
    for (const auto& [qn, vb] : d.values) {
      s.value_keys += static_cast<int64_t>(vb.by_string.size());
      s.complex_entries += static_cast<int64_t>(vb.complex_elems.size());
      s.stat_keys += static_cast<int64_t>(vb.by_string.size());
      for (const int64_t c : vb.hist.counts) {
        if (c > 0) s.histogram_buckets += 1;
      }
      for (const auto& [v, e] : vb.by_string) {
        bytes += static_cast<int64_t>(v.size()) + 48 +
                 static_cast<int64_t>(e.nodes.size()) * 8;
      }
      bytes += static_cast<int64_t>(vb.by_number.size()) * 48 +
               static_cast<int64_t>(vb.complex_elems.size()) * 8;
    }
    for (const auto& [qn, ab] : d.attrs) {
      s.attr_value_keys += static_cast<int64_t>(ab.by_string.size());
      s.stat_keys += static_cast<int64_t>(ab.by_string.size()) + 1;
      for (const int64_t c : ab.hist.counts) {
        if (c > 0) s.histogram_buckets += 1;
      }
      for (const auto& [v, e] : ab.by_string) {
        bytes += static_cast<int64_t>(v.size()) + 48 +
                 static_cast<int64_t>(e.nodes.size()) * 8;
      }
      bytes += static_cast<int64_t>(ab.by_number.size()) * 48 +
               static_cast<int64_t>(ab.owners.size()) * 8;
    }
  }
  s.bytes = bytes;
  return s;
}

void IndexManager::RegisterMetrics(obs::MetricsRegistry* reg) const {
  // Counters: the registry references the SAME padded atomics the
  // lock-free probe paths bump — snapshots read them directly.
  reg->RegisterCounter("pxq_index_probes_total", &probes_);
  reg->RegisterCounter("pxq_index_probe_declines_total", &probe_declines_);
  reg->RegisterCounter("pxq_index_path_probes_total", &path_probes_);
  reg->RegisterCounter("pxq_index_path_declines_total", &path_declines_);
  reg->RegisterCounter("pxq_index_chain_probes_total", &chain_probes_);
  reg->RegisterCounter("pxq_index_chain_declines_total", &chain_declines_);
  reg->RegisterCounter("pxq_index_child_step_hits_total", &child_step_hits_);
  reg->RegisterCounter("pxq_index_memo_hits_total", &memo_hits_);
  reg->RegisterCounter("pxq_index_memo_misses_total", &memo_misses_);
  reg->RegisterCounter("pxq_index_memo_value_hits_total", &memo_value_hits_);
  reg->RegisterCounter("pxq_index_memo_value_misses_total",
                       &memo_value_misses_);
  reg->RegisterCounter("pxq_index_value_neg_hits_total", &value_neg_hits_);
  reg->RegisterCounter("pxq_index_cross_check_mismatches_total",
                       &cross_check_mismatches_);
  reg->RegisterCounter("pxq_estimator_probes_total", &estimator_probes_);
  reg->RegisterCounter("pxq_plan_reorders_total", &plan_reorders_);
  reg->RegisterHistogram("pxq_index_apply_dirty_ns", &apply_dirty_ns_);
  reg->RegisterHistogram("pxq_est_error", &est_error_);
  // Everything Stats() derives (structure sizes, epochs, maintenance
  // totals) comes out of ONE Stats() walk per snapshot — one writer_mu_
  // acquisition, mutually consistent values within the group.
  reg->RegisterGroup([this](std::vector<std::pair<std::string, int64_t>>* o) {
    const IndexStats s = Stats();
    o->emplace_back("pxq_index_qname_keys", s.qname_keys);
    o->emplace_back("pxq_index_value_keys", s.value_keys);
    o->emplace_back("pxq_index_attr_value_keys", s.attr_value_keys);
    o->emplace_back("pxq_index_path_keys", s.path_keys);
    o->emplace_back("pxq_index_chain_keys", s.chain_keys);
    o->emplace_back("pxq_index_postings_entries", s.postings_entries);
    o->emplace_back("pxq_index_chain_postings", s.chain_postings);
    o->emplace_back("pxq_index_complex_entries", s.complex_entries);
    o->emplace_back("pxq_index_node_states", s.node_states);
    o->emplace_back("pxq_index_bytes", s.bytes);
    o->emplace_back("pxq_index_build_micros", s.build_micros);
    o->emplace_back("pxq_index_maintenance_ops", s.maintenance_ops);
    o->emplace_back("pxq_index_applied_commits", s.applied_commits);
    o->emplace_back("pxq_index_shards", s.shards);
    o->emplace_back("pxq_index_publish_epoch", s.publish_epoch);
    o->emplace_back("pxq_index_structure_epoch", s.structure_epoch);
    o->emplace_back("pxq_index_stat_keys", s.stat_keys);
    o->emplace_back("pxq_index_histogram_buckets", s.histogram_buckets);
  });
}

}  // namespace pxq::index
