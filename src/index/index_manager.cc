#include "index/index_manager.h"

#include <algorithm>
#include <chrono>
#include <cmath>

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

/// Tag of `pre`'s parent element, -1 for the document root.
QnameId ParentTagOf(const storage::PagedStore& store, PreId pre) {
  const PreId parent = store.ParentOf(pre);
  return parent == kNullPre ? -1 : store.RefAt(parent);
}

}  // namespace

IndexManager::IndexManager(IndexConfig config) : config_(config) {}

// ---------------------------------------------------------------------------
// Writer side: in-place maintenance inside the exclusive window
// ---------------------------------------------------------------------------

template <typename Bucket>
void IndexManager::DictInsert(Bucket* b, const std::string& value,
                              bool numeric, double num, NodeId node) {
  ValueEntry& e = b->by_string[value];
  e.numeric = numeric;
  SortedInsert(&e.nodes, node);
  if (numeric) {
    b->by_number.emplace(num, node);
    HistInsert(&b->hist, num, b->by_number);
  }
}

template <typename Bucket>
void IndexManager::DictErase(Bucket* b, const std::string& value,
                             bool numeric, double num, NodeId node) {
  auto eit = b->by_string.find(value);
  if (eit != b->by_string.end()) {
    SortedErase(&eit->second.nodes, node);
    if (eit->second.nodes.empty()) b->by_string.erase(eit);
  }
  if (numeric) {
    SidecarErase(&b->by_number, num, node);
    HistRemove(&b->hist, num);
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
                           PreId pre, QnameId parent_qn) {
  NodeState st;
  st.qn = store.RefAt(pre);
  st.parent_qn = parent_qn;
  PostingsInsert(&data_.postings, st.qn, node, ++next_gen_);
  PostingsInsert(&data_.paths, PairKey(st.parent_qn, st.qn), node,
                 ++next_gen_);
  ValueBucket& vb = data_.values[st.qn];
  vb.gen = ++next_gen_;
  Derived d = DeriveValue(store, pre);
  st.simple = d.simple;
  if (d.simple) {
    st.value = std::move(d.value);
    st.numeric = xpath::detail::ParseNumber(st.value, &st.num);
    DictInsert(&vb, st.value, st.numeric, st.num, node);
  } else {
    SortedInsert(&vb.complex_elems, node);
  }
  std::vector<int32_t> rows;
  store.attrs().Lookup(node, &rows);
  for (int32_t r : rows) {
    const storage::AttrRow& row = store.attrs().row(r);
    AttrState as;
    as.qn = row.qname;
    as.value = store.pools().Prop(row.prop);
    as.numeric = xpath::detail::ParseNumber(as.value, &as.num);
    AttrBucket& ab = data_.attrs[as.qn];
    ab.gen = ++next_gen_;
    SortedInsert(&ab.owners, node);
    DictInsert(&ab, as.value, as.numeric, as.num, node);
    st.attrs.push_back(std::move(as));
  }
  node_state_[node] = std::move(st);
}

void IndexManager::RemoveNode(NodeId node) {
  auto it = node_state_.find(node);
  if (it == node_state_.end()) return;
  const NodeState& st = it->second;

  PostingsErase(&data_.postings, st.qn, node, ++next_gen_);
  PostingsErase(&data_.paths, PairKey(st.parent_qn, st.qn), node,
                ++next_gen_);
  if (auto vit = data_.values.find(st.qn); vit != data_.values.end()) {
    ValueBucket& vb = vit->second;
    vb.gen = ++next_gen_;
    if (st.simple) {
      DictErase(&vb, st.value, st.numeric, st.num, node);
    } else {
      SortedErase(&vb.complex_elems, node);
    }
    if (vb.empty()) data_.values.erase(vit);
  }
  for (const AttrState& as : st.attrs) {
    auto ait = data_.attrs.find(as.qn);
    if (ait == data_.attrs.end()) continue;
    AttrBucket& ab = ait->second;
    ab.gen = ++next_gen_;
    SortedErase(&ab.owners, node);
    DictErase(&ab, as.value, as.numeric, as.num, node);
    if (ab.empty()) data_.attrs.erase(ait);
  }
  node_state_.erase(it);
}

void IndexManager::PruneMemos(bool structural) {
  // Exclusive window: no probe holds an entry. Shifted pre ranks stale
  // every materialization; a memo that hit the value-key cap is
  // cleared so memoization of new literals resumes (the hot entries
  // re-admit on their next probe).
  MutexLock lock(&memo_mu_);
  if (structural || memo_value_entries_ >= kValueMemoCap) {
    memo_.clear();
    memo_value_entries_ = 0;
  }
}

void IndexManager::Publish(bool structural) {
  PruneMemos(structural);
  if (structural) structure_epoch_ += 1;
  publish_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

void IndexManager::Rebuild(const storage::PagedStore& store) {
  const auto t0 = std::chrono::steady_clock::now();
  MutexLock lock(&writer_mu_);
  node_state_.clear();
  data_ = Buckets();
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
      AddNode(store, store.NodeAt(p), p,
              stack.empty() ? -1 : stack.back().qn);
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
  for (size_t i = 0; i < work.size(); ++i) {
    const NodeId n = work[i];
    // Detect renames against the reverse map BEFORE removal: the
    // transaction marks only the renamed node, but the pair keys of its
    // element children changed with it. Enumerating the children from
    // the MERGED base (not the transaction's clone) keeps concurrent
    // commits convergent — a child inserted by a rival commit is
    // re-keyed here even though the renamer's clone never saw it.
    auto st = node_state_.find(n);
    const QnameId old_qn = st == node_state_.end() ? -1 : st->second.qn;
    RemoveNode(n);
    if (store.PosOfNode(n) == kNullPos) continue;  // deleted (or aborted id)
    auto pre = store.PreOfNode(n);
    if (!pre.ok()) continue;
    if (store.KindAt(pre.value()) != NodeKind::kElement) continue;
    if (old_qn >= 0 && old_qn != store.RefAt(pre.value())) {
      // Re-enqueue the direct element children: exactly their pair
      // entries mention the renamed tag. A child that is dirty anyway
      // is re-derived twice, which is harmless (a full re-derive is
      // idempotent).
      const PreId self = pre.value();
      const PreId end = self + store.SizeAt(self);
      for (PreId c = store.SkipHoles(self + 1); c <= end;
           c = store.SkipHoles(c + store.SizeAt(c) + 1)) {
        if (store.KindAt(c) == NodeKind::kElement) {
          work.push_back(store.NodeAt(c));
        }
      }
    }
    AddNode(store, n, pre.value(), ParentTagOf(store, pre.value()));
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
         kGateRatio * static_cast<double>(scan_cost);
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

const IndexManager::MemoEntry* IndexManager::FindMemo(
    const MemoKey& key, uint64_t src_gen) const {
  MutexLock lock(&memo_mu_);
  auto it = memo_.find(key);
  if (it == memo_.end() || it->second.src_gen != src_gen) return nullptr;
  return &it->second;
}

const IndexManager::MemoEntry* IndexManager::StoreMemo(
    const MemoKey& key, MemoEntry entry) const {
  MutexLock lock(&memo_mu_);
  auto it = memo_.find(key);
  if (it != memo_.end()) {
    MemoEntry& cur = it->second;
    // A racing filler got here first with the same generation: serve
    // its entry, which another probe may already hold. Otherwise the
    // entry is stale (its source moved in a commit), so no probe holds
    // it, and it is refilled in place.
    if (cur.src_gen != entry.src_gen) cur = std::move(entry);
    return &cur;
  }
  // Value/attr keys carry user-controlled operands: a full memo
  // admits no new ones (the caller serves its result unmemoized).
  if (key.ns != MemoNs::kQname && key.ns != MemoNs::kPath) {
    if (memo_value_entries_ >= kValueMemoCap) return nullptr;
    memo_value_entries_ += 1;
  }
  return &memo_.emplace(key, std::move(entry)).first->second;
}

const std::vector<PreId>* IndexManager::MemoizedPres(
    const storage::PagedStore& store, const MemoKey& mk,
    const Postings& src) const {
  if (const MemoEntry* e = FindMemo(mk, src.gen)) {
    memo_hits_.Inc();
    return &e->pres;
  }
  memo_misses_.Inc();
  MemoEntry entry;
  entry.src_gen = src.gen;
  entry.candidates = static_cast<int64_t>(src.nodes.size());
  entry.pres = ToPres(store, src.nodes);
  return &StoreMemo(mk, std::move(entry))->pres;
}

IndexManager::MemoKey IndexManager::ValueMemoKey(MemoNs ns, QnameId qn,
                                                 xpath::CmpOp op,
                                                 const std::string& literal) {
  MemoKey mk;
  mk.ns = ns;
  mk.op = static_cast<uint8_t>(op);
  mk.key = static_cast<uint64_t>(static_cast<uint32_t>(qn));
  mk.operand = literal;
  return mk;
}

const std::vector<PreId>* IndexManager::ElementsByQname(
    const storage::PagedStore& store, QnameId qn, int64_t scan_cost) const {
  if (!config_.enabled || qn < 0) return nullptr;
  probes_.Inc();
  auto it = data_.postings.find(qn);
  const int64_t k = it == data_.postings.end()
                        ? 0
                        : static_cast<int64_t>(it->second.nodes.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    return nullptr;
  }
  if (it == data_.postings.end()) return &kEmptyPres;
  MemoKey mk;
  mk.ns = MemoNs::kQname;
  mk.key = static_cast<uint64_t>(static_cast<uint32_t>(qn));
  return MemoizedPres(store, mk, it->second);
}

const std::vector<PreId>* IndexManager::PathPairProbe(
    const storage::PagedStore& store, QnameId parent_qn, QnameId self_qn,
    int64_t scan_cost) const {
  if (!config_.enabled || self_qn < 0) return nullptr;
  path_probes_.Inc();
  const uint64_t key = PairKey(parent_qn, self_qn);
  auto it = data_.paths.find(key);
  const int64_t k = it == data_.paths.end()
                        ? 0
                        : static_cast<int64_t>(it->second.nodes.size());
  if (!Gate(k, scan_cost)) {
    path_declines_.Inc();
    return nullptr;
  }
  if (it == data_.paths.end()) return &kEmptyPres;
  MemoKey mk;
  mk.ns = MemoNs::kPath;
  mk.key = key;
  return MemoizedPres(store, mk, it->second);
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
  auto vit = data_.values.find(qn);
  if (vit == data_.values.end()) {
    // No element carries this tag: the empty result is exact.
    return true;
  }
  const ValueBucket& vb = vit->second;
  const MemoKey mk = ValueMemoKey(MemoNs::kValue, qn, op, literal);
  if (const MemoEntry* e = FindMemo(mk, vb.gen)) {
    // Warm: the gate re-runs off the cached count, so a decline costs
    // no dictionary walk either.
    if (!Gate(e->candidates, scan_cost)) {
      probe_declines_.Inc();
      return false;
    }
    memo_value_hits_.Inc();
    *simple = e->pres;
    *complex_rest = e->complex_pres;
    return true;
  }
  std::vector<NodeId> matches;
  CollectMatches(vb.by_string, vb.by_number, op, literal, &matches);
  const int64_t k = static_cast<int64_t>(matches.size()) +
                    static_cast<int64_t>(vb.complex_elems.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    return false;
  }
  *simple = ToPres(store, matches);
  *complex_rest = ToPres(store, vb.complex_elems);
  memo_value_misses_.Inc();
  MemoEntry entry;
  entry.src_gen = vb.gen;
  entry.candidates = k;
  entry.pres = *simple;
  entry.complex_pres = *complex_rest;
  StoreMemo(mk, std::move(entry));
  return true;
}

std::optional<std::vector<PreId>> IndexManager::AttrOwners(
    const storage::PagedStore& store, QnameId qn, int64_t scan_cost) const {
  if (!config_.enabled || qn < 0) return std::nullopt;
  probes_.Inc();
  auto it = data_.attrs.find(qn);
  if (it == data_.attrs.end()) return std::vector<PreId>{};
  const AttrBucket& ab = it->second;
  const int64_t k = static_cast<int64_t>(ab.owners.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    return std::nullopt;
  }
  MemoKey mk;
  mk.ns = MemoNs::kAttrOwners;
  mk.key = static_cast<uint64_t>(static_cast<uint32_t>(qn));
  if (const MemoEntry* e = FindMemo(mk, ab.gen)) {
    memo_value_hits_.Inc();
    return e->pres;
  }
  memo_value_misses_.Inc();
  MemoEntry entry;
  entry.src_gen = ab.gen;
  entry.candidates = k;
  entry.pres = ToPres(store, ab.owners);
  std::vector<PreId> pres = entry.pres;
  StoreMemo(mk, std::move(entry));
  return pres;
}

std::optional<std::vector<PreId>> IndexManager::AttrValueProbe(
    const storage::PagedStore& store, QnameId qn, xpath::CmpOp op,
    const std::string& literal, int64_t scan_cost) const {
  if (!config_.enabled || qn < 0 || op == xpath::CmpOp::kNe) {
    return std::nullopt;
  }
  probes_.Inc();
  auto it = data_.attrs.find(qn);
  if (it == data_.attrs.end()) return std::vector<PreId>{};
  const AttrBucket& ab = it->second;
  const MemoKey mk = ValueMemoKey(MemoNs::kAttrValue, qn, op, literal);
  if (const MemoEntry* e = FindMemo(mk, ab.gen)) {
    if (!Gate(e->candidates, scan_cost)) {
      probe_declines_.Inc();
      return std::nullopt;
    }
    memo_value_hits_.Inc();
    return e->pres;
  }
  std::vector<NodeId> matches;
  CollectMatches(ab.by_string, ab.by_number, op, literal, &matches);
  const int64_t k = static_cast<int64_t>(matches.size());
  if (!Gate(k, scan_cost)) {
    probe_declines_.Inc();
    return std::nullopt;
  }
  memo_value_misses_.Inc();
  MemoEntry entry;
  entry.src_gen = ab.gen;
  entry.candidates = k;
  entry.pres = ToPres(store, matches);
  std::vector<PreId> pres = entry.pres;
  StoreMemo(mk, std::move(entry));
  return pres;
}

void IndexManager::NoteCrossCheckMismatch() const {
  cross_check_mismatches_.Inc();
}

// ---------------------------------------------------------------------------
// Cardinality statistics: stat reads off the buckets
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
      // Canonicalize: the parsed double IS the operand ("17" ==
      // "17.0"), -0 normalizes to +0 — so every spelling of one number
      // lands in the same histogram bucket.
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

IndexManager::KeyStats IndexManager::TagStats(QnameId qn) const {
  KeyStats ks;
  if (!config_.enabled || qn < 0) return ks;
  estimator_probes_.Inc();
  auto it = data_.postings.find(qn);
  ks.count = it == data_.postings.end()
                 ? 0
                 : static_cast<int64_t>(it->second.nodes.size());
  ks.exact = true;
  ks.known = true;
  return ks;
}

IndexManager::KeyStats IndexManager::PairStats(QnameId parent_qn,
                                               QnameId self_qn) const {
  KeyStats ks;
  if (!config_.enabled || self_qn < 0) return ks;
  estimator_probes_.Inc();
  auto it = data_.paths.find(PairKey(parent_qn, self_qn));
  ks.count = it == data_.paths.end()
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
  auto it = data_.values.find(qn);
  if (it == data_.values.end()) {
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
  auto it = data_.attrs.find(qn);
  if (it == data_.attrs.end()) {
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
  s.child_step_hits = child_step_hits_.Value();
  s.memo_hits = memo_hits_.Value();
  s.memo_misses = memo_misses_.Value();
  s.memo_value_hits = memo_value_hits_.Value();
  s.memo_value_misses = memo_value_misses_.Value();
  s.cross_check_mismatches = cross_check_mismatches_.Value();
  s.estimator_probes = estimator_probes_.Value();
  s.plan_reorders = plan_reorders_.Value();
  s.publish_epoch =
      static_cast<int64_t>(publish_epoch_.load(std::memory_order_acquire));
  // Structure walk under writer_mu_: writers mutate the buckets in
  // place, so Stats() must not walk them concurrently with a writer.
  MutexLock lock(&writer_mu_);
  s.structure_epoch = static_cast<int64_t>(structure_epoch_);
  {
    MutexLock memo_lock(&memo_mu_);
    s.memo_entries = static_cast<int64_t>(memo_.size());
    for (const auto& [key, e] : memo_) {
      s.memo_bytes += static_cast<int64_t>(
          (e.pres.capacity() + e.complex_pres.capacity()) * sizeof(PreId));
    }
  }
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
  s.qname_keys = static_cast<int64_t>(data_.postings.size());
  for (const auto& [qn, p] : data_.postings) {
    s.postings_entries += static_cast<int64_t>(p.nodes.size());
    bytes += static_cast<int64_t>(p.nodes.size()) * 8;
  }
  s.path_keys = static_cast<int64_t>(data_.paths.size());
  for (const auto& [key, p] : data_.paths) {
    bytes += static_cast<int64_t>(p.nodes.size()) * 8 +
             static_cast<int64_t>(sizeof(key));
  }
  // Every posting/path bucket is a stat key (its length IS its
  // cardinality stat); dictionary keys and owner lists join below.
  s.stat_keys += static_cast<int64_t>(data_.postings.size()) +
                 static_cast<int64_t>(data_.paths.size());
  for (const auto& [qn, vb] : data_.values) {
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
  for (const auto& [qn, ab] : data_.attrs) {
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
  reg->RegisterCounter("pxq_index_child_step_hits_total", &child_step_hits_);
  reg->RegisterCounter("pxq_index_memo_hits_total", &memo_hits_);
  reg->RegisterCounter("pxq_index_memo_misses_total", &memo_misses_);
  reg->RegisterCounter("pxq_index_memo_value_hits_total", &memo_value_hits_);
  reg->RegisterCounter("pxq_index_memo_value_misses_total",
                       &memo_value_misses_);
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
    o->emplace_back("pxq_index_postings_entries", s.postings_entries);
    o->emplace_back("pxq_index_complex_entries", s.complex_entries);
    o->emplace_back("pxq_index_node_states", s.node_states);
    o->emplace_back("pxq_index_bytes", s.bytes);
    o->emplace_back("pxq_index_build_micros", s.build_micros);
    o->emplace_back("pxq_index_maintenance_ops", s.maintenance_ops);
    o->emplace_back("pxq_index_applied_commits", s.applied_commits);
    o->emplace_back("pxq_index_publish_epoch", s.publish_epoch);
    o->emplace_back("pxq_index_structure_epoch", s.structure_epoch);
    o->emplace_back("pxq_index_stat_keys", s.stat_keys);
    o->emplace_back("pxq_index_histogram_buckets", s.histogram_buckets);
    o->emplace_back("pxq_index_memo_entries", s.memo_entries);
    o->emplace_back("pxq_index_memo_bytes", s.memo_bytes);
  });
}

}  // namespace pxq::index
