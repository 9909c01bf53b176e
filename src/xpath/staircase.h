// Staircase-join style axis evaluation [Grust/van Keulen/Teubner,
// VLDB'03] over the pre/size/level encoding, templated on the store so
// the read-only (dense) and updatable (paged) schemas run the *same*
// operator code — the only difference is the store's accessor cost,
// which is exactly what the Figure 9 experiment isolates.
//
// Context sequences are sorted, duplicate-free pre lists; the
// executor's loop-lifted sequences (`Seq`, at the end) pair each node
// with its iteration. The three key staircase ideas are implemented:
//   * pruning: context nodes covered by a previous context's region are
//     skipped (descendant) / handled by boundary tracking (following,
//     preceding), so each axis is a single sequential pass;
//   * positional skipping: sibling hops jump pre += size + 1 — an O(1)
//     array access thanks to the virtual pre/pos columns;
//   * hole skipping: in the paged schema, unused tuples advertise the
//     length of their run, so scans step over reclaimed space (the
//     paper's level = NULL / size = run mechanism).
#ifndef PXQ_XPATH_STAIRCASE_H_
#define PXQ_XPATH_STAIRCASE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <numeric>
#include <utility>
#include <vector>

#include "common/types.h"

namespace pxq::xpath {

/// descendant axis: one pass over the union of context regions.
template <typename Store>
std::vector<PreId> StaircaseDescendant(const Store& store,
                                       const std::vector<PreId>& ctx) {
  std::vector<PreId> out;
  PreId scanned_to = -1;  // end of the last emitted region
  for (PreId c : ctx) {
    PreId end = c + store.SizeAt(c);
    if (end <= scanned_to) continue;  // fully covered: staircase pruning
    PreId from = std::max(c + 1, scanned_to + 1);
    for (PreId p = store.SkipHoles(from); p <= end;
         p = store.SkipHoles(p + 1)) {
      out.push_back(p);
    }
    scanned_to = std::max(scanned_to, end);
  }
  return out;
}

/// child axis for one context node: sibling skips via size.
template <typename Store, typename Emit>
void ForEachChild(const Store& store, PreId c, Emit&& emit) {
  const PreId end = c + store.SizeAt(c);
  for (PreId p = store.SkipHoles(c + 1); p <= end;
       p = store.SkipHoles(p + store.SizeAt(p) + 1)) {
    emit(p);
  }
}

/// following axis: everything after the first context region ends.
template <typename Store>
std::vector<PreId> StaircaseFollowing(const Store& store,
                                      const std::vector<PreId>& ctx) {
  std::vector<PreId> out;
  if (ctx.empty()) return out;
  // The earliest region end dominates: anything after it follows some
  // context node (contexts are doc-ordered; ancestors of later contexts
  // can never precede the earliest end).
  PreId bound = ctx[0] + store.SizeAt(ctx[0]);
  for (PreId c : ctx) bound = std::min(bound, c + store.SizeAt(c));
  const PreId end = store.view_size();
  for (PreId p = store.SkipHoles(bound + 1); p < end;
       p = store.SkipHoles(p + 1)) {
    out.push_back(p);
  }
  return out;
}

/// preceding axis: all nodes whose region closes before the last context.
template <typename Store>
std::vector<PreId> StaircasePreceding(const Store& store,
                                      const std::vector<PreId>& ctx) {
  std::vector<PreId> out;
  if (ctx.empty()) return out;
  const PreId bound = ctx.back();  // max pre dominates
  for (PreId p = store.SkipHoles(0); p < bound;
       p = store.SkipHoles(p + 1)) {
    if (p + store.SizeAt(p) < bound) out.push_back(p);
  }
  return out;
}

/// Ancestor chain of one node (root..parent) by descending from the
/// root, skipping over sibling subtrees whose region misses the target.
/// Cost: O(preceding siblings per level), so it grows with the node's
/// position. Only the scan axes (parent, ancestor, preceding-sibling)
/// use it; index-side ancestor checks search the pair buckets instead
/// (Executor::AncestorIn).
template <typename Store>
std::vector<PreId> DescendToAncestors(const Store& store, PreId target) {
  std::vector<PreId> chain;
  PreId cur = store.Root();
  while (cur != target) {
    chain.push_back(cur);
    PreId c = store.SkipHoles(cur + 1);
    while (!(c <= target && target <= c + store.SizeAt(c))) {
      c = store.SkipHoles(c + store.SizeAt(c) + 1);
    }
    cur = c;
  }
  return chain;
}

/// following-sibling for one context node.
template <typename Store, typename Emit>
void ForEachFollowingSibling(const Store& store, PreId c, Emit&& emit) {
  const int32_t level = store.LevelAt(c);
  const PreId end = store.view_size();
  PreId p = store.SkipHoles(c + store.SizeAt(c) + 1);
  while (p < end && store.LevelAt(p) == level) {
    emit(p);
    p = store.SkipHoles(p + store.SizeAt(p) + 1);
  }
}

/// Sort + dedup a result sequence into document order.
inline void Normalize(std::vector<PreId>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

// --- Loop-lifted sequences --------------------------------------------
// MonetDB/XQuery evaluates a step for every iteration of a loop in one
// pass (the loop-lifted staircase join). The executor's sequences carry
// the iteration along with each node.

using PrePos = std::vector<PreId>::const_iterator;

/// A loop-lifted node sequence: (iter, pre) pairs sorted by (iter,
/// pre), no pair twice. `iter` is the index of the context node a
/// sub-plan's run started from; a top-level sequence is one iteration
/// and leaves `iter` empty.
struct Seq {
  std::vector<PreId> pre;
  std::vector<int32_t> iter;

  bool lifted() const { return !iter.empty(); }
  bool empty() const { return pre.empty(); }
  size_t size() const { return pre.size(); }
  /// End of the iteration whose first pair is `b`.
  size_t IterEnd(size_t b) const {
    if (!lifted()) return pre.size();
    size_t e = b + 1;
    while (e < iter.size() && iter[e] == iter[b]) ++e;
    return e;
  }
};

/// Append `p` to `out` in the iteration of `in`'s pair `k`.
inline void Emit(Seq* out, const Seq& in, size_t k, PreId p) {
  out->pre.push_back(p);
  if (in.lifted()) out->iter.push_back(in.iter[k]);
}

/// Each node as its own iteration: the context of a lifted sub-plan.
inline Seq Lift(std::vector<PreId> nodes) {
  Seq s;
  s.iter.resize(nodes.size());
  std::iota(s.iter.begin(), s.iter.end(), 0);
  s.pre = std::move(nodes);
  return s;
}

/// Sort by (iter, pre) and drop repeated pairs; an ordered sequence
/// (the common case) is only checked.
inline void Normalize(Seq* s) {
  const std::vector<PreId>& p = s->pre;
  if (!s->lifted()) {
    if (std::adjacent_find(p.begin(), p.end(), std::greater_equal<>()) !=
        p.end()) {
      Normalize(&s->pre);
    }
    return;
  }
  const std::vector<int32_t>& it = s->iter;
  bool ordered = true;  // branch-free, so the check vectorizes
  for (size_t k = 1; k < p.size(); ++k) {
    ordered &= (it[k - 1] < it[k]) | ((it[k - 1] == it[k]) & (p[k - 1] < p[k]));
  }
  if (ordered) return;
  std::vector<std::pair<int32_t, PreId>> pairs(s->size());
  size_t k = 0;
  for (; k < pairs.size(); ++k) pairs[k] = {it[k], p[k]};
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  s->pre.resize(pairs.size());
  s->iter.resize(pairs.size());
  for (k = 0; k < pairs.size(); ++k) {
    s->iter[k] = pairs[k].first;
    s->pre[k] = pairs[k].second;
  }
}

/// Keep the pairs `k` with `hit[k]`, in order.
inline void KeepHits(Seq* s, const std::vector<char>& hit) {
  const bool lifted = s->lifted();
  size_t n = 0;
  for (size_t k = 0; k < s->size(); ++k) {  // branch-free compaction
    s->pre[n] = s->pre[k];
    if (lifted) s->iter[n] = s->iter[k];
    n += hit[k] != 0;
  }
  s->pre.resize(n);
  if (lifted) s->iter.resize(n);
}

/// `f` (one iteration's sorted pres -> its sorted result) over each
/// iteration of `ctx`; a top-level sequence is one call.
template <typename F>
Seq PerIteration(const Seq& ctx, F f) {
  if (!ctx.lifted()) return Seq{f(ctx.pre), {}};
  Seq out;
  std::vector<PreId> group;
  for (size_t b = 0, e = 0; b < ctx.size(); b = e) {
    e = ctx.IterEnd(b);
    group.assign(ctx.pre.begin() + static_cast<std::ptrdiff_t>(b),
                 ctx.pre.begin() + static_cast<std::ptrdiff_t>(e));
    for (PreId p : f(group)) {
      out.pre.push_back(p);
      out.iter.push_back(ctx.iter[b]);
    }
  }
  return out;
}

/// First entry >= `v` at or after `from` in a sorted list: a
/// galloping search, O(log distance), so a merge that advances in
/// short hops pays for short hops.
inline PrePos Seek(PrePos from, PrePos end, PreId v) {
  if (from == end || *from >= v) return from;
  const std::ptrdiff_t n = end - from;
  std::ptrdiff_t lo = 0, step = 1;
  while (step < n && from[step] < v) {
    lo = step;
    step *= 2;
  }
  return std::lower_bound(from + lo + 1, from + std::min(step, n), v);
}

/// hit[k] for the pairs whose node is in the sorted `set`: one merge
/// per iteration.
inline std::vector<char> Members(const Seq& s,
                                 const std::vector<PreId>& set) {
  std::vector<char> hit(s.size(), 0);
  PrePos at = set.begin();
  PreId prev = -1;
  for (size_t k = 0; k < s.size(); ++k) {
    const PreId p = s.pre[k];
    if (p < prev) at = set.begin();
    prev = p;
    at = Seek(at, set.end(), p);
    hit[k] = at != set.end() && *at == p;
  }
  return hit;
}

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_STAIRCASE_H_
