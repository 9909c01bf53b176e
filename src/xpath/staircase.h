// Staircase-join style axis evaluation [Grust/van Keulen/Teubner,
// VLDB'03] over the pre/size/level encoding, templated on the store so
// the read-only (dense) and updatable (paged) schemas run the *same*
// operator code — the only difference is the store's accessor cost,
// which is exactly what the Figure 9 experiment isolates.
//
// Context sequences are sorted, duplicate-free pre lists. The three key
// staircase ideas are implemented:
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

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_STAIRCASE_H_
