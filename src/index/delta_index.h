// Transaction-local index maintenance buffer — the secondary-index
// analog of bat::DeltaList. A mutating transaction never touches the
// read-optimized base index; instead the store primitives record the
// node ids whose index entries may have changed ("dirty" nodes) into
// this overlay. At commit, after the oplog replay has merged the
// transaction's structural work into the base store, the transaction
// manager hands the dirty set to index::IndexManager::ApplyDirty, which
// removes each dirty node's entries and re-derives them whole from the
// *merged* base structure — so two concurrent committers that both
// touched a shared parent converge on the same final index state
// regardless of commit order (the same order-independence argument as
// the paper's commutative ancestor size deltas). On abort the overlay
// is simply dropped.
//
// Dirtying rules (enforced in storage::PagedStore):
//   insert subtree  -> every inserted node + the insertion parent
//   delete subtree  -> every deleted node + the parent
//   SetRef          -> the node; for text/comment/pi also the parent
//                      (its string value changed). An element rename
//                      also re-keys its children's path-index entries,
//                      but those are expanded commit-side by
//                      IndexManager::ApplyDirty against the MERGED base
//                      (a clone-side enumeration would miss children a
//                      rival commit inserted first).
//   attribute ops   -> the owner element
//
// Only the *direct* parent needs re-derivation on content edits: a
// value-indexed ("simple") element has no element children, so any
// element at distance >= 2 above an edit site has an element child on
// the path and was never value-indexed in the first place.
#ifndef PXQ_INDEX_DELTA_INDEX_H_
#define PXQ_INDEX_DELTA_INDEX_H_

#include <unordered_set>
#include <vector>

#include "common/types.h"

namespace pxq::index {

class DeltaIndex {
 public:
  void MarkDirty(NodeId node) {
    if (node >= 0 && seen_.insert(node).second) dirty_.push_back(node);
  }
  void MarkDirty(const std::vector<NodeId>& nodes) {
    for (NodeId n : nodes) MarkDirty(n);
  }

  /// Record that this transaction shifted pre ranks (insert/delete).
  /// Value-only transactions (SetRef, attribute edits) leave this unset,
  /// letting the index keep the memoized pre materializations of
  /// untouched buckets across the commit instead of clearing them all.
  void MarkStructural() { structural_ = true; }

  const std::vector<NodeId>& dirty() const { return dirty_; }
  bool structural() const { return structural_; }
  bool empty() const { return dirty_.empty(); }

 private:
  std::vector<NodeId> dirty_;  // first-touch order (deduplicated)
  std::unordered_set<NodeId> seen_;
  bool structural_ = false;
};

}  // namespace pxq::index

#endif  // PXQ_INDEX_DELTA_INDEX_H_
