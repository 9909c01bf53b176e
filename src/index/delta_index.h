// Transaction-local index maintenance buffer — the secondary-index
// analog of bat::DeltaList. A mutating transaction never touches the
// read-optimized base index; instead the store primitives record the
// node ids whose index entries may have changed ("dirty" nodes) into
// this overlay. At commit, after the oplog replay has merged the
// transaction's structural work into the base store, the transaction
// manager hands the dirty set to index::IndexManager::ApplyDirty, which
// re-derives each node's entries from the *merged* base structure — so
// two concurrent committers that both touched a shared parent converge
// on the same final index state regardless of commit order (the same
// order-independence argument as the paper's commutative ancestor size
// deltas). On abort the overlay is simply dropped.
//
// Each dirty node carries a *kind mask* saying which of its index
// entries may be stale, so commit-time re-derivation privatizes only
// the buckets that can actually have changed — an attribute rewrite
// must not recreate the owner's qname/path postings buckets, or every
// warm memoized materialization for that tag would be invalidated by a
// value-only commit (see IndexManager's per-key memo validation):
//
//   kEntry  qname/path/postings membership: inserts, deletes, renames
//           (SetRef on an element). Implies a full remove + re-derive.
//   kValue  the element's string value: SetRef on a text/comment/pi
//           child dirties the parent with kValue only.
//   kAttrs  the element's attribute set/values: attribute ops dirty
//           the owner with kAttrs only. A replaced attribute value is
//           re-derived against BOTH sides commit-side: the old value
//           key comes from the index's reverse map, the new one from
//           the merged base, so both dictionary keys' generations move
//           and both memoized probes invalidate.
//   kPath   the element's PARENT tag changed (the parent was
//           renamed): only the (parent, self) pair key needs
//           re-deriving — the node's own qname postings, value dictionary, and attribute
//           entries are provably untouched, so their buckets (and warm
//           memo entries) must survive. Set only commit-side by
//           IndexManager::ApplyDirty's rename expansion, never by the
//           store primitives.
//
// Dirtying rules (enforced in storage::PagedStore):
//   insert subtree  -> every inserted node + the insertion parent (kAll)
//   delete subtree  -> every deleted node + the parent (kAll)
//   SetRef          -> the node (kAll); for text/comment/pi also the
//                      parent with kValue (its string value changed).
//                      An element rename also re-keys its children's
//                      path-index entries, but those are expanded
//                      commit-side by IndexManager::ApplyDirty against
//                      the MERGED base (a clone-side enumeration would
//                      miss children a rival commit inserted first).
//   attribute ops   -> the owner element, kAttrs
//
// Only the *direct* parent needs re-derivation on content edits: a
// value-indexed ("simple") element has no element children, so any
// element at distance >= 2 above an edit site has an element child on
// the path and was never value-indexed in the first place.
#ifndef PXQ_INDEX_DELTA_INDEX_H_
#define PXQ_INDEX_DELTA_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace pxq::index {

class DeltaIndex {
 public:
  // Kind mask: which of a node's index entries may be stale. Flags
  // accumulate across marks within one transaction (a node that got an
  // attribute edit AND was renamed ends up kAll).
  enum DirtyKind : uint8_t {
    kEntry = 0x1,  // qname postings / path membership (or liveness)
    kValue = 0x2,  // string value (value dictionary + sidecar)
    kAttrs = 0x4,  // attribute owners/dictionaries
    kPath = 0x8,   // parent tag (the path-index pair key only)
    kAll = kEntry | kValue | kAttrs | kPath,
  };

  void MarkDirty(NodeId node) { Mark(node, kAll); }
  void MarkDirty(const std::vector<NodeId>& nodes) {
    for (NodeId n : nodes) Mark(n, kAll);
  }
  /// The node's string value may have changed (text/comment/pi repoint
  /// below it); postings/path/attr entries are untouched.
  void MarkValueDirty(NodeId node) { Mark(node, kValue); }
  /// The node's attribute set/values may have changed; postings/path/
  /// value entries are untouched.
  void MarkAttrsDirty(NodeId node) { Mark(node, kAttrs); }

  /// Record that this transaction shifted pre ranks (insert/delete).
  /// Value-only transactions (SetRef, attribute edits) leave this unset,
  /// letting the index keep its memoized pre materializations valid
  /// across the commit instead of invalidating them wholesale.
  void MarkStructural() { structural_ = true; }

  const std::vector<NodeId>& dirty() const { return dirty_; }
  /// Accumulated kind mask for a dirty node (kAll if never marked —
  /// callers only pass members of dirty()).
  uint8_t KindOf(NodeId node) const;
  bool structural() const { return structural_; }
  bool empty() const { return dirty_.empty(); }
  size_t size() const { return dirty_.size(); }
  void Clear();

 private:
  void Mark(NodeId node, uint8_t kind) {
    if (node < 0) return;
    auto [it, inserted] = kind_.try_emplace(node, kind);
    if (inserted) {
      dirty_.push_back(node);
    } else {
      it->second = static_cast<uint8_t>(it->second | kind);
    }
  }

  std::vector<NodeId> dirty_;  // first-touch order (deduplicated)
  std::unordered_map<NodeId, uint8_t> kind_;
  bool structural_ = false;
};

}  // namespace pxq::index

#endif  // PXQ_INDEX_DELTA_INDEX_H_
