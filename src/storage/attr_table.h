// Attribute tables (the paper's `attr`, Fig. 5/6). One row per attribute:
// {owner, qname, prop-value}. The schemas differ in what `owner` is:
//
//   read-only schema : owner = pre rank of the owning element. The table
//                      is built in document order, so rows are sorted by
//                      owner and lookup is a binary search over the rows
//                      themselves (stand-in for MonetDB's positional
//                      access on the void key). SortedAttrTable.
//   updatable schema : owner = immutable node id ("attributes refer to
//                      node-IDs", Fig. 6), because pre/pos values shift
//                      under structural updates but ids never do. The
//                      extra node/pos hop on every attribute access after
//                      an XPath step is exactly the overhead Figure 9
//                      measures. AttrTable.
//
// AttrTable keeps its rows and its (owner, row) index in fixed-size
// chunks held by shared_ptr, the layout PagedStore uses for pages and
// node/pos pages. Copying the table (PagedStore::Clone, once per
// transaction) copies only the chunk pointers; a write copies the one
// chunk it touches when another table still shares it. The index is a
// sequence of sorted chunks with each chunk's last owner kept in a
// small fence array, so a lookup is two binary searches however the
// inserts arrived.
#ifndef PXQ_STORAGE_ATTR_TABLE_H_
#define PXQ_STORAGE_ATTR_TABLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"

namespace pxq::storage {

struct AttrRow {
  int64_t owner;   // PreId (read-only schema) or NodeId (updatable schema)
  QnameId qname;
  ValueId prop;
};

/// Read-only schema: rows appended in owner order and never changed.
class SortedAttrTable {
 public:
  /// Append one row; owners must be non-decreasing (document order).
  void Add(int64_t owner, QnameId qname, ValueId prop);

  /// Row indices of all attributes of `owner` (insertion order).
  void Lookup(int64_t owner, std::vector<int32_t>* rows) const;

  /// First row of `owner` with qname `qn`, or -1.
  int32_t FindByName(int64_t owner, QnameId qn) const;

  const AttrRow& row(int32_t i) const {
    return rows_[static_cast<size_t>(i)];
  }

 private:
  std::vector<AttrRow> rows_;
};

/// Updatable schema: copy-on-write chunks, owners in any order. Copies
/// share chunks; a base table and its copies may be written by
/// different threads as long as no chunk is written while another
/// thread copies the table (PagedStore's contract: the base changes
/// only inside the exclusive commit window, Clone runs under the shared
/// lock).
class AttrTable {
 public:
  /// Append one attribute row.
  void Add(int64_t owner, QnameId qname, ValueId prop);

  /// Row indices of all live attributes of `owner` (insertion order).
  void Lookup(int64_t owner, std::vector<int32_t>* rows) const;

  /// First live row of `owner` with qname `qn`, or -1. Allocates
  /// nothing.
  int32_t FindByName(int64_t owner, QnameId qn) const;

  /// Remove all attributes of `owner` (subtree delete). Rows are marked
  /// dead (owner = -1) and their index entries erased; row space is not
  /// reclaimed, matching the hole-based storage philosophy.
  void RemoveOwner(int64_t owner);

  /// Remove one attribute by row index.
  void RemoveRow(int32_t row);

  /// Replace the value of an existing row (attribute value update).
  void SetProp(int32_t row, ValueId prop);

  const AttrRow& row(int32_t i) const {
    return (*rows_[static_cast<size_t>(i >> kRowShift)])
        [static_cast<size_t>(i & (kRowChunk - 1))];
  }
  int64_t size() const { return size_; }
  int64_t live_count() const { return live_; }

 private:
  static constexpr int kRowShift = 10;
  static constexpr int32_t kRowChunk = 1 << kRowShift;
  // An index chunk splits in two when an insert takes it past this.
  static constexpr size_t kIndexChunk = 1024;

  struct IndexEntry {
    int64_t owner;
    int32_t row;
  };
  using RowChunk = std::vector<AttrRow>;
  using IndexChunk = std::vector<IndexEntry>;

  /// First index chunk that may hold `owner`'s entries.
  size_t FirstChunkOf(int64_t owner) const;
  /// Calls fn(row) for each live row of `owner` in row order until fn
  /// returns false.
  template <typename Fn>
  void ForEachRowOf(int64_t owner, Fn fn) const;
  AttrRow& MutableRow(int32_t i);
  IndexChunk& MutableIndexChunk(size_t c);
  void IndexInsert(int64_t owner, int32_t row);
  void IndexErase(int64_t owner, int32_t row);

  std::vector<std::shared_ptr<RowChunk>> rows_;
  std::vector<std::shared_ptr<IndexChunk>> index_;  // sorted by (owner, row)
  std::vector<int64_t> fence_;  // fence_[c] = index_[c]->back().owner
  int64_t size_ = 0;
  int64_t live_ = 0;
};

}  // namespace pxq::storage

#endif  // PXQ_STORAGE_ATTR_TABLE_H_
