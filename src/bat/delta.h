// Differential lists and copy-on-write overlays — the MonetDB isolation
// substrate the paper's transaction protocol (Fig. 8) builds on.
//
// A transaction never writes base tables directly. Point writes go into a
// DeltaList (position -> new value) layered over the base column by an
// OverlayColumn; bulk-updated page regions go into private page images
// (PagedOverlay), mirroring MonetDB's copy-on-write memory maps where the
// OS swaps in private pages for everything a transaction touches. At
// commit, deltas are propagated into the base under the global write lock.
#ifndef PXQ_BAT_DELTA_H_
#define PXQ_BAT_DELTA_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "bat/column.h"

namespace pxq::bat {

/// Differential list for one column: sparse set of positional overwrites
/// plus an appended tail beyond the base column's size.
template <typename T>
class DeltaList {
 public:
  void Put(int64_t pos, T v) { writes_[pos] = v; }

  /// True (and fills *out) if this delta overrides position `pos`.
  bool Get(int64_t pos, T* out) const {
    auto it = writes_.find(pos);
    if (it == writes_.end()) return false;
    *out = it->second;
    return true;
  }

  bool empty() const { return writes_.empty(); }
  size_t size() const { return writes_.size(); }

  /// Apply all writes to the base column (commit propagation). Positions
  /// beyond the base size extend it.
  void ApplyTo(TypedColumn<T>* base) const {
    for (const auto& [pos, v] : writes_) {
      if (pos >= base->size()) base->Resize(pos + 1);
      base->Set(pos, v);
    }
  }

  /// Iteration for WAL serialization.
  const std::unordered_map<int64_t, T>& writes() const { return writes_; }

 private:
  std::unordered_map<int64_t, T> writes_;
};

/// Read-through view: delta first, then base. This is what a transaction
/// uses for all its reads so it sees its own writes ("read your writes")
/// without other transactions seeing them.
template <typename T>
class OverlayColumn {
 public:
  OverlayColumn(const TypedColumn<T>* base, const DeltaList<T>* delta)
      : base_(base), delta_(delta) {}

  T Get(int64_t pos) const {
    T v;
    if (delta_->Get(pos, &v)) return v;
    return base_->Get(pos);
  }

  int64_t size() const { return base_->size(); }

 private:
  const TypedColumn<T>* base_;
  const DeltaList<T>* delta_;
};

/// Page-granular copy-on-write overlay used for the bulk-updated areas of
/// the pos/size/level and node/pos tables (Fig. 7 / Fig. 8). A page is
/// either shared with the base or privately copied on first write. New
/// pages appended by the transaction are private by construction — the
/// paper's "only write into newly appended pages" rule.
template <typename T>
class PagedOverlay {
 public:
  PagedOverlay(const TypedColumn<T>* base, int64_t page_tuples)
      : base_(base), page_tuples_(page_tuples) {}

  int64_t page_tuples() const { return page_tuples_; }

  T Get(int64_t pos) const {
    int64_t pg = pos / page_tuples_;
    auto it = private_pages_.find(pg);
    if (it != private_pages_.end()) {
      return it->second[static_cast<size_t>(pos % page_tuples_)];
    }
    return base_->Get(pos);
  }

  /// Write through COW: copies the page from base on first touch.
  void Set(int64_t pos, T v) {
    int64_t pg = pos / page_tuples_;
    auto& page = EnsurePrivate(pg);
    page[static_cast<size_t>(pos % page_tuples_)] = v;
  }

  /// Number of pages this overlay privatized (test/bench observability).
  size_t private_page_count() const { return private_pages_.size(); }

  bool IsPrivate(int64_t pg) const { return private_pages_.count(pg) > 0; }

  /// Propagate all private pages into the base column.
  void ApplyTo(TypedColumn<T>* base) const {
    for (const auto& [pg, page] : private_pages_) {
      int64_t start = pg * page_tuples_;
      if (start + page_tuples_ > base->size()) {
        base->Resize(start + page_tuples_);
      }
      for (int64_t i = 0; i < page_tuples_; ++i) {
        base->Set(start + i, page[static_cast<size_t>(i)]);
      }
    }
  }

 private:
  std::vector<T>& EnsurePrivate(int64_t pg) {
    auto it = private_pages_.find(pg);
    if (it != private_pages_.end()) return it->second;
    std::vector<T> page(static_cast<size_t>(page_tuples_), T{});
    int64_t start = pg * page_tuples_;
    for (int64_t i = 0; i < page_tuples_; ++i) {
      int64_t p = start + i;
      if (p < base_->size()) page[static_cast<size_t>(i)] = base_->Get(p);
    }
    return private_pages_.emplace(pg, std::move(page)).first->second;
  }

  const TypedColumn<T>* base_;
  int64_t page_tuples_;
  std::unordered_map<int64_t, std::vector<T>> private_pages_;
};

}  // namespace pxq::bat

#endif  // PXQ_BAT_DELTA_H_
