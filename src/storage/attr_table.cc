#include "storage/attr_table.h"

#include <algorithm>
#include <cassert>

#include "storage/store_common.h"

namespace pxq::storage {

// ---------------------------------------------------------------------------
// SortedAttrTable
// ---------------------------------------------------------------------------

void SortedAttrTable::Add(int64_t owner, QnameId qname, ValueId prop) {
  assert(owner >= 0);
  assert((rows_.empty() || rows_.back().owner <= owner) &&
         "sorted attr table requires document-order appends");
  rows_.push_back({owner, qname, prop});
}

void SortedAttrTable::Lookup(int64_t owner,
                             std::vector<int32_t>* rows) const {
  rows->clear();
  auto lo = std::lower_bound(
      rows_.begin(), rows_.end(), owner,
      [](const AttrRow& r, int64_t o) { return r.owner < o; });
  for (auto it = lo; it != rows_.end() && it->owner == owner; ++it) {
    rows->push_back(static_cast<int32_t>(it - rows_.begin()));
  }
}

int32_t SortedAttrTable::FindByName(int64_t owner, QnameId qn) const {
  auto lo = std::lower_bound(
      rows_.begin(), rows_.end(), owner,
      [](const AttrRow& r, int64_t o) { return r.owner < o; });
  for (auto it = lo; it != rows_.end() && it->owner == owner; ++it) {
    if (it->qname == qn) return static_cast<int32_t>(it - rows_.begin());
  }
  return -1;
}

// ---------------------------------------------------------------------------
// AttrTable
// ---------------------------------------------------------------------------

namespace {

// Copy the chunk in `slot` first if another table still shares it.
template <typename T>
std::vector<T>& Privatize(std::shared_ptr<std::vector<T>>* slot) {
  if (SharedWithOthers(*slot)) {
    *slot = std::make_shared<std::vector<T>>(**slot);
  }
  return **slot;
}

}  // namespace

size_t AttrTable::FirstChunkOf(int64_t owner) const {
  return static_cast<size_t>(
      std::lower_bound(fence_.begin(), fence_.end(), owner) -
      fence_.begin());
}

template <typename Fn>
void AttrTable::ForEachRowOf(int64_t owner, Fn fn) const {
  // An owner's entries are contiguous and may continue into the next
  // chunk.
  for (size_t c = FirstChunkOf(owner); c < index_.size(); ++c) {
    const IndexChunk& chunk = *index_[c];
    auto it = std::lower_bound(
        chunk.begin(), chunk.end(), owner,
        [](const IndexEntry& e, int64_t o) { return e.owner < o; });
    for (; it != chunk.end(); ++it) {
      if (it->owner != owner || !fn(it->row)) return;
    }
  }
}

AttrRow& AttrTable::MutableRow(int32_t i) {
  RowChunk& chunk =
      Privatize(&rows_[static_cast<size_t>(i >> kRowShift)]);
  return chunk[static_cast<size_t>(i & (kRowChunk - 1))];
}

AttrTable::IndexChunk& AttrTable::MutableIndexChunk(size_t c) {
  return Privatize(&index_[c]);
}

void AttrTable::Add(int64_t owner, QnameId qname, ValueId prop) {
  assert(owner >= 0);
  const auto row = static_cast<int32_t>(size_);
  if ((row & (kRowChunk - 1)) == 0) {
    rows_.push_back(std::make_shared<RowChunk>());
    rows_.back()->reserve(static_cast<size_t>(kRowChunk));
  }
  Privatize(&rows_.back()).push_back({owner, qname, prop});
  ++size_;
  ++live_;
  IndexInsert(owner, row);
}

void AttrTable::IndexInsert(int64_t owner, int32_t row) {
  // `row` is the newest row, so its entry goes after all of `owner`'s:
  // into the first chunk whose last owner is greater, else the last.
  size_t c = static_cast<size_t>(
      std::upper_bound(fence_.begin(), fence_.end(), owner) -
      fence_.begin());
  if (c == index_.size()) {
    // Appending past every owner (the bulk-load order): start a fresh
    // chunk rather than split a full one, so bulk loads pack chunks.
    if (index_.empty() || index_.back()->size() >= kIndexChunk) {
      index_.push_back(std::make_shared<IndexChunk>());
      index_.back()->reserve(kIndexChunk);
      fence_.push_back(owner);
    }
    c = index_.size() - 1;
  }
  IndexChunk& chunk = MutableIndexChunk(c);
  auto at = std::upper_bound(
      chunk.begin(), chunk.end(), owner,
      [](int64_t o, const IndexEntry& e) { return o < e.owner; });
  chunk.insert(at, {owner, row});
  fence_[c] = chunk.back().owner;
  if (chunk.size() > kIndexChunk) {
    const auto half = static_cast<std::ptrdiff_t>(chunk.size() / 2);
    auto upper =
        std::make_shared<IndexChunk>(chunk.begin() + half, chunk.end());
    chunk.erase(chunk.begin() + half, chunk.end());
    fence_[c] = chunk.back().owner;
    index_.insert(index_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                  std::move(upper));
    fence_.insert(fence_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                  index_[c + 1]->back().owner);
  }
}

void AttrTable::IndexErase(int64_t owner, int32_t row) {
  const auto less = [](const IndexEntry& a, const IndexEntry& b) {
    return a.owner != b.owner ? a.owner < b.owner : a.row < b.row;
  };
  for (size_t c = FirstChunkOf(owner); c < index_.size(); ++c) {
    const IndexChunk& chunk = *index_[c];
    auto it = std::lower_bound(chunk.begin(), chunk.end(),
                               IndexEntry{owner, row}, less);
    if (it == chunk.end()) continue;  // the entry is in a later chunk
    assert(it->owner == owner && it->row == row);
    const auto off = it - chunk.begin();
    IndexChunk& mut = MutableIndexChunk(c);
    mut.erase(mut.begin() + off);
    if (mut.empty()) {
      index_.erase(index_.begin() + static_cast<std::ptrdiff_t>(c));
      fence_.erase(fence_.begin() + static_cast<std::ptrdiff_t>(c));
    } else {
      fence_[c] = mut.back().owner;
    }
    return;
  }
}

void AttrTable::Lookup(int64_t owner, std::vector<int32_t>* rows) const {
  rows->clear();
  ForEachRowOf(owner, [&](int32_t r) {
    rows->push_back(r);
    return true;
  });
}

int32_t AttrTable::FindByName(int64_t owner, QnameId qn) const {
  int32_t found = -1;
  ForEachRowOf(owner, [&](int32_t r) {
    if (row(r).qname != qn) return true;
    found = r;
    return false;
  });
  return found;
}

void AttrTable::RemoveOwner(int64_t owner) {
  std::vector<int32_t> rows;
  Lookup(owner, &rows);
  for (int32_t r : rows) RemoveRow(r);
}

void AttrTable::RemoveRow(int32_t r) {
  assert(r >= 0 && r < size_);
  const int64_t owner = row(r).owner;
  if (owner < 0) return;
  MutableRow(r).owner = -1;
  --live_;
  IndexErase(owner, r);
}

void AttrTable::SetProp(int32_t r, ValueId prop) {
  assert(r >= 0 && r < size_);
  MutableRow(r).prop = prop;
}

}  // namespace pxq::storage
