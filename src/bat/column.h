// Mini column-store kernel ("BAT" layer) modelling the two MonetDB
// properties the paper relies on:
//   * void columns: densely ascending keys that are never materialized,
//     giving O(1) positional lookup (array indexing);
//   * typed tail columns supporting positional select / positional join.
// MonetDB BATs are binary [head|tail] tables whose head is void in all
// tables of the XML schema (Fig. 5/6); we therefore model a table as a
// set of TypedColumns sharing one implicit VoidColumn key.
#ifndef PXQ_BAT_COLUMN_H_
#define PXQ_BAT_COLUMN_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pxq::bat {

/// A virtual dense key column (MonetDB `void`): values are
/// seqbase, seqbase+1, ... It stores nothing; lookups are arithmetic.
/// The paper's central trick is that the view's `pre` column is void, so
/// pre numbers "shift" after an insert at zero physical cost.
class VoidColumn {
 public:
  explicit VoidColumn(int64_t seqbase = 0, int64_t count = 0)
      : seqbase_(seqbase), count_(count) {}

  int64_t seqbase() const { return seqbase_; }
  int64_t count() const { return count_; }

  /// Value at position i (the whole point: no memory access).
  int64_t operator[](int64_t i) const {
    assert(i >= 0 && i < count_);
    return seqbase_ + i;
  }

  /// Positional lookup: position of value v, or -1 if out of range.
  int64_t PositionOf(int64_t v) const {
    int64_t i = v - seqbase_;
    return (i >= 0 && i < count_) ? i : -1;
  }

 private:
  int64_t seqbase_;
  int64_t count_;
};

/// A typed, appendable tail column addressed positionally by the table's
/// void key. Fixed-width values only; strings live in value pools that
/// this column references by ValueId (mirroring MonetDB's string heaps).
template <typename T>
class TypedColumn {
 public:
  TypedColumn() = default;
  explicit TypedColumn(int64_t count, T fill = T{}) : data_(count, fill) {}

  int64_t size() const { return static_cast<int64_t>(data_.size()); }

  T Get(int64_t pos) const {
    assert(pos >= 0 && pos < size());
    return data_[static_cast<size_t>(pos)];
  }
  void Set(int64_t pos, T v) {
    assert(pos >= 0 && pos < size());
    data_[static_cast<size_t>(pos)] = v;
  }
  void Append(T v) { data_.push_back(v); }
  void Resize(int64_t count, T fill = T{}) {
    data_.resize(static_cast<size_t>(count), fill);
  }

  const T* data() const { return data_.data(); }

  /// Bytes of payload held (for the E7 footprint experiment).
  int64_t ByteSize() const { return size() * static_cast<int64_t>(sizeof(T)); }

 private:
  std::vector<T> data_;
};

/// Positional select: gather `column[key]` for each key in `keys`.
/// This is MonetDB's positional join of a void-headed BAT with a list of
/// void key values — an array gather, one load per key.
template <typename T>
std::vector<T> PositionalJoin(const TypedColumn<T>& column,
                              const std::vector<int64_t>& keys) {
  std::vector<T> out;
  out.reserve(keys.size());
  for (int64_t k : keys) out.push_back(column.Get(k));
  return out;
}

/// Positional range select: keys in [lo, hi) whose column value satisfies
/// `pred`. Returns the qualifying keys (positions).
template <typename T, typename Pred>
std::vector<int64_t> PositionalSelect(const TypedColumn<T>& column,
                                      int64_t lo, int64_t hi, Pred pred) {
  std::vector<int64_t> out;
  if (lo < 0) lo = 0;
  if (hi > column.size()) hi = column.size();
  for (int64_t i = lo; i < hi; ++i) {
    if (pred(column.Get(i))) out.push_back(i);
  }
  return out;
}

}  // namespace pxq::bat

#endif  // PXQ_BAT_COLUMN_H_
