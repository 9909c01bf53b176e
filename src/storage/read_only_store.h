// The original read-only MonetDB/XQuery schema (Fig. 5): a dense
// pre/size/level table where pre is a virtual void column (the array
// index), plus kind/ref columns and an attribute table keyed by pre.
// This is the `ro` baseline of the Figure 9 experiment. It supports no
// structural updates by construction — exactly the paper's premise.
#ifndef PXQ_STORAGE_READ_ONLY_STORE_H_
#define PXQ_STORAGE_READ_ONLY_STORE_H_

#include <memory>
#include <vector>

#include "bat/column.h"
#include "common/status.h"
#include "common/types.h"
#include "storage/attr_table.h"
#include "storage/store_common.h"

namespace pxq::storage {

class ReadOnlyStore {
 public:
  /// Adopt a dense shredded document (sizes already in descendant-count
  /// form, which equals view extent because there are no holes).
  static std::unique_ptr<ReadOnlyStore> Build(DenseDocument doc);

  // --- geometry -----------------------------------------------------
  int64_t view_size() const { return size_.size(); }
  int64_t used_count() const { return size_.size(); }

  // --- tuple access by pre (== pos == node id) ----------------------
  bool IsUsed(PreId pre) const { return pre >= 0 && pre < view_size(); }
  int64_t SizeAt(PreId pre) const { return size_.Get(pre); }
  int32_t LevelAt(PreId pre) const { return level_.Get(pre); }
  NodeKind KindAt(PreId pre) const {
    return static_cast<NodeKind>(kind_.Get(pre));
  }
  int32_t RefAt(PreId pre) const { return ref_.Get(pre); }

  /// No holes: identity.
  PreId SkipHoles(PreId pre) const { return pre; }
  /// Root element is always at pre 0 in the dense schema.
  PreId Root() const { return 0; }

  /// Attribute owner key for a given pre: in this schema attributes
  /// reference pre directly — no node/pos indirection.
  int64_t AttrOwnerOf(PreId pre) const { return pre; }

  const SortedAttrTable& attrs() const { return attrs_; }
  ContentPools& pools() { return *pools_; }
  const ContentPools& pools() const { return *pools_; }

  /// Payload bytes of the node table + attr table (E7 footprint).
  int64_t NodeTableBytes() const {
    return size_.ByteSize() + level_.ByteSize() + kind_.ByteSize() +
           ref_.ByteSize();
  }

 private:
  ReadOnlyStore() = default;

  bat::TypedColumn<int64_t> size_;
  bat::TypedColumn<int32_t> level_;
  bat::TypedColumn<uint8_t> kind_;
  bat::TypedColumn<int32_t> ref_;
  SortedAttrTable attrs_;
  std::shared_ptr<ContentPools> pools_;
};

}  // namespace pxq::storage

#endif  // PXQ_STORAGE_READ_ONLY_STORE_H_
