// XUpdate executor: translates parsed Update operations into structural
// and value edits on a PagedStore — the paper's XUpdate-to-relational-
// bulk-update mapping (end of Section 3.1). Target sets are pinned as
// immutable node ids before any mutation, so earlier edits in a batch
// cannot invalidate later targets' positions.
#ifndef PXQ_XUPDATE_APPLY_H_
#define PXQ_XUPDATE_APPLY_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/paged_store.h"
#include "xupdate/ast.h"
#include "xupdate/parser.h"

namespace pxq::index {
class IndexManager;
}  // namespace pxq::index

namespace pxq::xupdate {

struct ApplyStats {
  int64_t targets = 0;         // context nodes the selects matched
  int64_t nodes_inserted = 0;
  int64_t nodes_deleted = 0;
  int64_t value_updates = 0;
};

/// Evaluate the node part of `update`'s select (a trailing attribute
/// step split off) on `store`, pinned as node ids in document order.
/// `index`, when given, must describe `store`: the committed base,
/// evaluated under the shared lock.
StatusOr<std::vector<NodeId>> ResolveTargets(
    const storage::PagedStore& store, const Update& update,
    const index::IndexManager* index = nullptr);

/// Apply one parsed update to every node its select matches.
StatusOr<ApplyStats> ApplyUpdate(storage::PagedStore* store,
                                 const Update& update);

/// Apply a batch in order; stats are accumulated. `first_targets`, when
/// given, is ResolveTargets(updates[0]) on a store holding the same
/// document as `store` (the base `store` was cloned from, before any
/// edit) and stands in for command 0's select. Node ids are immutable,
/// so they name the same nodes here. Later commands always evaluate on
/// `store`, where the earlier commands' edits are visible.
StatusOr<ApplyStats> ApplyUpdates(
    storage::PagedStore* store, const std::vector<Update>& updates,
    const std::vector<NodeId>* first_targets = nullptr);

/// Parse and apply a complete <xupdate:modifications> document.
StatusOr<ApplyStats> ApplyXUpdate(storage::PagedStore* store,
                                  std::string_view xupdate_doc);

}  // namespace pxq::xupdate

#endif  // PXQ_XUPDATE_APPLY_H_
