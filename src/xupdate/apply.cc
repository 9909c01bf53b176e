#include "xupdate/apply.h"

#include <optional>

#include "xpath/evaluator.h"

namespace pxq::xupdate {
namespace {

using storage::PagedStore;

/// The select of a value update may end in an attribute step
/// (e.g. update select="/site/people/person/@id"); split it off.
struct SplitSelect {
  xpath::Path nodes;
  std::optional<xpath::Step> attr;
};

SplitSelect Split(const xpath::Path& path) {
  SplitSelect s;
  s.nodes = path;
  if (!s.nodes.steps.empty() &&
      s.nodes.steps.back().axis == xpath::Axis::kAttribute) {
    s.attr = s.nodes.steps.back();
    s.nodes.steps.pop_back();
  }
  return s;
}

/// Insert a fragment with its first tuple at view slot `at` under
/// `parent_pre`, wiring up the fragment's attribute rows.
StatusOr<int64_t> InsertFragment(PagedStore* store, PreId at,
                                 PreId parent_pre, const Fragment& frag) {
  PXQ_ASSIGN_OR_RETURN(std::vector<NodeId> ids,
                       store->InsertTuples(at, parent_pre, frag.tuples));
  for (const storage::NewAttr& a : frag.attrs) {
    store->AddAttr(ids[static_cast<size_t>(a.tuple_index)], a.qname,
                   a.prop);
  }
  return static_cast<int64_t>(ids.size());
}

Status ApplyStructural(PagedStore* store, const Update& u, NodeId target,
                       ApplyStats* stats) {
  // Re-resolve the target's position: earlier edits in this batch may
  // have moved it (ids are stable, positions are not).
  auto pre_or = store->PreOfNode(target);
  if (!pre_or.ok()) return Status::OK();  // deleted by an earlier command
  PreId pre = pre_or.value();

  switch (u.kind) {
    case Update::Kind::kRemove: {
      PXQ_ASSIGN_OR_RETURN(std::vector<NodeId> gone,
                           store->DeleteSubtree(pre));
      stats->nodes_deleted += static_cast<int64_t>(gone.size());
      return Status::OK();
    }
    case Update::Kind::kInsertBefore:
    case Update::Kind::kInsertAfter: {
      PreId parent = store->ParentOf(pre);
      if (parent == kNullPre) {
        return Status::InvalidArgument(
            "cannot insert a sibling of the document root");
      }
      PreId at = (u.kind == Update::Kind::kInsertBefore)
                     ? pre
                     : pre + store->SizeAt(pre) + 1;
      PXQ_ASSIGN_OR_RETURN(int64_t n,
                           InsertFragment(store, at, parent, u.content));
      stats->nodes_inserted += n;
      return Status::OK();
    }
    case Update::Kind::kAppend: {
      if (store->KindAt(pre) != NodeKind::kElement) {
        return Status::InvalidArgument("append target is not an element");
      }
      PreId at = pre + store->SizeAt(pre) + 1;  // default: after last child
      if (u.child > 0) {
        int64_t seen = 0;
        PreId end = pre + store->SizeAt(pre);
        for (PreId c = store->SkipHoles(pre + 1); c <= end;
             c = store->SkipHoles(c + store->SizeAt(c) + 1)) {
          ++seen;
          if (seen == u.child) {
            at = c;  // new node takes this child's position
            break;
          }
        }
      }
      PXQ_ASSIGN_OR_RETURN(int64_t n,
                           InsertFragment(store, at, pre, u.content));
      stats->nodes_inserted += n;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("not a structural update");
  }
}

Status ApplyValue(PagedStore* store, const Update& u, NodeId target,
                  const std::optional<xpath::Step>& attr_step,
                  ApplyStats* stats) {
  auto pre_or = store->PreOfNode(target);
  if (!pre_or.ok()) return Status::OK();
  PreId pre = pre_or.value();

  if (attr_step) {
    if (attr_step->test.kind != xpath::NodeTest::Kind::kName) {
      return Status::Unsupported("attribute updates require a name test");
    }
    QnameId qn = store->pools().InternQname(attr_step->test.name);
    if (u.kind == Update::Kind::kUpdate) {
      store->SetAttrNamed(target, qn, store->pools().AddProp(u.text));
      ++stats->value_updates;
    } else if (u.kind == Update::Kind::kRename) {
      int32_t row = store->attrs().FindByName(target, qn);
      if (row >= 0) {
        ValueId prop = store->attrs().row(row).prop;
        PXQ_RETURN_IF_ERROR(store->RemoveAttrNamed(target, qn));
        store->SetAttrNamed(target, store->pools().InternQname(u.text),
                            prop);
        ++stats->value_updates;
      }
    } else {  // kRemove of an attribute
      Status s = store->RemoveAttrNamed(target, qn);
      if (s.ok()) ++stats->value_updates;
      return Status::OK();
    }
    return Status::OK();
  }

  switch (u.kind) {
    case Update::Kind::kUpdate:
      switch (store->KindAt(pre)) {
        case NodeKind::kText:
          PXQ_RETURN_IF_ERROR(
              store->SetRef(pre, store->pools().AddText(u.text)));
          break;
        case NodeKind::kComment:
          PXQ_RETURN_IF_ERROR(
              store->SetRef(pre, store->pools().AddComment(u.text)));
          break;
        case NodeKind::kPi:
          PXQ_RETURN_IF_ERROR(
              store->SetRef(pre, store->pools().AddPi(u.text)));
          break;
        case NodeKind::kElement: {
          // Replace the element's content with a single text node.
          PreId end = pre + store->SizeAt(pre);
          std::vector<PreId> kids;
          for (PreId c = store->SkipHoles(pre + 1); c <= end;
               c = store->SkipHoles(c + store->SizeAt(c) + 1)) {
            kids.push_back(c);
          }
          // Delete back-to-front so earlier positions stay valid.
          for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
            PXQ_ASSIGN_OR_RETURN(std::vector<NodeId> gone,
                                 store->DeleteSubtree(*it));
            stats->nodes_deleted += static_cast<int64_t>(gone.size());
          }
          if (!u.text.empty()) {
            Fragment frag;
            frag.tuples.push_back(
                {0, NodeKind::kText, store->pools().AddText(u.text)});
            PXQ_ASSIGN_OR_RETURN(
                int64_t n, InsertFragment(store, pre + 1, pre, frag));
            stats->nodes_inserted += n;
          }
          break;
        }
        default:
          return Status::InvalidArgument("cannot update this node kind");
      }
      ++stats->value_updates;
      return Status::OK();
    case Update::Kind::kRename: {
      if (store->KindAt(pre) != NodeKind::kElement) {
        return Status::InvalidArgument("rename target is not an element");
      }
      PXQ_RETURN_IF_ERROR(
          store->SetRef(pre, store->pools().InternQname(u.text)));
      ++stats->value_updates;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("not a value update");
  }
}

/// Apply `u` to `targets`, its select's matches as node ids.
StatusOr<ApplyStats> ApplyToTargets(PagedStore* store, const Update& u,
                                    const std::vector<NodeId>& targets) {
  ApplyStats stats;
  const SplitSelect sel = Split(u.select);
  stats.targets = static_cast<int64_t>(targets.size());

  const bool structural = u.kind == Update::Kind::kRemove ||
                          u.kind == Update::Kind::kInsertBefore ||
                          u.kind == Update::Kind::kInsertAfter ||
                          u.kind == Update::Kind::kAppend;
  if (sel.attr && structural && u.kind != Update::Kind::kRemove) {
    return Status::InvalidArgument(
        "structural insert cannot target an attribute");
  }
  for (NodeId t : targets) {
    if (structural && !sel.attr) {
      PXQ_RETURN_IF_ERROR(ApplyStructural(store, u, t, &stats));
    } else {
      PXQ_RETURN_IF_ERROR(ApplyValue(store, u, t, sel.attr, &stats));
    }
  }
  return stats;
}

}  // namespace

StatusOr<std::vector<NodeId>> ResolveTargets(
    const storage::PagedStore& store, const Update& u,
    const index::IndexManager* index) {
  // The target set is pinned as immutable node ids before any edit.
  // The select rides the compiled pipeline, compiled here rather than
  // through a plan cache: selects carry literals and would only evict
  // the readers' plans.
  xpath::Evaluator<PagedStore> ev(store, index);
  PXQ_ASSIGN_OR_RETURN(std::vector<PreId> pres,
                       ev.Eval(Split(u.select).nodes));
  std::vector<NodeId> targets;
  targets.reserve(pres.size());
  for (PreId p : pres) targets.push_back(store.NodeAt(p));
  return targets;
}

StatusOr<ApplyStats> ApplyUpdate(storage::PagedStore* store,
                                 const Update& u) {
  PXQ_ASSIGN_OR_RETURN(std::vector<NodeId> targets,
                       ResolveTargets(*store, u));
  return ApplyToTargets(store, u, targets);
}

StatusOr<ApplyStats> ApplyUpdates(storage::PagedStore* store,
                                  const std::vector<Update>& updates,
                                  const std::vector<NodeId>* first_targets) {
  ApplyStats total;
  for (size_t i = 0; i < updates.size(); ++i) {
    PXQ_ASSIGN_OR_RETURN(
        ApplyStats s, i == 0 && first_targets != nullptr
                          ? ApplyToTargets(store, updates[i], *first_targets)
                          : ApplyUpdate(store, updates[i]));
    total.targets += s.targets;
    total.nodes_inserted += s.nodes_inserted;
    total.nodes_deleted += s.nodes_deleted;
    total.value_updates += s.value_updates;
  }
  return total;
}

StatusOr<ApplyStats> ApplyXUpdate(storage::PagedStore* store,
                                  std::string_view xupdate_doc) {
  PXQ_ASSIGN_OR_RETURN(std::vector<Update> updates,
                       ParseXUpdate(xupdate_doc, &store->pools()));
  return ApplyUpdates(store, updates);
}

}  // namespace pxq::xupdate
