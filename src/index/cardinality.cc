#include "index/cardinality.h"

#include <algorithm>

namespace pxq::index {

CardEstimate CardinalityEstimator::FromKeyStats(
    const IndexManager::KeyStats& ks) {
  CardEstimate e;
  if (!ks.known) return e;
  e.known = true;
  e.point = static_cast<double>(ks.count);
  e.upper = ks.count;
  return e;
}

CardEstimate CardinalityEstimator::Tag(QnameId qn) const {
  if (!active()) return {};
  return FromKeyStats(index_->TagStats(qn));
}

CardEstimate CardinalityEstimator::Pair(QnameId parent_qn,
                                        QnameId self_qn) const {
  if (!active()) return {};
  return FromKeyStats(index_->PairStats(parent_qn, self_qn));
}

CardEstimate CardinalityEstimator::Cascade(
    const std::vector<std::pair<QnameId, QnameId>>& pairs) const {
  CardEstimate e;
  if (!active() || pairs.empty()) return e;
  CardEstimate lead = Pair(pairs.front().first, pairs.front().second);
  if (!lead.known) return e;
  // Degree-constraint product: each continuation contributes its
  // "matches per parent element" degree — pair count over the parent
  // tag's posting count. A missing parent posting (count 0) forces the
  // whole product to 0: no parent elements exist, so no join output
  // can either.
  double point = lead.point;
  CardEstimate last = lead;
  for (size_t i = 1; i < pairs.size(); ++i) {
    CardEstimate cont = Pair(pairs[i].first, pairs[i].second);
    CardEstimate parent = Tag(pairs[i].first);
    if (!cont.known || !parent.known) return e;
    point *= parent.point > 0 ? cont.point / parent.point : 0.0;
    last = cont;
  }
  e.known = true;
  // The join output at the final tag is a subset of the final pair's
  // own bucket — the cheap pessimistic bound.
  e.upper = last.upper;
  e.point = std::min(point, static_cast<double>(e.upper));
  return e;
}

CardEstimate CardinalityEstimator::ChildValue(
    QnameId child_qn, xpath::CmpOp op, const std::string& literal) const {
  if (!active()) return {};
  return FromKeyStats(index_->ValueStats(child_qn, op, literal));
}

CardEstimate CardinalityEstimator::ChildExists(QnameId child_qn) const {
  if (!active()) return {};
  return FromKeyStats(index_->TagStats(child_qn));
}

CardEstimate CardinalityEstimator::Attr(QnameId attr_qn, bool any_value,
                                        xpath::CmpOp op,
                                        const std::string& literal) const {
  if (!active()) return {};
  return FromKeyStats(index_->AttrStats(attr_qn, any_value, op, literal));
}

}  // namespace pxq::index
