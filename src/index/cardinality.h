// Cardinality estimation over the index's per-key statistics — the
// read side of selectivity-driven planning (DESIGN.md §9).
//
// The index already maintains every input the estimator needs, for
// free or nearly so: qname posting lengths, per-(parent, self) pair
// bucket sizes, value/attr-dictionary distinct-key posting lengths, and a
// small equi-width histogram over each numeric sidecar. This class
// turns those raw counts into the two numbers the compiler consumes
// per candidate operator:
//
//   point — the expected output cardinality. For pair cascades this
//           is the degree-constraint product rule (Im et al.): the
//           leading pair's count times, per continuation pair, its
//           count divided by the posting count of its parent tag —
//           i.e. the conditional "children per parent element"
//           degree, multiplied through the join.
//   upper — a pessimistic bound that holds whenever the stats are
//           current (Sidorenko-style): the output of a pair-cascade
//           join cannot exceed the final pair's own bucket size, and a predicate's candidates cannot exceed its
//           posting/dictionary/histogram count.
//
// Every read is lock-free off the index's buckets (the same reads the
// probes make) and counted in `estimator_probes`.
// Estimates are advisory: plans keep their scan fallbacks, and plans
// whose SHAPE depended on an estimate stamp the stats epoch so a
// publication recompiles them rather than risking a stale ordering
// (never a wrong answer — reordering is correctness-neutral).
#ifndef PXQ_INDEX_CARDINALITY_H_
#define PXQ_INDEX_CARDINALITY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "index/index_manager.h"
#include "xpath/ast.h"

namespace pxq::index {

/// One cardinality answer. `known` false means the estimator has no
/// basis (index disabled, unsupported operator, unindexed key shape) —
/// callers must then keep syntactic order rather than guess.
struct CardEstimate {
  double point = 0;
  int64_t upper = 0;
  bool known = false;
};

class CardinalityEstimator {
 public:
  /// A null (or disabled) index answers nothing.
  explicit CardinalityEstimator(const IndexManager* index) : index_(index) {}

  /// True when estimates may steer plan shape: the index is live. When
  /// false the compiler emits pure syntactic plans.
  bool active() const {
    return index_ != nullptr && index_->config().enabled;
  }

  /// The epoch a shape-steering estimate must be stamped with.
  uint64_t stats_epoch() const {
    return index_ != nullptr ? index_->stats_epoch() : 0;
  }

  /// Elements tagged `qn` anywhere in the document.
  CardEstimate Tag(QnameId qn) const;

  /// Elements tagged `self_qn` under a `parent_qn` parent (-1 = the
  /// document root has no parent).
  CardEstimate Pair(QnameId parent_qn, QnameId self_qn) const;

  /// Product-rule estimate for a pair cascade (each pair's parent tag
  /// is the previous pair's self tag), given as (parent, self) pairs:
  /// point = leading count x prod(continuation count / parent-tag
  /// posting count), upper = the final pair's own count.
  CardEstimate Cascade(
      const std::vector<std::pair<QnameId, QnameId>>& pairs) const;

  /// Candidates a [child op literal] predicate probe would materialize
  /// (matching simple elements plus the bucket's complex remainder).
  CardEstimate ChildValue(QnameId child_qn, xpath::CmpOp op,
                          const std::string& literal) const;

  /// Candidates of a bare [child] existence predicate: bounded by the
  /// child tag's posting length (each candidate owns >= 1 child).
  CardEstimate ChildExists(QnameId child_qn) const;

  /// Candidates of [@attr] (any_value) or [@attr op literal].
  CardEstimate Attr(QnameId attr_qn, bool any_value, xpath::CmpOp op,
                    const std::string& literal) const;

 private:
  static CardEstimate FromKeyStats(const IndexManager::KeyStats& ks);
  const IndexManager* index_;
};

}  // namespace pxq::index

#endif  // PXQ_INDEX_CARDINALITY_H_
