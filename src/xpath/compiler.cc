#include "xpath/compiler.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "index/cardinality.h"
#include "index/index_manager.h"
#include "xpath/parser.h"

namespace pxq::xpath {
namespace {

/// Resolve a node-test name. A miss is baked as "matches nothing" and
/// taints the plan: the name may be interned later, so the PlanCache
/// must recompile once the pool generation moves.
QnameId Resolve(const storage::ContentPools& pools, const std::string& name,
                Plan* plan) {
  QnameId qn = pools.FindQname(name);
  if (qn < 0) plan->fully_resolved = false;
  return qn;
}

bool PlainName(const Step& s, Axis axis) {
  return s.axis == axis && s.test.kind == NodeTest::Kind::kName &&
         s.predicates.empty();
}

class Compiler {
 public:
  Compiler(const storage::ContentPools& pools,
           const index::IndexManager* index)
      : pools_(pools), index_(index) {}

  Plan Run(Path path) {
    Plan plan;
    plan.pool_gen = static_cast<uint64_t>(pools_.qname_count());
    plan.env_fp = PlanEnvFingerprint(index_);
    // Split a trailing attribute step off (EvalStrings semantics); node
    // evaluation of such a plan reports the error at Run().
    if (!path.steps.empty() &&
        path.steps.back().axis == Axis::kAttribute) {
      plan.trailing_attr = path.steps.back();
      path.steps.pop_back();
    }
    plan.path = std::move(path);
    const auto& steps = plan.path.steps;
    size_t first = 0;
    if (plan.path.absolute) {
      if (steps.empty()) {
        // Programmatic "/" (the parser rejects it as text): the root.
        PlanOp op;
        op.kind = OpKind::kRootSeed;
        op.from_root = true;
        plan.ops.push_back(std::move(op));
        return plan;
      }
      first = CompileLeading(&plan);
      if (!plan.invalid_reason.empty()) return plan;
    }
    for (size_t i = first; i < steps.size(); ++i) {
      CompileStep(&plan, i);
    }
    ApplySelectivity(&plan);
    return plan;
  }

 private:
  /// Leading step(s) of an absolute path. Returns the number of steps
  /// consumed (the whole chain prefix, or just step 0).
  size_t CompileLeading(Plan* plan) {
    const auto& steps = plan->path.steps;
    // A run of >= 2 leading plain child-name steps compiles to a
    // cascade of (parent, self) pair probes, one per level below the
    // root, when an index environment exists. The gate still decides
    // per execution.
    size_t m = 0;
    while (m < steps.size() && PlainName(steps[m], Axis::kChild)) ++m;
    if (index_ != nullptr && m >= 2) {
      PlanOp op;
      op.kind = OpKind::kChainProbe;
      op.from_root = true;
      op.consumed = m;
      std::vector<QnameId> qns(m);
      for (size_t i = 0; i < m; ++i) {
        qns[i] = Resolve(pools_, steps[i].test.name, plan);
        if (qns[i] < 0) op.missing_name = true;
      }
      if (!op.missing_name) {
        for (size_t i = 1; i < m; ++i) {
          ChainProbeSpec sp;
          sp.parent_qn = qns[i - 1];
          sp.self_qn = qns[i];
          sp.abs_level = static_cast<int32_t>(i);
          op.probes.push_back(sp);
        }
      }
      plan->ops.push_back(std::move(op));
      return m;
    }
    const Step& s0 = steps[0];
    switch (s0.axis) {
      case Axis::kChild:
      case Axis::kSelf: {
        PlanOp op;
        op.kind = OpKind::kRootSeed;
        op.step = 0;
        op.from_root = true;
        if (s0.test.kind == NodeTest::Kind::kName) {
          op.qn = Resolve(pools_, s0.test.name, plan);
        }
        plan->ops.push_back(std::move(op));
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        // From the conceptual document node, both descendant flavors
        // may select the root element itself (or_self).
        PlanOp op;
        op.kind = s0.test.kind == NodeTest::Kind::kName
                      ? OpKind::kQnamePostings
                      : OpKind::kDescendantStaircase;
        op.step = 0;
        op.from_root = true;
        op.or_self = true;
        if (s0.test.kind == NodeTest::Kind::kName) {
          op.qn = Resolve(pools_, s0.test.name, plan);
        }
        plan->ops.push_back(std::move(op));
        break;
      }
      default:
        plan->invalid_reason =
            "unsupported leading axis for an absolute path";
        return 1;
    }
    CompilePredicates(plan, 0, /*leading=*/true);
    return 1;
  }

  void CompileStep(Plan* plan, size_t i) {
    const Step& s = plan->path.steps[i];
    if (s.axis == Axis::kAttribute) {
      // Mid-path attribute step: executes to the same Unsupported error
      // the interpreter reported.
      PlanOp op;
      op.kind = OpKind::kAxisScan;
      op.step = static_cast<int32_t>(i);
      plan->ops.push_back(std::move(op));
      return;
    }
    bool positional = false;
    for (const Predicate& p : s.predicates) {
      if (p.kind == Predicate::Kind::kPosition ||
          p.kind == Predicate::Kind::kLast) {
        positional = true;
      }
    }
    if (positional) {
      // Positional predicates are relative to each origin's result
      // list: the whole step (axis + every predicate) is one
      // per-origin operator.
      PlanOp op;
      op.kind = OpKind::kPositionFilter;
      op.step = static_cast<int32_t>(i);
      op.per_origin = true;
      plan->ops.push_back(std::move(op));
      return;
    }
    PlanOp op;
    op.step = static_cast<int32_t>(i);
    switch (s.axis) {
      case Axis::kChild:
        op.kind = OpKind::kChildStep;
        if (s.test.kind == NodeTest::Kind::kName) {
          op.qn = Resolve(pools_, s.test.name, plan);
        }
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        op.or_self = s.axis == Axis::kDescendantOrSelf;
        if (s.test.kind == NodeTest::Kind::kName) {
          op.kind = OpKind::kQnamePostings;
          op.qn = Resolve(pools_, s.test.name, plan);
        } else {
          op.kind = OpKind::kDescendantStaircase;
        }
        break;
      default:
        op.kind = OpKind::kAxisScan;
        if (s.test.kind == NodeTest::Kind::kName) {
          op.qn = Resolve(pools_, s.test.name, plan);
        }
        break;
    }
    plan->ops.push_back(std::move(op));
    CompilePredicates(plan, i, /*leading=*/false);
  }

  /// Predicate operators for a non-positional (or leading) step. The
  /// leading absolute step applies positional predicates to the whole
  /// candidate list (single conceptual origin), so they compile to
  /// list-position filters here instead of the per-origin operator.
  void CompilePredicates(Plan* plan, size_t i, bool leading) {
    const Step& s = plan->path.steps[i];
    for (size_t j = 0; j < s.predicates.size(); ++j) {
      const Predicate& p = s.predicates[j];
      PlanOp op;
      op.step = static_cast<int32_t>(i);
      op.pred = static_cast<int32_t>(j);
      if (p.kind == Predicate::Kind::kPosition ||
          p.kind == Predicate::Kind::kLast) {
        (void)leading;  // only reachable for the leading step
        op.kind = OpKind::kPositionFilter;
        op.per_origin = false;
        plan->ops.push_back(std::move(op));
        continue;
      }
      // Index-supported shapes (mirrors the probe families): detected
      // once here; the gate decides acceptance per execution.
      const std::vector<Step>& rel = p.rel;
      if (rel.size() == 1 && PlainName(rel[0], Axis::kAttribute)) {
        op.kind = OpKind::kValueProbeGate;
        op.shape = PredShape::kAttr;
        op.attr_qn = Resolve(pools_, rel[0].test.name, plan);
      } else if (rel.size() == 1 && PlainName(rel[0], Axis::kChild)) {
        op.kind = OpKind::kValueProbeGate;
        op.shape = PredShape::kChildValue;
        op.child_qn = Resolve(pools_, rel[0].test.name, plan);
      } else if (rel.size() == 2 && PlainName(rel[0], Axis::kChild) &&
                 PlainName(rel[1], Axis::kAttribute)) {
        op.kind = OpKind::kValueProbeGate;
        op.shape = PredShape::kChildAttr;
        op.child_qn = Resolve(pools_, rel[0].test.name, plan);
        op.attr_qn = Resolve(pools_, rel[1].test.name, plan);
      } else {
        op.kind = OpKind::kExistsFilter;
      }
      plan->ops.push_back(std::move(op));
    }
  }

  /// Estimated candidate count of one index-shaped predicate op.
  index::CardEstimate EstimateGate(const Plan& plan, const PlanOp& op,
                                   const index::CardinalityEstimator& est) {
    const Predicate& p = plan.path.steps[static_cast<size_t>(op.step)]
                             .predicates[static_cast<size_t>(op.pred)];
    const bool exists = p.kind == Predicate::Kind::kExists;
    switch (op.shape) {
      case PredShape::kAttr:
        return est.Attr(op.attr_qn, /*any_value=*/exists, p.op, p.value);
      case PredShape::kChildValue:
        return exists ? est.ChildExists(op.child_qn)
                      : est.ChildValue(op.child_qn, p.op, p.value);
      case PredShape::kChildAttr: {
        // Candidates own a child_qn child bearing the attribute, so
        // both counts bound the set; keep the smaller known one.
        index::CardEstimate a =
            est.Attr(op.attr_qn, /*any_value=*/exists, p.op, p.value);
        index::CardEstimate c = est.ChildExists(op.child_qn);
        if (!a.known) return c;
        if (!c.known) return a;
        return a.upper <= c.upper ? a : c;
      }
      case PredShape::kNone:
        break;
    }
    return {};
  }

  /// The cost-based pass (DESIGN.md §9): stamp estimates into the plan,
  /// reorder conjunctive predicates rarest-first, pick the cascade
  /// probe order by estimated bucket size, and fuse a from_root prefix
  /// with a highly selective value predicate so the value side drives
  /// the probe. Reordering is correctness-neutral (non-positional
  /// predicates are commutative per-node filters; a fixed-level
  /// ancestor is unique, so cascade joins compose in any order) and
  /// every shape keeps its scan fallback. A plan whose shape the
  /// estimates actually changed is stamped with the stats epoch so the
  /// PlanCache recompiles it when the stats move.
  void ApplySelectivity(Plan* plan) {
    index::CardinalityEstimator est(index_);
    if (!est.active() || !plan->invalid_reason.empty()) return;
    bool reshaped = false;

    // Predicate runs: maximal contiguous stretches of non-positional
    // predicate ops for one step. Stamp each gate's estimate, then
    // stable-sort the run rarest-known first (unknown estimates keep
    // syntactic order at the back — never guess). Positional filters
    // are barriers: list-position semantics depend on the nodes that
    // reached them, so nothing may cross one.
    auto is_pred = [](const PlanOp& o) {
      return o.kind == OpKind::kValueProbeGate ||
             o.kind == OpKind::kExistsFilter;
    };
    for (size_t b = 0; b < plan->ops.size();) {
      if (!is_pred(plan->ops[b])) {
        ++b;
        continue;
      }
      size_t e = b;
      while (e < plan->ops.size() && is_pred(plan->ops[e]) &&
             plan->ops[e].step == plan->ops[b].step) {
        ++e;
      }
      for (size_t i = b; i < e; ++i) {
        PlanOp& op = plan->ops[i];
        if (op.kind != OpKind::kValueProbeGate) continue;
        index::CardEstimate ce = EstimateGate(*plan, op, est);
        if (ce.known) op.est = ce.upper;
      }
      if (e - b >= 2) {
        auto key = [](const PlanOp& o) {
          return o.kind == OpKind::kValueProbeGate && o.est >= 0
                     ? o.est
                     : std::numeric_limits<int64_t>::max();
        };
        std::vector<PlanOp> run(plan->ops.begin() + static_cast<long>(b),
                                plan->ops.begin() + static_cast<long>(e));
        std::stable_sort(run.begin(), run.end(),
                         [&](const PlanOp& x, const PlanOp& y) {
                           return key(x) < key(y);
                         });
        for (size_t i = b; i < e; ++i) {
          if (plan->ops[i].pred != run[i - b].pred) reshaped = true;
        }
        if (reshaped) {
          std::move(run.begin(), run.end(),
                    plan->ops.begin() + static_cast<long>(b));
        }
      }
      b = e;
    }

    // Probe-order fusion: [ChainProbe from_root][ChildStep m][gate] —
    // when the gate's posting is clearly rarer than the structural
    // candidate set, probe the value side FIRST and verify structure by
    // walking each match's ancestor tags. The margin (4x, and a floor
    // on the structural side) keeps tiny documents on the plain
    // cascade, where fusion cannot pay for its verification walks.
    for (size_t i = 0; i + 2 < plan->ops.size(); ++i) {
      PlanOp& chain = plan->ops[i];
      PlanOp& child = plan->ops[i + 1];
      PlanOp& gate = plan->ops[i + 2];
      if (chain.kind != OpKind::kChainProbe || !chain.from_root ||
          chain.missing_name || child.kind != OpKind::kChildStep ||
          child.qn < 0 ||
          child.step != static_cast<int32_t>(chain.consumed) ||
          gate.kind != OpKind::kValueProbeGate ||
          gate.step != child.step ||
          (gate.shape != PredShape::kAttr &&
           gate.shape != PredShape::kChildValue) ||
          gate.est < 0) {
        continue;
      }
      const QnameId parent_qn = chain.probes.back().self_qn;
      index::CardEstimate structural = est.Pair(parent_qn, child.qn);
      if (!structural.known || structural.upper < 16 ||
          gate.est * 4 > structural.upper) {
        continue;
      }
      PlanOp fop;
      fop.kind = OpKind::kFusedProbe;
      fop.step = child.step;
      fop.pred = gate.pred;
      fop.qn = child.qn;
      fop.from_root = true;
      fop.consumed = chain.consumed + 1;
      fop.shape = gate.shape;
      fop.child_qn = gate.child_qn;
      fop.attr_qn = gate.attr_qn;
      fop.est = gate.est;
      fop.fused_value_first = true;
      fop.fused_level = static_cast<int32_t>(chain.consumed);
      // Nearest ancestor first (step m-1 down to step 0); the level
      // filter pins the walk to the document root.
      for (size_t s = chain.consumed; s-- > 0;) {
        fop.fused_anc.push_back(
            pools_.FindQname(plan->path.steps[s].test.name));
      }
      plan->ops[i] = std::move(fop);
      plan->ops.erase(plan->ops.begin() + static_cast<long>(i) + 1,
                      plan->ops.begin() + static_cast<long>(i) + 3);
      reshaped = true;
      break;  // at most one from_root prefix per plan
    }

    // Cascade order: per-spec estimates; seed from the rarest bucket
    // and join outward when that differs from syntactic left-to-right.
    for (PlanOp& op : plan->ops) {
      if (op.kind != OpKind::kChainProbe || op.missing_name) continue;
      bool all_known = true;
      std::vector<std::pair<QnameId, QnameId>> pairs;
      pairs.reserve(op.probes.size());
      for (ChainProbeSpec& sp : op.probes) {
        index::CardEstimate ce = est.Pair(sp.parent_qn, sp.self_qn);
        sp.est = ce.known ? ce.upper : -1;
        if (!ce.known) all_known = false;
        pairs.emplace_back(sp.parent_qn, sp.self_qn);
      }
      index::CardEstimate casc = est.Cascade(pairs);
      if (casc.known) op.est = static_cast<int64_t>(casc.point + 0.5);
      if (op.probes.size() < 2 || !all_known || !op.from_root) continue;
      std::vector<size_t> order(op.probes.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return op.probes[a].est < op.probes[b].est;
      });
      bool identity = true;
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] != i) identity = false;
      }
      if (!identity) {
        op.exec_order = std::move(order);
        reshaped = true;
      }
    }

    if (reshaped) {
      plan->stats_epoch = est.stats_epoch();
      index_->NotePlanReorder();
    }
  }

  const storage::ContentPools& pools_;
  const index::IndexManager* index_;
};

}  // namespace

Plan Compile(Path path, const storage::ContentPools& pools,
             const index::IndexManager* index) {
  return Compiler(pools, index).Run(std::move(path));
}

StatusOr<Plan> CompileText(std::string_view text,
                           const storage::ContentPools& pools,
                           const index::IndexManager* index) {
  PXQ_ASSIGN_OR_RETURN(Path path, ParsePath(text));
  Plan plan = Compile(std::move(path), pools, index);
  plan.text = std::string(text);
  return plan;
}

uint64_t PlanEnvFingerprint(const index::IndexManager* index) {
  if (index == nullptr) return 0;
  // Enabled/disabled flips the whole planning posture (cascades and
  // estimate-driven reshaping). Cross-check is a run-time decision and
  // shares plans.
  uint64_t fp = 0x100;
  if (index->config().enabled) fp |= 0x200;
  return fp;
}

}  // namespace pxq::xpath
