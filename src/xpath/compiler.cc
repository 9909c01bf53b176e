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

const Predicate& PredicateOf(const Plan& plan, const PlanOp& op) {
  return plan.path.steps[static_cast<size_t>(op.step)]
      .predicates[static_cast<size_t>(op.pred)];
}

/// A conjunctive predicate filter: a member of a reorderable run.
bool IsPredOp(const PlanOp& o) {
  return o.kind == OpKind::kValueProbeGate || o.kind == OpKind::kExistsFilter;
}

/// An index-shaped predicate op whose estimate reads a quoted literal.
bool ReadsLiteral(const Plan& plan, const PlanOp& op) {
  return (op.kind == OpKind::kValueProbeGate ||
          op.kind == OpKind::kFusedProbe) &&
         PredicateOf(plan, op).param >= 0;
}

/// Estimated candidate count of one index-shaped predicate op, for the
/// `bound` literals (empty: the literals the plan was compiled from).
index::CardEstimate EstimateGate(const Plan& plan, const PlanOp& op,
                                 const index::CardinalityEstimator& est,
                                 Literals bound) {
  const Predicate& p = PredicateOf(plan, op);
  const bool exists = p.kind == Predicate::Kind::kExists;
  const std::string& literal = LiteralOf(p, bound);
  switch (op.shape) {
    case PredShape::kAttr:
      return est.Attr(op.attr_qn, /*any_value=*/exists, p.op, literal);
    case PredShape::kChildValue:
      return exists ? est.ChildExists(op.child_qn)
                    : est.ChildValue(op.child_qn, p.op, literal);
    case PredShape::kChildAttr: {
      // Candidates own a child_qn child bearing the attribute, so
      // both counts bound the set; keep the smaller known one.
      index::CardEstimate a =
          est.Attr(op.attr_qn, /*any_value=*/exists, p.op, literal);
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

/// Sort key of a predicate run: rarest-known first, unknown estimates
/// keep syntactic order at the back (never guess).
int64_t RunKey(int64_t est) {
  return est >= 0 ? est : std::numeric_limits<int64_t>::max();
}

/// End of the predicate run that starts at ops[b]: the maximal
/// contiguous stretch of `member` ops for one step.
template <typename Member>
size_t RunEnd(const std::vector<PlanOp>& ops, size_t b, Member member) {
  size_t e = b;
  while (e < ops.size() && member(ops[e]) && ops[e].step == ops[b].step) ++e;
  return e;
}

/// [ChainProbe from_root][ChildStep m][gate] at ops[i..i+2] in the
/// shape value-first fusion takes; the estimates decide whether it
/// does (Fuses).
bool FusionShape(const Plan& plan, size_t i) {
  if (i + 2 >= plan.ops.size()) return false;
  const PlanOp& chain = plan.ops[i];
  const PlanOp& child = plan.ops[i + 1];
  const PlanOp& gate = plan.ops[i + 2];
  return chain.kind == OpKind::kChainProbe && chain.from_root &&
         !chain.missing_name && child.kind == OpKind::kChildStep &&
         child.qn >= 0 &&
         child.step == static_cast<int32_t>(chain.consumed) &&
         gate.kind == OpKind::kValueProbeGate && gate.step == child.step &&
         (gate.shape == PredShape::kAttr ||
          gate.shape == PredShape::kChildValue);
}

/// Fuse when the gate's posting is clearly rarer than the structural
/// candidate set: 4x, and a floor on the structural side that keeps
/// tiny documents on the plain cascade, where fusion cannot pay for
/// its extra bucket fetches.
bool Fuses(int64_t gate_est, const index::CardEstimate& structural) {
  return gate_est >= 0 && structural.known && structural.upper >= 16 &&
         gate_est * 4 <= structural.upper;
}

class Compiler {
 public:
  Compiler(const storage::ContentPools& pools,
           const index::IndexManager* index)
      : pools_(pools), index_(index) {}

  /// A top-level plan: the operators, then the cost-based pass.
  Plan Run(Path path) {
    Plan plan = Build(std::move(path));
    ApplySelectivity(&plan);
    return plan;
  }

 private:
  /// An empty plan over `path` for this environment. A trailing
  /// attribute step splits off (EvalStrings semantics); node
  /// evaluation of such a plan reports the error at Run().
  Plan Begin(Path path) const {
    Plan plan;
    plan.pool_gen = static_cast<uint64_t>(pools_.qname_count());
    plan.env_fp = PlanEnvFingerprint(index_);
    if (!path.steps.empty() &&
        path.steps.back().axis == Axis::kAttribute) {
      plan.trailing_attr = path.steps.back();
      path.steps.pop_back();
    }
    plan.path = std::move(path);
    return plan;
  }

  /// The operators of a plan, without estimates. Relative sub-plans
  /// stop here.
  Plan Build(Path path) {
    Plan plan = Begin(std::move(path));
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
    return plan;
  }

  /// Hand a compiled sub-plan to its parent and return its index. An
  /// unresolved name in the sub-plan taints the parent too, so the
  /// PlanCache recompiles it once the name is interned.
  static int32_t Adopt(Plan* parent, Plan sub) {
    if (!sub.fully_resolved) parent->fully_resolved = false;
    parent->subs.push_back(std::move(sub));
    return static_cast<int32_t>(parent->subs.size() - 1);
  }

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
    CompilePredicates(plan, 0);
    return 1;
  }

  void CompileStep(Plan* plan, size_t i) {
    const Step& s = plan->path.steps[i];
    if (s.axis == Axis::kAttribute) {
      // Mid-path attribute step: RunOps reports the attribute-axis
      // Unsupported error before the op runs.
      PlanOp op;
      op.kind = OpKind::kAxisScan;
      op.step = static_cast<int32_t>(i);
      plan->ops.push_back(std::move(op));
      return;
    }
    const bool positional =
        std::any_of(s.predicates.begin(), s.predicates.end(),
                    [](const Predicate& p) {
                      return p.kind == Predicate::Kind::kPosition ||
                             p.kind == Predicate::Kind::kLast;
                    });
    if (!positional) {
      CompileAxis(plan, i);
      CompilePredicates(plan, i);
      return;
    }
    // Positional predicates are relative to each origin's result list:
    // the step (axis op, then every predicate as a list filter) is a
    // sub-plan the per-origin operator runs once per context node.
    Plan body = Begin(Path{false, {s}});
    CompileAxis(&body, 0);
    CompilePredicates(&body, 0);
    PlanOp op;
    op.kind = OpKind::kPositionFilter;
    op.step = static_cast<int32_t>(i);
    op.per_origin = true;
    op.sub = Adopt(plan, std::move(body));
    plan->ops.push_back(std::move(op));
  }

  /// The axis operator of a non-leading, non-attribute step.
  void CompileAxis(Plan* plan, size_t i) {
    const Step& s = plan->path.steps[i];
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
  }

  /// Predicate operators of step i, each a filter over the step's
  /// whole candidate list: the leading absolute step (one conceptual
  /// origin, the document node), a non-positional step, or the body of
  /// a per-origin sub-plan.
  void CompilePredicates(Plan* plan, size_t i) {
    const Step& s = plan->path.steps[i];
    for (size_t j = 0; j < s.predicates.size(); ++j) {
      const Predicate& p = s.predicates[j];
      PlanOp op;
      op.step = static_cast<int32_t>(i);
      op.pred = static_cast<int32_t>(j);
      if (p.kind == Predicate::Kind::kPosition ||
          p.kind == Predicate::Kind::kLast) {
        op.kind = OpKind::kPositionFilter;
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
      // The relative path, compiled once; a trailing attribute step
      // splits off like a top-level one ([a/@b]).
      op.sub = Adopt(plan, Build(Path{false, p.rel}));
      plan->ops.push_back(std::move(op));
    }
  }

  /// The cost-based pass (DESIGN.md §9): stamp estimates into the plan,
  /// reorder conjunctive predicates rarest-first, and fuse a from_root
  /// prefix with a highly selective value predicate so the value side
  /// drives the probe. Reordering is correctness-neutral (non-positional
  /// predicates are commutative per-node filters) and every shape keeps
  /// its scan fallback. A plan whose shape the estimates actually
  /// changed is stamped with the stats epoch so the PlanCache
  /// recompiles it when the stats move; a plan whose choices
  /// read a quoted literal's estimate is marked literal_choices, so a
  /// cache hit for other literals re-derives them (SameLiteralChoices
  /// mirrors the two literal-reading decisions below).
  void ApplySelectivity(Plan* plan) {
    index::CardinalityEstimator est(index_);
    if (!est.active() || !plan->invalid_reason.empty()) return;
    bool reshaped = false;

    // Predicate runs: maximal contiguous stretches of non-positional
    // predicate ops for one step. Stamp each gate's estimate, then
    // stable-sort the run rarest-known first. Positional filters are
    // barriers: list-position semantics depend on the nodes that
    // reached them, so nothing may cross one.
    for (size_t b = 0; b < plan->ops.size();) {
      if (!IsPredOp(plan->ops[b])) {
        ++b;
        continue;
      }
      const size_t e = RunEnd(plan->ops, b, IsPredOp);
      for (size_t i = b; i < e; ++i) {
        PlanOp& op = plan->ops[i];
        if (op.kind != OpKind::kValueProbeGate) continue;
        index::CardEstimate ce = EstimateGate(*plan, op, est, {});
        if (ce.known) op.est = ce.upper;
        if (e - b >= 2 && ReadsLiteral(*plan, op)) {
          plan->literal_choices = true;
        }
      }
      if (e - b >= 2) {
        std::vector<PlanOp> run(plan->ops.begin() + static_cast<long>(b),
                                plan->ops.begin() + static_cast<long>(e));
        std::stable_sort(run.begin(), run.end(),
                         [](const PlanOp& x, const PlanOp& y) {
                           return RunKey(x.est) < RunKey(y.est);
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
    // candidate set (Fuses), probe the value side FIRST and verify
    // structure by searching each match's ancestors in the prefix's
    // pair buckets (O(depth * log bucket) per match).
    for (size_t i = 0; i + 2 < plan->ops.size(); ++i) {
      if (!FusionShape(*plan, i)) continue;
      PlanOp& chain = plan->ops[i];
      PlanOp& child = plan->ops[i + 1];
      PlanOp& gate = plan->ops[i + 2];
      if (ReadsLiteral(*plan, gate)) plan->literal_choices = true;
      const QnameId parent_qn = chain.probes.back().self_qn;
      if (!Fuses(gate.est, est.Pair(parent_qn, child.qn))) continue;
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
      fop.sub = gate.sub;
      fop.fused_value_first = true;
      fop.fused_level = static_cast<int32_t>(chain.consumed);
      // Nearest ancestor first (step m-1 down to step 0); the pair
      // buckets these name pin each ancestor's tag and its parent's.
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

    // Cascade estimate, for explain's est= column and the estimate-error
    // histogram; the cascade itself always runs in level order.
    for (PlanOp& op : plan->ops) {
      if (op.kind != OpKind::kChainProbe || op.missing_name) continue;
      std::vector<std::pair<QnameId, QnameId>> pairs;
      pairs.reserve(op.probes.size());
      for (const ChainProbeSpec& sp : op.probes) {
        pairs.emplace_back(sp.parent_qn, sp.self_qn);
      }
      index::CardEstimate casc = est.Cascade(pairs);
      if (casc.known) op.est = static_cast<int64_t>(casc.point + 0.5);
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
  return Compile(std::move(path), pools, index);
}

bool SameLiteralChoices(const Plan& plan, Literals bound,
                        const index::IndexManager* index) {
  index::CardinalityEstimator est(index);
  if (!plan.literal_choices || !est.active()) return true;
  const std::vector<PlanOp>& ops = plan.ops;
  auto estimate = [&](const PlanOp& op) -> int64_t {
    if (op.kind != OpKind::kValueProbeGate &&
        op.kind != OpKind::kFusedProbe) {
      return -1;
    }
    const index::CardEstimate ce = EstimateGate(plan, op, est, bound);
    return ce.known ? ce.upper : -1;
  };
  // Predicate runs, the fused gate counted first in its step's run (it
  // was the run's rarest when fusion took it): the syntactic order,
  // stable-sorted by these literals' estimates, must be the compiled
  // order.
  auto member = [](const PlanOp& o) {
    return IsPredOp(o) || o.kind == OpKind::kFusedProbe;
  };
  for (size_t b = 0; b < ops.size();) {
    if (!member(ops[b])) {
      ++b;
      continue;
    }
    const size_t e = RunEnd(ops, b, member);
    const bool literal = std::any_of(
        ops.begin() + static_cast<long>(b), ops.begin() + static_cast<long>(e),
        [&](const PlanOp& o) { return ReadsLiteral(plan, o); });
    if (e - b >= 2 && literal) {
      std::vector<std::pair<int32_t, int64_t>> run;  // (pred, key)
      for (size_t i = b; i < e; ++i) {
        run.emplace_back(ops[i].pred, RunKey(estimate(ops[i])));
      }
      std::sort(run.begin(), run.end());
      std::stable_sort(run.begin(), run.end(),
                       [](const auto& x, const auto& y) {
                         return x.second < y.second;
                       });
      for (size_t i = b; i < e; ++i) {
        if (run[i - b].first != ops[i].pred) return false;
      }
    }
    b = e;
  }
  // Value-first fusion: a fused literal gate must still fuse, and an
  // unfused one in fusion's shape must still not.
  for (size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind == OpKind::kFusedProbe && ReadsLiteral(plan, ops[i]) &&
        !Fuses(estimate(ops[i]), est.Pair(ops[i].fused_anc[0], ops[i].qn))) {
      return false;
    }
    if (FusionShape(plan, i) && ReadsLiteral(plan, ops[i + 2]) &&
        Fuses(estimate(ops[i + 2]),
              est.Pair(ops[i].probes.back().self_qn, ops[i + 1].qn))) {
      return false;
    }
  }
  return true;
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
