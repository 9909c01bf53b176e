// Stage 3 of the query pipeline: execute a compiled Plan (plan.h)
// against a store + published index snapshot. Templated on the store
// type so both schemas run identical plans (see staircase.h).
//
// Loop-lifted, after MonetDB/XQuery's iter|item: every operator maps a
// sequence of (iter, pre) pairs sorted by (iter, pre) (`Seq`) to
// another. A top-level plan is one iteration and carries no iter
// column. A relative sub-plan runs ONCE over its whole context, context
// node i as iteration i: a per-origin positional step's body, whose
// [k] and [last()] then count within each iteration, and an
// exists/compare predicate's path, whose candidates then keep the
// iterations that found a (matching) node — a semi-join. Child steps
// over the index merge the contexts against one sorted tag list
// (ForEachChildIn), a (context tag, tag) pair bucket when the compiler
// knows the context's tag.
//
// Strategy selection happened at compile time (compiler.h); what stays
// adaptive here is exactly the run-time-stat-dependent part: each
// index-capable operator consults the cost gate once, with the live
// scan estimate over its whole context, and falls back to its baked
// scan strategy when the gate declines (or when no index is attached —
// a plan compiled for an indexed database executes correctly inside an
// index-less transaction clone). With IndexConfig::cross_check set,
// every index-answered operator is replayed on the (lifted) scan path
// operator-by-operator and a divergence fails the query with
// Corruption, reporting the diverging operator and the node ids only
// one side found.
//
// RunOps is the only evaluation loop: sub-plans (Plan::subs) run
// through it recursively, traced only under a traced operator (explain
// then lists what they did), and a declined pair cascade falls back to
// the compiled child-step logic.
#ifndef PXQ_XPATH_EXECUTOR_H_
#define PXQ_XPATH_EXECUTOR_H_

#include <algorithm>
#include <chrono>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "index/index_manager.h"
#include "storage/attr_table.h"
#include "xpath/ast.h"
#include "xpath/plan.h"
#include "xpath/staircase.h"
#include "xpath/value_compare.h"

namespace pxq::xpath {

template <typename Store>
class Executor {
 public:
  static constexpr bool kIndexable =
      std::is_same_v<Store, storage::PagedStore>;

  Executor(const Store& store, const index::IndexManager* index)
      : store_(store), index_(index) {}

  const Store& store() const { return store_; }
  const index::IndexManager* index() const { return index_; }

  /// Execute a plan's operators as one iteration. For absolute plans
  /// the incoming context is ignored (the leading operator seeds from
  /// the root); relative plans start from `ctx`. With `trace` set, one
  /// OpTrace per executed operator records the strategy actually
  /// taken. `bound` holds the literals of the caller's text for a plan
  /// shared by its shape (PlanCache); its sub-plans read the same list.
  StatusOr<std::vector<PreId>> RunOps(const Plan& plan,
                                      std::vector<PreId> ctx,
                                      std::vector<OpTrace>* trace = nullptr,
                                      Literals bound = {}) const {
    PXQ_ASSIGN_OR_RETURN(Seq out,
                         RunOps(plan, Seq{std::move(ctx), {}}, bound, trace));
    return std::move(out.pre);
  }

  /// XPath string-value: text content for value nodes, concatenated
  /// descendant text for elements.
  std::string StringValue(PreId pre) const {
    switch (store_.KindAt(pre)) {
      case NodeKind::kText:
      case NodeKind::kComment:
      case NodeKind::kPi:
        return store_.pools().ValueOf(store_.KindAt(pre),
                                      store_.RefAt(pre));
      case NodeKind::kElement: {
        std::string out;
        PreId end = pre + store_.SizeAt(pre);
        for (PreId p = store_.SkipHoles(pre + 1); p <= end;
             p = store_.SkipHoles(p + 1)) {
          if (store_.KindAt(p) == NodeKind::kText) {
            out += store_.pools().Text(store_.RefAt(p));
          }
        }
        return out;
      }
      default:
        return {};
    }
  }

  /// Value of the attribute matching `test` on element `pre`.
  std::optional<std::string> AttrValue(PreId pre,
                                       const NodeTest& test) const {
    if (store_.KindAt(pre) != NodeKind::kElement) return std::nullopt;
    if (test.kind == NodeTest::Kind::kName) {
      QnameId qn = store_.pools().FindQname(test.name);
      if (qn < 0) return std::nullopt;
      int32_t row = store_.attrs().FindByName(store_.AttrOwnerOf(pre), qn);
      if (row < 0) return std::nullopt;
      return store_.pools().Prop(store_.attrs().row(row).prop);
    }
    // @* : first attribute, if any.
    std::vector<int32_t> rows;
    store_.attrs().Lookup(store_.AttrOwnerOf(pre), &rows);
    if (rows.empty()) return std::nullopt;
    return store_.pools().Prop(store_.attrs().row(rows[0]).prop);
  }

 private:
  /// The evaluation loop over a lifted sequence (parameters reordered so
  /// that a braced context can only mean the entry point above).
  StatusOr<Seq> RunOps(const Plan& plan, Seq ctx, Literals bound,
                       std::vector<OpTrace>* trace) const {
    if (!plan.invalid_reason.empty()) {
      return Status::Unsupported(plan.invalid_reason);
    }
    for (size_t oi = 0; oi < plan.ops.size(); ++oi) {
      const PlanOp& op = plan.ops[oi];
      // Step-boundary semantics: an attribute-axis step errors even on
      // an empty context; any other step reached with an empty context
      // ends the path. Predicate operators run regardless (no-ops on
      // empty lists).
      const bool begins_step =
          op.kind != OpKind::kValueProbeGate &&
          op.kind != OpKind::kExistsFilter &&
          !(op.kind == OpKind::kPositionFilter && !op.per_origin);
      if (begins_step && !op.from_root) {
        if (op.step >= 0 &&
            plan.path.steps[static_cast<size_t>(op.step)].axis ==
                Axis::kAttribute) {
          return Status::Unsupported(
              "attribute axis yields no nodes; use EvalStrings");
        }
        if (ctx.empty()) break;
      }
      const int64_t est = BoundEstimate(plan, op, bound);
      if (trace == nullptr) {
        // Hot path: no timing, no strategy strings, no probe reads.
        PXQ_ASSIGN_OR_RETURN(ctx,
                             RunOp(plan, op, std::move(ctx), nullptr, bound));
        RecordEstError(est, static_cast<int64_t>(ctx.size()));
        continue;
      }
      OpTrace t;
      t.op = oi;
      t.in = static_cast<int64_t>(ctx.size());
      t.est = est;
      const int64_t probes_before = ProbesIssued();
      const auto t0 = std::chrono::steady_clock::now();
      PXQ_ASSIGN_OR_RETURN(ctx, RunOp(plan, op, std::move(ctx),
                                      &t.strategy, bound));
      t.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      t.index_probes = ProbesIssued() - probes_before;
      t.out = static_cast<int64_t>(ctx.size());
      RecordEstError(est, t.out);
      trace->push_back(std::move(t));
    }
    return ctx;
  }

  // --- compiled-operator dispatch -------------------------------------

  /// Strategy notes are only materialized when tracing (explain):
  /// the hot path passes a null sink and skips the string work.
  static void Note(std::string* s, const char* v) {
    if (s != nullptr) *s = v;
  }
  static void Note(std::string* s, std::string v) {
    if (s != nullptr) *s = std::move(v);
  }

  /// " over N iterations" for a lifted sequence's note, else "".
  static std::string Over(const Seq& s) {
    if (!s.lifted()) return "";
    size_t n = 1;
    for (size_t k = 1; k < s.size(); ++k) n += s.iter[k] != s.iter[k - 1];
    return " over " + std::to_string(n) + " iterations";
  }

  /// Explain's note on a sub-plan run lifted over `iters` iterations:
  /// that it ran once, then what each of its operators did.
  static std::string LiftedNote(size_t iters,
                                const std::vector<OpTrace>& sub) {
    std::string s = "lifted, once over " + std::to_string(iters) +
                    " iterations";
    for (size_t i = 0; i < sub.size(); ++i) {
      s += (i == 0 ? " {" : "; ") + sub[i].strategy;
    }
    return sub.empty() ? s : s + "}";
  }

  /// Why the cost gate was not even consulted / declined the probe, for
  /// explain's per-op gate-decision column. Only called when the index
  /// path returned unanswered.
  std::string GateDeclineWhy(int64_t scan_cost) const {
    if constexpr (kIndexable) {
      if (index_ == nullptr) return "gate: no index attached";
      if (!index_->config().enabled) return "gate: index disabled";
      return "gate declined: candidates > " +
             std::to_string(index::IndexManager::kGateRatio) + " * scan=" +
             std::to_string(scan_cost);
    }
    return "gate: store not indexable";
  }

  /// Feed the pxq_est_error histogram (|log2(act/est)|) when the
  /// compiler stamped an estimate on this operator.
  void RecordEstError(int64_t est, int64_t act) const {
    if constexpr (kIndexable) {
      if (est >= 0 && index_ != nullptr) {
        index_->RecordEstimateError(est, act);
      }
    }
  }

  /// The compiler's estimate for `op`, or -1 when it was made for a
  /// literal other than the bound one (a plan shared by its shape).
  static int64_t BoundEstimate(const Plan& plan, const PlanOp& op,
                               Literals bound) {
    if (op.est < 0 || bound.empty() ||
        (op.kind != OpKind::kValueProbeGate &&
         op.kind != OpKind::kFusedProbe)) {
      return op.est;
    }
    const Predicate& p = PredicateOf(plan, op);
    return p.param < 0 || LiteralOf(p, bound) == p.value ? op.est : -1;
  }

  /// Budget for a bucket only searched (AncestorIn): the gate accepts.
  static constexpr int64_t kNoBudget = std::numeric_limits<int64_t>::max();

  StatusOr<Seq> RunOp(const Plan& plan, const PlanOp& op, Seq ctx,
                      std::string* strategy, Literals bound) const {
    const auto& steps = plan.path.steps;
    switch (op.kind) {
      case OpKind::kRootSeed: {
        Seq out;
        if (op.step < 0) {
          out.pre.push_back(store_.Root());
          Note(strategy, "seed");
        } else {
          const Step& s = steps[static_cast<size_t>(op.step)];
          if (MatchTest(s.test, store_.Root(), op.qn)) {
            out.pre.push_back(store_.Root());
          }
          Note(strategy, "root test");
        }
        return out;
      }
      case OpKind::kChainProbe:
        return RunChainProbe(plan, op, strategy);
      case OpKind::kQnamePostings:
        if (op.from_root) ctx = RootSeq();  // or_self from the document
        return RunQnamePostings(steps[static_cast<size_t>(op.step)], op, ctx,
                                strategy);
      case OpKind::kChildStep:
        return ChildStep(steps[static_cast<size_t>(op.step)], op.ctx_qn,
                         op.qn, ctx, strategy);
      case OpKind::kDescendantStaircase: {
        const Step& s = steps[static_cast<size_t>(op.step)];
        if (strategy != nullptr) Note(strategy, "staircase scan" + Over(ctx));
        if (op.from_root) ctx = RootSeq();
        return ScanDescendants(s.test, op.qn, ctx, op.or_self);
      }
      case OpKind::kAxisScan: {
        if (strategy != nullptr) Note(strategy, "axis scan" + Over(ctx));
        return AxisScan(steps[static_cast<size_t>(op.step)], op.qn, ctx);
      }
      case OpKind::kValueProbeGate: {
        const int64_t scan_cost = static_cast<int64_t>(ctx.size());
        PXQ_ASSIGN_OR_RETURN(bool answered,
                             ApplyIndexPredicate(plan, op, &ctx, bound));
        if (strategy != nullptr) {
          Note(strategy, answered ? "index value probe [gate accepted vs "
                                    "scan=" + std::to_string(scan_cost) + "]"
                                  : "predicate scan [" +
                                        GateDeclineWhy(scan_cost) + "]");
        }
        if (answered) return ctx;
        return ScanFilterOne(plan, op, std::move(ctx), bound, strategy);
      }
      case OpKind::kFusedProbe:
        return RunFusedProbe(plan, op, strategy, bound);
      case OpKind::kPositionFilter: {
        if (!op.per_origin) {
          if (strategy != nullptr) {
            Note(strategy, "position filter" + Over(ctx));
          }
          return ScanFilterOne(plan, op, std::move(ctx), bound, nullptr);
        }
        // The step's body (axis op, then every predicate as a list
        // filter) runs once over the whole context, context pair j as
        // iteration j, so [k] and [last()] count per origin. Each
        // result pair then returns to its origin's iteration.
        std::vector<OpTrace> sub_trace;
        const size_t iters = ctx.size();
        PXQ_ASSIGN_OR_RETURN(
            Seq r, RunOps(SubOf(plan, op), Lift(std::move(ctx.pre)), bound,
                          strategy != nullptr ? &sub_trace : nullptr));
        if (strategy != nullptr) {
          Note(strategy, "per-origin step, " + LiftedNote(iters, sub_trace));
        }
        if (!ctx.lifted()) r.iter.clear();
        for (int32_t& i : r.iter) i = ctx.iter[static_cast<size_t>(i)];
        Normalize(&r);
        return r;
      }
      case OpKind::kExistsFilter:
        Note(strategy, "predicate scan");
        return ScanFilterOne(plan, op, std::move(ctx), bound, strategy);
    }
    return Status::Unsupported("unknown plan operator");
  }

  /// A descendant(-or-self) name step via the qname postings (one gated
  /// fetch for the whole context), staircase-merged against each
  /// iteration's context regions; the staircase scan when the gate
  /// declines.
  StatusOr<Seq> RunQnamePostings(const Step& s, const PlanOp& op,
                                 const Seq& ctx, std::string* strategy) const {
    if (op.qn < 0) {
      // A name test that never interned matches nothing anywhere: the
      // empty result is exact, no scan needed.
      Note(strategy, "empty (name never interned)");
      return Seq{};
    }
    const std::vector<PreId>* pres = nullptr;
    if constexpr (kIndexable) {
      if (index_ != nullptr) {
        pres = index_->ElementsByQname(store_, op.qn, RegionSpan(ctx));
      }
    }
    if (strategy != nullptr) {
      Note(strategy, (pres != nullptr ? "index postings (staircase merge)"
                                      : "staircase scan") +
                         Over(ctx));
    }
    if (pres == nullptr) {
      return ScanDescendants(s.test, op.qn, ctx, op.or_self);
    }
    Seq out = PerIteration(ctx, [&](const std::vector<PreId>& group) {
      std::vector<PreId> r;
      PreId scanned_to = -1;
      PrePos it = pres->begin();
      for (PreId c : group) {
        const PreId end = c + store_.SizeAt(c);
        if (end <= scanned_to) continue;  // covered: staircase pruning
        it = Seek(it, pres->end(), std::max(c, scanned_to) + 1);
        const PrePos stop = Seek(it, pres->end(), end + 1);
        r.insert(r.end(), it, stop);
        it = stop;
        scanned_to = end;
      }
      const size_t merged = r.size();
      for (size_t k = 0; op.or_self && k < group.size(); ++k) {
        if (MatchTest(s.test, group[k], op.qn)) r.push_back(group[k]);
      }
      if (r.size() > merged) Normalize(&r);
      return r;
    });
    if (CrossChecking()) {
      PXQ_RETURN_IF_ERROR(
          VerifyCrossCheck(ScanDescendants(s.test, op.qn, ctx, op.or_self),
                           out, "step " + ToString(s)));
    }
    return out;
  }

  /// Compiled pair cascade: one (parent, self) probe per level, each
  /// gated against the live span estimate and joined downward by the
  /// child join. Any decline falls back to the consumed prefix as child
  /// steps (per-step index plans still apply), and explain names the
  /// span the declining probe was gated against.
  StatusOr<Seq> RunChainProbe(const Plan& plan, const PlanOp& op,
                              std::string* strategy) const {
    // The scan cost the last gated probe was judged against.
    int64_t scan_cost = store_.SizeAt(store_.Root()) + 1;
    if constexpr (kIndexable) {
      if (index_ != nullptr) {
        bool answered = true;
        Seq res;
        if (!op.missing_name) {
          // Seed from the leading pair: a level filter pins its
          // candidates to their absolute level, gated against the
          // document span. Each later pair joins downward in level
          // order, gated against the surviving regions' span.
          const ChainProbeSpec& s0 = op.probes[0];
          auto c0 = index_->PathPairProbe(store_, s0.parent_qn, s0.self_qn,
                                          scan_cost);
          if (c0 == nullptr) {
            answered = false;
          } else {
            res.pre.reserve(c0->size());
            for (PreId p : *c0) {
              if (store_.LevelAt(p) == s0.abs_level) res.pre.push_back(p);
            }
            for (size_t i = 1; i < op.probes.size(); ++i) {
              if (res.empty()) break;  // empty result is exact
              const ChainProbeSpec& sp = op.probes[i];
              int64_t span = 0;
              for (PreId c : res.pre) span += store_.SizeAt(c) + 1;
              auto li = index_->PathPairProbe(store_, sp.parent_qn,
                                              sp.self_qn, span);
              if (li == nullptr) {
                answered = false;
                scan_cost = span;
                break;
              }
              res = JoinChildren(*li, res);
            }
          }
        }
        // A never-interned tag means no node matches the prefix: the
        // empty result is exact, no probe needed.
        if (answered) {
          if (CrossChecking()) {
            PXQ_ASSIGN_OR_RETURN(Seq scan,
                                 ChildNamePrefix(plan, op, /*scan=*/true));
            std::string what = "path prefix /";
            for (size_t i = 0; i < op.consumed; ++i) {
              if (i > 0) what += "/";
              what += plan.path.steps[i].test.name;
            }
            PXQ_RETURN_IF_ERROR(VerifyCrossCheck(scan, res, what));
          }
          if (strategy != nullptr) {
            Note(strategy,
                 op.missing_name
                     ? std::string("empty (name never interned)")
                     : "index cascade (" +
                           std::to_string(op.probes.size()) + " probes)");
          }
          return res;
        }
      }
    }
    Note(strategy, "stepwise fallback [" + GateDeclineWhy(scan_cost) + "]");
    return ChildNamePrefix(plan, op, /*scan=*/false);
  }

  /// Probe-order fusion (value-first): the compiler judged the fused
  /// value/attr posting far rarer than the structural candidate set, so
  /// probe the VALUE side over the whole document first, then verify
  /// each match structurally: its tag and absolute level, then its
  /// ancestors by AncestorIn searches in the prefix's pair buckets,
  /// O(depth · log bucket) per match whatever its position. Falls back
  /// to the stepwise prefix + predicate scan (exactly the unfused
  /// operator trio) when no index is attached or a gate declines.
  StatusOr<Seq> RunFusedProbe(const Plan& plan, const PlanOp& op,
                              std::string* strategy, Literals bound) const {
    const Predicate& pred = PredicateOf(plan, op);
    const std::string& literal = LiteralOf(pred, bound);
    if constexpr (kIndexable) {
      if (index_ != nullptr) {
        const int64_t doc_span = store_.SizeAt(store_.Root()) + 1;
        const int32_t level = op.fused_level;
        const size_t n = op.fused_anc.size();
        // Pair bucket of the fused step's ancestor k levels up (k = 0:
        // the step itself; parent -1 above the root). Only searched, so
        // fetched with no budget; null only when the index is disabled.
        auto bucket = [&](size_t k) {
          return index_->PathPairProbe(store_, k < n ? op.fused_anc[k] : -1,
                                       k == 0 ? op.qn : op.fused_anc[k - 1],
                                       kNoBudget);
        };
        bool answered = true;
        std::vector<PreId> owners;
        size_t verified = 0;  // ancestors whose tag a lookup has checked
        if (op.shape == PredShape::kAttr) {
          // A never-interned attr name matches nothing: empty, exact.
          if (op.attr_qn >= 0) {
            auto cand =
                pred.kind == Predicate::Kind::kExists
                    ? index_->AttrOwners(store_, op.attr_qn, doc_span)
                    : index_->AttrValueProbe(store_, op.attr_qn, pred.op,
                                             literal, doc_span);
            answered = cand.has_value();
            if (cand) owners = std::move(*cand);
            std::erase_if(owners, [&](PreId p) {
              return store_.KindAt(p) != NodeKind::kElement ||
                     store_.RefAt(p) != op.qn || store_.LevelAt(p) != level;
            });
          }
        } else if (op.child_qn >= 0) {  // PredShape::kChildValue
          std::vector<PreId> kids, complex_rest;
          if (pred.kind == Predicate::Kind::kExists) {
            auto cand = index_->ElementsByQname(store_, op.child_qn, doc_span);
            answered = cand != nullptr;
            if (cand != nullptr) kids = *cand;
          } else {
            answered = index_->ChildValueProbe(store_, op.child_qn, pred.op,
                                               literal, doc_span, &kids,
                                               &complex_rest);
          }
          // A child's owner: its ancestor at `level` in the step's own
          // bucket, which checks the owner's and its parent's tags.
          if (answered && (!kids.empty() || !complex_rest.empty())) {
            const std::vector<PreId>* self = bucket(0);
            answered = self != nullptr;
            verified = 1;
            auto owner_of = [&](PreId c) {
              return store_.LevelAt(c) == level + 1
                         ? AncestorIn(*self, c, level)
                         : PreId{-1};
            };
            std::vector<PreId> rest;
            for (size_t i = 0; answered && i < kids.size(); ++i) {
              if (PreId o = owner_of(kids[i]); o >= 0) owners.push_back(o);
            }
            for (size_t i = 0; answered && i < complex_rest.size(); ++i) {
              if (PreId o = owner_of(complex_rest[i]); o >= 0) {
                rest.push_back(o);
              }
            }
            // Owners of children whose value the index does not cover
            // (element content): one semi-join evaluates them exactly.
            Normalize(&rest);
            PXQ_ASSIGN_OR_RETURN(std::vector<char> hit,
                                 PredicateHolds(plan, op, rest, bound,
                                                nullptr));
            for (size_t i = 0; i < rest.size(); ++i) {
              if (hit[i]) owners.push_back(rest[i]);
            }
            Normalize(&owners);
          }
        }
        // The ancestor k levels up found in bucket(k) has the tags of
        // ancestors k and k + 1, so every other bucket covers the chain.
        for (size_t k = verified + 1; k <= n && answered && !owners.empty();
             k += 2) {
          const std::vector<PreId>* b = bucket(k);
          answered = b != nullptr;
          if (answered) KeepWithAncestorIn(&owners, *b, level - int32_t(k));
        }
        if (answered) {
          Seq out{std::move(owners), {}};
          if (CrossChecking()) {
            PXQ_ASSIGN_OR_RETURN(Seq scan,
                                 ChildNamePrefix(plan, op, /*scan=*/true));
            PXQ_ASSIGN_OR_RETURN(
                scan, ScanFilterOne(plan, op, std::move(scan), bound, nullptr));
            PXQ_RETURN_IF_ERROR(VerifyCrossCheck(
                scan, out,
                "fused value-first probe " + PredicateText(pred, bound) +
                    " (step " + std::to_string(op.step) + ")"));
          }
          Note(strategy, "fused value probe (value-first) [gate accepted "
                         "vs scan=" + std::to_string(doc_span) + "]");
          return out;
        }
      }
    }
    // Fallback: the consumed prefix as child steps, then the predicate
    // scan — the unfused operator trio. The step's OTHER predicates are
    // separate ops and must not be applied here.
    Note(strategy,
         "stepwise fallback [" +
             GateDeclineWhy(store_.SizeAt(store_.Root()) + 1) + "]");
    PXQ_ASSIGN_OR_RETURN(Seq ctx, ChildNamePrefix(plan, op, /*scan=*/false));
    return ScanFilterOne(plan, op, std::move(ctx), bound, nullptr);
  }

  /// Child step: the child join over the (context tag, tag) pair bucket
  /// when the compiler knows the context's tag (`ctx_qn` >= 0), else
  /// over the tag's qname postings, when the gate accepts the list
  /// against the contexts' span; else the child scan. A never-interned
  /// name matches nothing.
  StatusOr<Seq> ChildStep(const Step& s, QnameId ctx_qn, QnameId qn,
                          const Seq& ctx, std::string* strategy) const {
    const bool named = s.test.kind == NodeTest::Kind::kName;
    if (named && qn < 0) {
      Note(strategy, "empty (name never interned)");
      return Seq{};
    }
    int64_t span = 0;  // the gate's scan cost, read only with an index
    if constexpr (kIndexable) {
      if (index_ != nullptr && named) {
        span = RegionSpan(ctx);
        const std::vector<PreId>* list =
            ctx_qn >= 0 ? index_->PathPairProbe(store_, ctx_qn, qn, span)
                        : index_->ElementsByQname(store_, qn, span);
        if (list != nullptr) {
          Seq out = JoinChildren(*list, ctx);
          index_->NoteChildStepHit();
          if (CrossChecking()) {
            PXQ_RETURN_IF_ERROR(VerifyCrossCheck(
                ScanChildren(s.test, qn, ctx), out,
                "step " + ToString(s)));
          }
          if (strategy != nullptr) {
            *strategy = ctx_qn >= 0 ? "pair-bucket" : "qname-postings";
            *strategy += " child join" + Over(ctx) + " [gate accepted vs " +
                         "scan=" + std::to_string(span) + "]";
          }
          return out;
        }
      }
    }
    if (strategy != nullptr) {
      Note(strategy, "child scan" + Over(ctx) +
                         (named ? " [" + GateDeclineWhy(span) + "]" : ""));
    }
    return ScanChildren(s.test, qn, ctx);
  }

  /// The child-name prefix a from_root cascade consumes, one child step
  /// per level below the root test, with the names the compiler baked
  /// (the pair specs of a kChainProbe; the ancestor chain plus the
  /// fused step of a kFusedProbe). `scan` forces the child scan: the
  /// cross-check oracle. Otherwise the kChildStep logic: the stepwise
  /// fallback.
  StatusOr<Seq> ChildNamePrefix(const Plan& plan, const PlanOp& op,
                                bool scan) const {
    Seq ctx;
    if (op.missing_name) return ctx;  // a tag never interned: empty
    auto qn_at = [&](size_t i) {
      if (op.kind == OpKind::kFusedProbe) {
        const size_t n = op.fused_anc.size();
        return i < n ? op.fused_anc[n - 1 - i] : op.qn;
      }
      return i == 0 ? op.probes[0].parent_qn : op.probes[i - 1].self_qn;
    };
    const auto& steps = plan.path.steps;
    if (MatchTest(steps[0].test, store_.Root(), qn_at(0))) {
      ctx.pre.push_back(store_.Root());
    }
    for (size_t i = 1; i < op.consumed && !ctx.empty(); ++i) {
      if (scan) {
        ctx = ScanChildren(steps[i].test, qn_at(i), ctx);
      } else {
        PXQ_ASSIGN_OR_RETURN(
            ctx, ChildStep(steps[i], qn_at(i - 1), qn_at(i), ctx, nullptr));
      }
    }
    return ctx;
  }

  // --- shared machinery (scan paths, oracles, index probes) -----------

  bool MatchTest(const NodeTest& test, PreId p, QnameId qn) const {
    switch (test.kind) {
      case NodeTest::Kind::kName:
        return qn >= 0 && store_.KindAt(p) == NodeKind::kElement &&
               store_.RefAt(p) == qn;
      case NodeTest::Kind::kAnyName:
        return store_.KindAt(p) == NodeKind::kElement;
      case NodeTest::Kind::kText:
        return store_.KindAt(p) == NodeKind::kText;
      case NodeTest::Kind::kComment:
        return store_.KindAt(p) == NodeKind::kComment;
      case NodeTest::Kind::kAnyNode:
        return true;
    }
    return false;
  }

  // --- lifted sequences -------------------------------------------------

  /// The root element as a one-iteration sequence.
  Seq RootSeq() const { return Seq{{store_.Root()}, {}}; }

  /// The child join, the one kernel behind every child step over the
  /// index: emit(k, e) for each entry e of the sorted `list` (a pair
  /// bucket or qname postings) that is a child of context `ctx[k]`.
  /// Each context seeks from the current position (from the start when
  /// a new iteration begins lower) and keeps the entries at its level +
  /// 1 up to its region end: O(|ctx| · log |list| + entries in the
  /// regions); exact when contexts nest or a pre recurs across
  /// iterations.
  template <typename EmitFn>
  void ForEachChildIn(const std::vector<PreId>& list,
                      const std::vector<PreId>& ctx, EmitFn emit) const {
    PrePos from = list.begin();
    PreId prev = -1;
    for (size_t k = 0; k < ctx.size(); ++k) {
      const PreId c = ctx[k];
      if (c < prev) from = list.begin();
      prev = c;
      from = Seek(from, list.end(), c + 1);
      const PreId end = c + store_.SizeAt(c);
      if (from == list.end() || *from > end) continue;
      const int32_t level = store_.LevelAt(c) + 1;
      for (PrePos it = from; it != list.end() && *it <= end; ++it) {
        if (store_.LevelAt(*it) == level) emit(k, *it);
      }
    }
  }

  /// The child join as a sequence: each child in its context's
  /// iteration (sorted again only when contexts nest).
  Seq JoinChildren(const std::vector<PreId>& list, const Seq& ctx) const {
    Seq out;
    out.pre.reserve(ctx.size());
    if (ctx.lifted()) out.iter.reserve(ctx.size());
    ForEachChildIn(list, ctx.pre,
                   [&](size_t k, PreId e) { Emit(&out, ctx, k, e); });
    Normalize(&out);
    return out;
  }

  /// hit[k] for the contexts with a child in the sorted `list`.
  std::vector<char> WithChildIn(const Seq& ctx,
                                const std::vector<PreId>& list) const {
    std::vector<char> hit(ctx.size(), 0);
    ForEachChildIn(list, ctx.pre, [&](size_t k, PreId) { hit[k] = 1; });
    return hit;
  }

  /// The non-child, non-descendant axes: pure scans over ancestors,
  /// siblings, and document-order staircases, one iteration at a time.
  StatusOr<Seq> AxisScan(const Step& step, QnameId qn,
                         const Seq& ctx) const {
    switch (step.axis) {
      case Axis::kChild:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kAttribute:
        // Compiled to their own operators; RunOps rejects attribute
        // steps before they run.
        return Status::Unsupported("axis is not an axis-scan axis");
      default:
        break;
    }
    if (step.test.kind == NodeTest::Kind::kName && qn < 0) return Seq{};
    return PerIteration(ctx, [&](const std::vector<PreId>& group) {
      return ScanAxis(step, qn, group);
    });
  }

  std::vector<PreId> ScanAxis(const Step& step, QnameId qn,
                              const std::vector<PreId>& ctx) const {
    std::vector<PreId> out;
    auto keep = [&](PreId p) {
      if (MatchTest(step.test, p, qn)) out.push_back(p);
    };
    switch (step.axis) {
      case Axis::kSelf:
        for (PreId c : ctx) keep(c);
        break;
      case Axis::kParent: {
        for (PreId c : ctx) {
          auto chain = DescendToAncestors(store_, c);
          if (!chain.empty()) keep(chain.back());
        }
        Normalize(&out);
        break;
      }
      case Axis::kAncestor:
      case Axis::kAncestorOrSelf: {
        for (PreId c : ctx) {
          for (PreId a : DescendToAncestors(store_, c)) keep(a);
          if (step.axis == Axis::kAncestorOrSelf) keep(c);
        }
        Normalize(&out);
        break;
      }
      case Axis::kFollowing:
        for (PreId p : StaircaseFollowing(store_, ctx)) keep(p);
        break;
      case Axis::kPreceding:
        for (PreId p : StaircasePreceding(store_, ctx)) keep(p);
        break;
      case Axis::kFollowingSibling:
        for (PreId c : ctx) ForEachFollowingSibling(store_, c, keep);
        Normalize(&out);
        break;
      case Axis::kPrecedingSibling: {
        for (PreId c : ctx) {
          auto chain = DescendToAncestors(store_, c);
          if (chain.empty()) continue;
          ForEachChild(store_, chain.back(), [&](PreId s) {
            if (s < c) keep(s);
          });
        }
        Normalize(&out);
        break;
      }
      default:  // AxisScan rejected the rest
        break;
    }
    return out;
  }

  static const Predicate& PredicateOf(const Plan& plan, const PlanOp& op) {
    return plan.path.steps[static_cast<size_t>(op.step)]
        .predicates[static_cast<size_t>(op.pred)];
  }
  static const Plan& SubOf(const Plan& plan, const PlanOp& op) {
    return plan.subs[static_cast<size_t>(op.sub)];
  }

  /// A predicate op over a candidate sequence, scan path (also the
  /// cross-check oracle for the index path). A positional predicate
  /// counts within each iteration; an exists/compare predicate is a
  /// semi-join over one lifted run of its sub-plan. `strategy` (when
  /// tracing) gets the semi-join's note appended.
  StatusOr<Seq> ScanFilterOne(const Plan& plan, const PlanOp& op,
                              Seq nodes, Literals bound,
                              std::string* strategy) const {
    const Predicate& pred = PredicateOf(plan, op);
    if (pred.kind == Predicate::Kind::kExists ||
        pred.kind == Predicate::Kind::kCompare) {
      PXQ_ASSIGN_OR_RETURN(std::vector<char> hit,
                           PredicateHolds(plan, op, nodes.pre, bound,
                                          strategy));
      KeepHits(&nodes, hit);
      return nodes;
    }
    std::vector<char> hit(nodes.size(), 0);
    for (size_t b = 0, e = 0; b < nodes.size(); b = e) {
      e = nodes.IterEnd(b);
      const auto len = static_cast<int64_t>(e - b);
      const int64_t at =
          pred.kind == Predicate::Kind::kLast ? len : pred.position;
      if (at >= 1 && at <= len) hit[b + static_cast<size_t>(at) - 1] = 1;
    }
    KeepHits(&nodes, hit);
    return nodes;
  }

  /// An exists/compare predicate on each candidate, as one semi-join:
  /// the sub-plan runs once, lifted, candidate i as iteration i, and
  /// hit[i] says whether some pair (i, node) exists (owning the
  /// split-off attribute, if any) or compares true.
  StatusOr<std::vector<char>> PredicateHolds(const Plan& plan,
                                             const PlanOp& op,
                                             std::vector<PreId> cand,
                                             Literals bound,
                                             std::string* strategy) const {
    std::vector<char> hit(cand.size(), 0);
    if (cand.empty()) return hit;
    const Predicate& pred = PredicateOf(plan, op);
    const Plan& sub = SubOf(plan, op);
    const std::optional<Step>& attr_step = sub.trailing_attr;
    std::vector<OpTrace> sub_trace;
    const size_t iters = cand.size();
    PXQ_ASSIGN_OR_RETURN(
        Seq r, RunOps(sub, Lift(std::move(cand)), bound,
                      strategy != nullptr ? &sub_trace : nullptr));
    for (size_t k = 0; k < r.size(); ++k) {
      char& h = hit[static_cast<size_t>(r.iter[k])];
      if (h) continue;
      const PreId p = r.pre[k];
      if (pred.kind == Predicate::Kind::kExists) {
        h = !attr_step || AttrValue(p, attr_step->test).has_value();
        continue;
      }
      // kCompare: existential comparison.
      const std::optional<std::string> v =
          attr_step ? AttrValue(p, attr_step->test)
                    : std::optional<std::string>(StringValue(p));
      h = v && detail::CompareValues(*v, pred.op, LiteralOf(pred, bound));
    }
    if (strategy != nullptr) {
      *strategy += ", semi-join " + LiftedNote(iters, sub_trace);
    }
    return hit;
  }

  /// Scan-path descendant(-or-self) name/test matching over a context:
  /// the fallback when the index declines AND the cross-check oracle —
  /// one implementation so the two can never drift apart. With
  /// `or_self` the context nodes themselves are also tested (for the
  /// leading step of an absolute path the conceptual context is the
  /// document node, so pass the root with or_self=true).
  Seq ScanDescendants(const NodeTest& test, QnameId qn, const Seq& ctx,
                      bool or_self) const {
    return PerIteration(ctx, [&](const std::vector<PreId>& group) {
      return ScanDescendants(test, qn, group, or_self);
    });
  }

  /// One iteration's descendant scan (outside the lambda above: in its
  /// body a top-level scan measured about 15% slower).
  std::vector<PreId> ScanDescendants(const NodeTest& test, QnameId qn,
                                     const std::vector<PreId>& ctx,
                                     bool or_self) const {
    std::vector<PreId> out;
    for (size_t k = 0; or_self && k < ctx.size(); ++k) {
      if (MatchTest(test, ctx[k], qn)) out.push_back(ctx[k]);
    }
    for (PreId p : StaircaseDescendant(store_, ctx)) {
      if (MatchTest(test, p, qn)) out.push_back(p);
    }
    Normalize(&out);
    return out;
  }

  /// Scan-path child step: the fallback when the index declines AND the
  /// cross-check oracle for the child join.
  Seq ScanChildren(const NodeTest& test, QnameId qn, const Seq& ctx) const {
    Seq out;
    out.pre.reserve(ctx.size());
    if (ctx.lifted()) out.iter.reserve(ctx.size());
    for (size_t k = 0; k < ctx.size(); ++k) {
      const PreId c = ctx.pre[k];
      ForEachChild(store_, c, [&](PreId p) {
        if (MatchTest(test, p, qn)) Emit(&out, ctx, k, p);
      });
    }
    Normalize(&out);
    return out;
  }

  // --- index-aware execution ------------------------------------------

  bool CrossChecking() const {
    if constexpr (kIndexable) {
      return index_ != nullptr && index_->config().cross_check;
    }
    return false;
  }

  /// Total index probes issued so far (all families); deltas around an
  /// operator attribute its probes in the trace. Only read when tracing.
  int64_t ProbesIssued() const {
    if constexpr (kIndexable) {
      if (index_ != nullptr) return index_->ProbesIssued();
    }
    return 0;
  }

  /// Cross-check failure report: which step diverged and which (iter,
  /// node) pairs only one side produced, so a mismatch is debuggable
  /// from the Status alone instead of reproducing the query under a
  /// debugger.
  Status VerifyCrossCheck(const Seq& scan, const Seq& indexed,
                          const std::string& what) const {
    if constexpr (kIndexable) {
      if (scan.pre != indexed.pre || scan.iter != indexed.iter) {
        index_->NoteCrossCheckMismatch();
        using Pair = std::pair<int32_t, PreId>;
        auto pairs = [](const Seq& s) {
          std::vector<Pair> v;
          for (size_t k = 0; k < s.size(); ++k) {
            v.emplace_back(s.lifted() ? s.iter[k] : 0, s.pre[k]);
          }
          std::sort(v.begin(), v.end());
          return v;
        };
        auto list_only = [&](const std::vector<Pair>& a,
                             const std::vector<Pair>& b) {
          std::vector<Pair> only;
          std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(only));
          std::string s;
          const size_t show = std::min<size_t>(only.size(), 4);
          for (size_t i = 0; i < show; ++i) {
            if (i > 0) s += ", ";
            s += "pre " + std::to_string(only[i].second) + " (node " +
                 std::to_string(store_.NodeAt(only[i].second)) + ")";
            if (scan.lifted() || indexed.lifted()) {
              s += " in iter " + std::to_string(only[i].first);
            }
          }
          if (only.size() > show) {
            s += ", +" + std::to_string(only.size() - show) + " more";
          }
          return s.empty() ? std::string("none") : s;
        };
        const std::vector<Pair> a = pairs(scan), b = pairs(indexed);
        return Status::Corruption(
            "index/scan divergence on " + what + ": scan=" +
            std::to_string(scan.size()) + " nodes, index=" +
            std::to_string(indexed.size()) + " nodes; scan-only=[" +
            list_only(a, b) + "]; index-only=[" + list_only(b, a) + "]");
      }
    }
    return Status::OK();
  }

  /// Index path for a gate op's compile-time predicate shape: one gated
  /// probe for the whole candidate sequence, then a merge against it
  /// (the child join for the child shapes). Returns true (and filters
  /// *nodes) when the index answered; false defers to the scan.
  StatusOr<bool> ApplyIndexPredicate(const Plan& plan, const PlanOp& op,
                                     Seq* nodes, Literals bound) const {
    if constexpr (kIndexable) {
      if (index_ == nullptr || nodes->empty()) return false;
      const Predicate& pred = PredicateOf(plan, op);
      const std::string& literal = LiteralOf(pred, bound);
      const bool exists = pred.kind == Predicate::Kind::kExists;
      const QnameId child_qn = op.child_qn;
      const QnameId attr_qn = op.attr_qn;
      // Names never interned match nothing.
      std::vector<char> hit(nodes->size(), 0);
      int64_t span = 0;
      if (op.shape != PredShape::kAttr) {
        for (PreId c : nodes->pre) span += store_.SizeAt(c) + 1;
      }
      if (op.shape == PredShape::kAttr) {
        // [@a] / [@a op lit]: the context node owns the attribute.
        if (attr_qn >= 0) {
          const auto scan_cost = static_cast<int64_t>(nodes->size());
          auto cand = exists ? index_->AttrOwners(store_, attr_qn, scan_cost)
                             : index_->AttrValueProbe(store_, attr_qn,
                                                      pred.op, literal,
                                                      scan_cost);
          if (!cand) return false;
          hit = Members(*nodes, *cand);
        }
      } else if (op.shape == PredShape::kChildValue) {
        // [name] / [name op lit]: a child with that tag (satisfying the
        // comparison).
        if (child_qn >= 0 && exists) {
          auto cand = index_->ElementsByQname(store_, child_qn, span);
          if (!cand) return false;
          hit = WithChildIn(*nodes, *cand);
        } else if (child_qn >= 0) {
          std::vector<PreId> simple, complex_rest;
          if (!index_->ChildValueProbe(store_, child_qn, pred.op, literal,
                                       span, &simple, &complex_rest)) {
            return false;
          }
          hit = WithChildIn(*nodes, simple);
          // Candidates whose child's value the index does not cover
          // (element content): one semi-join evaluates them exactly.
          const std::vector<char> complex = WithChildIn(*nodes, complex_rest);
          std::vector<size_t> at;
          std::vector<PreId> rest;
          for (size_t k = 0; k < nodes->size(); ++k) {
            if (hit[k] || !complex[k]) continue;
            at.push_back(k);
            rest.push_back(nodes->pre[k]);
          }
          PXQ_ASSIGN_OR_RETURN(
              std::vector<char> ok,
              PredicateHolds(plan, op, std::move(rest), bound, nullptr));
          for (size_t i = 0; i < at.size(); ++i) hit[at[i]] = ok[i];
        }
      } else if (child_qn >= 0 && attr_qn >= 0) {
        // [name/@a] / [name/@a op lit]: a child with that tag owning a
        // (matching) attribute.
        auto cand = exists ? index_->AttrOwners(store_, attr_qn, span)
                           : index_->AttrValueProbe(store_, attr_qn, pred.op,
                                                    literal, span);
        if (!cand) return false;
        std::vector<PreId> named;
        for (PreId p : *cand) {
          if (store_.RefAt(p) == child_qn) named.push_back(p);
        }
        hit = WithChildIn(*nodes, named);
      }

      if (CrossChecking()) {
        PXQ_ASSIGN_OR_RETURN(Seq scan,
                             ScanFilterOne(plan, op, *nodes, bound, nullptr));
        Seq kept = *nodes;
        KeepHits(&kept, hit);
        PXQ_RETURN_IF_ERROR(VerifyCrossCheck(
            scan, kept, "predicate " + PredicateText(pred, bound)));
      }
      KeepHits(nodes, hit);
      return true;
    }
    return false;
  }

  /// The deduplicated span of each iteration's context regions: the
  /// tuples a staircase scan over them would walk (the gate's scan
  /// cost).
  int64_t RegionSpan(const Seq& ctx) const {
    int64_t span = 0;
    PreId scanned_to = -1, prev = -1;
    for (PreId c : ctx.pre) {
      if (c < prev) scanned_to = -1;  // the next iteration starts over
      prev = c;
      const PreId end = c + store_.SizeAt(c);
      if (end <= scanned_to) continue;
      span += end - std::max(c, scanned_to);
      scanned_to = end;
    }
    return span;
  }

  /// The entry of a sorted pair bucket that is `c`'s ancestor(-or-self)
  /// at `level`, else -1. Same-level regions are disjoint, so only the
  /// nearest `level` entry before `c` can contain it; an entry above
  /// `level` ends the walk (the wanted ancestor would come after it).
  PreId AncestorIn(const std::vector<PreId>& bucket, PreId c,
                   int32_t level) const {
    for (auto it = std::upper_bound(bucket.begin(), bucket.end(), c);
         it != bucket.begin();) {
      const PreId e = *--it;
      const int32_t l = store_.LevelAt(e);
      if (l < level) break;
      if (l == level) return c <= e + store_.SizeAt(e) ? e : -1;
    }
    return -1;
  }

  /// Keep the sorted `nodes` whose ancestor at `level` is in `bucket`;
  /// only the first node of a run under one ancestor searches.
  void KeepWithAncestorIn(std::vector<PreId>* nodes,
                          const std::vector<PreId>& bucket,
                          int32_t level) const {
    size_t kept = 0;
    PreId a = -1, end = -1;  // the last ancestor found, its region end
    for (PreId c : *nodes) {
      if (c <= a || c > end) {
        a = AncestorIn(bucket, c, level);
        end = a < 0 ? -1 : a + store_.SizeAt(a);
      }
      if (a >= 0) (*nodes)[kept++] = c;
    }
    nodes->resize(kept);
  }

  const Store& store_;
  const index::IndexManager* index_ = nullptr;
};

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_EXECUTOR_H_
