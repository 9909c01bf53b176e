// Stage 3 of the query pipeline: execute a compiled Plan (plan.h)
// against a store + published index snapshot. Templated on the store
// type so both schemas run identical plans (see staircase.h);
// loop-lifted: every operator maps a sorted context sequence to a
// sorted result sequence.
//
// Strategy selection happened at compile time (compiler.h); what stays
// adaptive here is exactly the run-time-stat-dependent part: each
// index-capable operator consults the cost gate with the live scan
// estimate and falls back to its baked scan strategy when the gate
// declines (or when no index is attached — a plan compiled for an
// indexed database executes correctly inside an index-less transaction
// clone). With IndexConfig::cross_check set, every index-answered
// operator is replayed on the scan path operator-by-operator and a
// divergence fails the query with Corruption, reporting the diverging
// operator and the node ids only one side found.
//
// The executor also owns the interpretive core (EvalStep/EvalRelative):
// predicate relative paths, per-origin positional steps, and declined
// pair cascades evaluate step-by-step through the same scan/index
// helpers, so the compiled and interpreted paths can never drift apart.
#ifndef PXQ_XPATH_EXECUTOR_H_
#define PXQ_XPATH_EXECUTOR_H_

#include <algorithm>
#include <chrono>
#include <iterator>
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

  /// Execute a plan's operators. For absolute plans the incoming
  /// context is ignored (the leading operator seeds from the root);
  /// relative plans start from `ctx`. With `trace` set, one OpTrace per
  /// executed operator records the strategy actually taken.
  StatusOr<std::vector<PreId>> RunOps(const Plan& plan,
                                      std::vector<PreId> ctx,
                                      std::vector<OpTrace>* trace =
                                          nullptr) const {
    if (!plan.invalid_reason.empty()) {
      return Status::Unsupported(plan.invalid_reason);
    }
    for (size_t oi = 0; oi < plan.ops.size(); ++oi) {
      const PlanOp& op = plan.ops[oi];
      // Step-boundary semantics, mirroring the interpretive loop: an
      // attribute-axis step errors even on an empty context; any other
      // step reached with an empty context ends the path. Predicate
      // operators run regardless (no-ops on empty lists).
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
      if (trace == nullptr) {
        // Hot path: no timing, no strategy strings, no probe reads.
        PXQ_ASSIGN_OR_RETURN(ctx, RunOp(plan, op, std::move(ctx), nullptr));
        RecordEstError(op.est, static_cast<int64_t>(ctx.size()));
        continue;
      }
      OpTrace t;
      t.op = oi;
      t.in = static_cast<int64_t>(ctx.size());
      t.est = op.est;
      const int64_t probes_before = ProbesIssued();
      const auto t0 = std::chrono::steady_clock::now();
      PXQ_ASSIGN_OR_RETURN(ctx, RunOp(plan, op, std::move(ctx),
                                      &t.strategy));
      t.wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
      t.index_probes = ProbesIssued() - probes_before;
      t.out = static_cast<int64_t>(ctx.size());
      RecordEstError(op.est, t.out);
      trace->push_back(std::move(t));
    }
    return ctx;
  }

  // --- interpretive core (also public API surface of the façade) ------

  /// One step over a context sequence (axis + predicates).
  StatusOr<std::vector<PreId>> EvalStep(const Step& step,
                                        const std::vector<PreId>& ctx) const {
    bool positional = false;
    for (const Predicate& p : step.predicates) {
      if (p.kind == Predicate::Kind::kPosition ||
          p.kind == Predicate::Kind::kLast) {
        positional = true;
      }
    }
    std::vector<PreId> out;
    if (positional) {
      // Positional predicates are relative to each origin's result list.
      for (PreId c : ctx) {
        PXQ_ASSIGN_OR_RETURN(std::vector<PreId> cand,
                             AxisNodes(step, {c}));
        PXQ_RETURN_IF_ERROR(FilterPredicates(step, &cand));
        out.insert(out.end(), cand.begin(), cand.end());
      }
      Normalize(&out);
    } else {
      PXQ_ASSIGN_OR_RETURN(out, AxisNodes(step, ctx));
      PXQ_RETURN_IF_ERROR(FilterPredicates(step, &out));
    }
    return out;
  }

  /// Step-by-step evaluation of a relative step list (predicate paths,
  /// declined-cascade fallback).
  StatusOr<std::vector<PreId>> EvalRelative(const std::vector<Step>& steps,
                                            std::vector<PreId> ctx) const {
    for (const Step& step : steps) {
      if (step.axis == Axis::kAttribute) {
        return Status::Unsupported(
            "attribute axis yields no nodes; use EvalStrings");
      }
      if (ctx.empty()) break;
      PXQ_ASSIGN_OR_RETURN(ctx, EvalStep(step, ctx));
    }
    return ctx;
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
  // --- compiled-operator dispatch -------------------------------------

  /// Strategy notes are only materialized when tracing (explain):
  /// the hot path passes a null sink and skips the string work.
  static void Note(std::string* s, const char* v) {
    if (s != nullptr) *s = v;
  }
  static void Note(std::string* s, std::string v) {
    if (s != nullptr) *s = std::move(v);
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
    } else {
      (void)scan_cost;
      return "gate: store not indexable";
    }
  }

  /// Feed the pxq_est_error histogram (|log2(act/est)|) when the
  /// compiler stamped an estimate on this operator.
  void RecordEstError(int64_t est, int64_t act) const {
    if constexpr (kIndexable) {
      if (est >= 0 && index_ != nullptr) {
        index_->RecordEstimateError(est, act);
      }
    } else {
      (void)est;
      (void)act;
    }
  }


  StatusOr<std::vector<PreId>> RunOp(const Plan& plan, const PlanOp& op,
                                     std::vector<PreId> ctx,
                                     std::string* strategy) const {
    const auto& steps = plan.path.steps;
    switch (op.kind) {
      case OpKind::kRootSeed: {
        std::vector<PreId> out;
        if (op.step < 0) {
          out.push_back(store_.Root());
          Note(strategy, "seed");
        } else {
          const Step& s = steps[static_cast<size_t>(op.step)];
          if (MatchTest(s.test, store_.Root(), op.qn)) {
            out.push_back(store_.Root());
          }
          Note(strategy, "root test");
        }
        return out;
      }
      case OpKind::kChainProbe:
        return RunChainProbe(plan, op, strategy);
      case OpKind::kQnamePostings:
        return RunQnamePostings(steps[static_cast<size_t>(op.step)], op,
                                std::move(ctx), strategy);
      case OpKind::kChildStep: {
        const Step& s = steps[static_cast<size_t>(op.step)];
        if (s.test.kind == NodeTest::Kind::kName && op.qn < 0) {
          Note(strategy, "empty (name never interned)");
          return std::vector<PreId>{};
        }
        std::vector<PreId> out;
        PXQ_ASSIGN_OR_RETURN(bool answered,
                             IndexChildStep(s, ctx, op.qn, &out));
        if (answered) {
          Note(strategy, "index postings (region/level filter)");
        } else {
          out = ScanChildren(s.test, op.qn, ctx);
          Note(strategy, "child scan");
        }
        return out;
      }
      case OpKind::kDescendantStaircase: {
        const Step& s = steps[static_cast<size_t>(op.step)];
        Note(strategy, "staircase scan");
        if (op.from_root) {
          return ScanDescendants(s.test, op.qn, {store_.Root()},
                                 /*or_self=*/true);
        }
        return ScanDescendants(s.test, op.qn, ctx, op.or_self);
      }
      case OpKind::kAxisScan: {
        const Step& s = steps[static_cast<size_t>(op.step)];
        Note(strategy, "axis scan");
        return AxisScan(s, op.qn, ctx);
      }
      case OpKind::kValueProbeGate: {
        const Step& s = steps[static_cast<size_t>(op.step)];
        const Predicate& pred = s.predicates[static_cast<size_t>(op.pred)];
        const int64_t scan_cost = static_cast<int64_t>(ctx.size());
        PXQ_ASSIGN_OR_RETURN(
            bool answered,
            ApplyIndexPredicate(op.shape, op.child_qn, op.attr_qn, pred,
                                &ctx));
        if (answered) {
          Note(strategy, "index value probe [gate accepted vs scan=" +
                             std::to_string(scan_cost) + "]");
          return ctx;
        }
        Note(strategy, "predicate scan [" + GateDeclineWhy(scan_cost) + "]");
        return ScanFilterOne(pred, ctx);
      }
      case OpKind::kFusedProbe:
        return RunFusedProbe(plan, op, strategy);
      case OpKind::kPositionFilter: {
        const Step& s = steps[static_cast<size_t>(op.step)];
        if (op.per_origin) {
          Note(strategy, "per-origin axis + predicates");
          return EvalStep(s, ctx);
        }
        Note(strategy, "position filter");
        return ScanFilterOne(s.predicates[static_cast<size_t>(op.pred)],
                             ctx);
      }
      case OpKind::kExistsFilter: {
        const Step& s = steps[static_cast<size_t>(op.step)];
        Note(strategy, "predicate scan");
        return ScanFilterOne(s.predicates[static_cast<size_t>(op.pred)],
                             ctx);
      }
    }
    return Status::Unsupported("unknown plan operator");
  }

  /// Leading descendant name step (from the document node) or an
  /// interior descendant name step, via qname postings with staircase
  /// merge; scan fallback when the gate declines.
  StatusOr<std::vector<PreId>> RunQnamePostings(const Step& s,
                                                const PlanOp& op,
                                                std::vector<PreId> ctx,
                                                std::string* strategy) const {
    if (op.from_root) {
      std::vector<PreId> out;
      if constexpr (kIndexable) {
        if (index_ != nullptr && op.qn >= 0) {
          auto pres =
              index_->ElementsByQname(store_, op.qn, store_.used_count());
          if (pres != nullptr) {
            out = *pres;
            Note(strategy, "index postings");
            if (CrossChecking()) {
              PXQ_RETURN_IF_ERROR(VerifyCrossCheck(
                  ScanDescendants(s.test, op.qn, {store_.Root()},
                                  /*or_self=*/true),
                  out, "absolute step /" + DescribeStep(s)));
            }
            return out;
          }
        }
      }
      if (op.qn < 0) {
        // A name test that never interned matches nothing anywhere:
        // the empty result is exact, no scan needed.
        Note(strategy, "empty (name never interned)");
        return std::vector<PreId>{};
      }
      Note(strategy, "staircase scan");
      return ScanDescendants(s.test, op.qn, {store_.Root()},
                             /*or_self=*/true);
    }
    if (op.qn < 0) {
      Note(strategy, "empty (name never interned)");
      return std::vector<PreId>{};
    }
    std::vector<PreId> out;
    PXQ_ASSIGN_OR_RETURN(bool answered,
                         IndexDescendantStep(s, ctx, op.qn, op.or_self,
                                             &out));
    if (answered) {
      Note(strategy, "index postings (staircase merge)");
    } else {
      out = ScanDescendants(s.test, op.qn, ctx, op.or_self);
      Note(strategy, "staircase scan");
    }
    return out;
  }

  /// Compiled pair cascade: one (parent, self) probe per level, each
  /// gated against the live span estimate. Any decline falls back to
  /// step-by-step evaluation of the consumed prefix (which still uses
  /// the per-step index plans, exactly like the interpreter did).
  StatusOr<std::vector<PreId>> RunChainProbe(const Plan& plan,
                                             const PlanOp& op,
                                             std::string* strategy) const {
    const auto& steps = plan.path.steps;
    if constexpr (kIndexable) {
      if (index_ != nullptr) {
        bool answered = true;
        std::vector<PreId> res;
        if (!op.missing_name) {
          // Seed from the leading pair, or — when the compiler
          // cost-ordered the cascade — from the estimated-rarest spec
          // (exec_order[0]); a level filter pins the seed's candidates
          // to their absolute level, gated against the document span.
          // Specs ABOVE the seed then verify by containment merge:
          // probe their (larger) buckets with an unbounded budget — the
          // merge is one linear pass over bucket + survivors, always
          // cheaper than the O(doc) scan fallback, so no gate applies —
          // and keep survivors with a bucket member as their
          // fixed-depth ancestor. The pairs tile every level above the
          // seed, so the merges verify the whole prefix. Specs DEEPER
          // than the seed join downward in level order, each gated
          // against the surviving regions' span.
          const ChainProbeSpec& s0 =
              op.probes[op.exec_order.empty() ? 0 : op.exec_order[0]];
          const int64_t doc_span = store_.SizeAt(store_.Root()) + 1;
          auto c0 = index_->PathPairProbe(store_, s0.parent_qn, s0.self_qn,
                                          doc_span);
          if (c0 == nullptr) {
            answered = false;
          } else {
            res.reserve(c0->size());
            for (PreId p : *c0) {
              if (store_.LevelAt(p) == s0.abs_level) res.push_back(p);
            }
            for (const ChainProbeSpec& sp : op.probes) {
              if (sp.abs_level >= s0.abs_level) continue;
              if (res.empty()) break;  // empty result is exact
              auto ui = index_->PathPairProbe(store_, sp.parent_qn,
                                              sp.self_qn, doc_span);
              if (ui == nullptr) {
                answered = false;
                break;
              }
              res = KeepDescendantsAtDepth(res, *ui,
                                           s0.abs_level - sp.abs_level);
            }
            int32_t cur_level = s0.abs_level;
            for (const ChainProbeSpec& sp : op.probes) {
              if (!answered) break;
              if (sp.abs_level <= s0.abs_level) continue;
              if (res.empty()) break;  // empty result is exact
              int64_t span = 0;
              for (PreId c : res) span += store_.SizeAt(c) + 1;
              auto li = index_->PathPairProbe(store_, sp.parent_qn,
                                              sp.self_qn, span);
              if (li == nullptr) {
                answered = false;
                break;
              }
              res = KeepDescendantsAtDepth(*li, res,
                                           sp.abs_level - cur_level);
              cur_level = sp.abs_level;
            }
          }
        }
        // A never-interned tag means no node matches the prefix: the
        // empty result is exact, no probe needed.
        if (answered) {
          if (CrossChecking()) {
            std::vector<PreId> scan;
            {
              QnameId q0 = store_.pools().FindQname(steps[0].test.name);
              if (MatchTest(steps[0].test, store_.Root(), q0)) {
                scan.push_back(store_.Root());
              }
              for (size_t i = 1; i < op.consumed; ++i) {
                QnameId qi = store_.pools().FindQname(steps[i].test.name);
                scan = ScanChildren(steps[i].test, qi, scan);
              }
            }
            std::string what = "path prefix /";
            for (size_t i = 0; i < op.consumed; ++i) {
              if (i > 0) what += "/";
              what += steps[i].test.name;
            }
            PXQ_RETURN_IF_ERROR(VerifyCrossCheck(scan, res, what));
          }
          if (strategy != nullptr) {
            Note(strategy,
                 op.missing_name
                     ? std::string("empty (name never interned)")
                     : "index cascade (" +
                           std::to_string(op.probes.size()) + " probes)" +
                           (op.exec_order.empty() ? "" : " [cost order]"));
          }
          return res;
        }
      }
    }
    // Fallback: the leading child-name step seeds from the root, the
    // rest evaluates step-by-step (per-step index plans still apply).
    Note(strategy,
         "stepwise fallback [" +
             GateDeclineWhy(store_.SizeAt(store_.Root()) + 1) + "]");
    std::vector<PreId> ctx;
    QnameId q0 = store_.pools().FindQname(steps[0].test.name);
    if (MatchTest(steps[0].test, store_.Root(), q0)) {
      ctx.push_back(store_.Root());
    }
    for (size_t i = 1; i < op.consumed && !ctx.empty(); ++i) {
      PXQ_ASSIGN_OR_RETURN(ctx, EvalStep(steps[i], ctx));
    }
    return ctx;
  }

  /// Probe-order fusion (value-first): the compiler judged the fused
  /// value/attr posting far rarer than the structural candidate set, so
  /// probe the VALUE side over the whole document first, then verify
  /// each match structurally — element tag, absolute level, and the
  /// root-anchored ancestor tag chain. Falls back to the stepwise
  /// prefix + predicate scan (exactly the unfused operator trio) when
  /// no index is attached or a gate declines.
  StatusOr<std::vector<PreId>> RunFusedProbe(const Plan& plan,
                                             const PlanOp& op,
                                             std::string* strategy) const {
    const auto& steps = plan.path.steps;
    const Predicate& pred = steps[static_cast<size_t>(op.step)]
                                .predicates[static_cast<size_t>(op.pred)];
    if constexpr (kIndexable) {
      if (index_ != nullptr) {
        const int64_t doc_span = store_.SizeAt(store_.Root()) + 1;
        bool answered = true;
        std::vector<PreId> owners;
        if (op.shape == PredShape::kAttr) {
          // A never-interned attr name matches nothing: empty, exact.
          if (op.attr_qn >= 0) {
            auto cand =
                pred.kind == Predicate::Kind::kExists
                    ? index_->AttrOwners(store_, op.attr_qn, doc_span)
                    : index_->AttrValueProbe(store_, op.attr_qn, pred.op,
                                             pred.value, doc_span);
            if (!cand) {
              answered = false;
            } else {
              owners = std::move(*cand);
            }
          }
        } else {  // PredShape::kChildValue
          if (op.child_qn >= 0) {
            std::vector<PreId> kids, complex_rest;
            if (pred.kind == Predicate::Kind::kExists) {
              auto cand =
                  index_->ElementsByQname(store_, op.child_qn, doc_span);
              if (!cand) {
                answered = false;
              } else {
                kids = *cand;
              }
            } else if (!index_->ChildValueProbe(store_, op.child_qn,
                                                pred.op, pred.value,
                                                doc_span, &kids,
                                                &complex_rest)) {
              answered = false;
            }
            if (answered) {
              for (PreId c : kids) {
                auto anc = DescendToAncestors(store_, c);
                if (!anc.empty()) owners.push_back(anc.back());
              }
              // Children whose value the index does not cover (element
              // content): evaluate those owners exactly.
              for (PreId c : complex_rest) {
                auto anc = DescendToAncestors(store_, c);
                if (anc.empty()) continue;
                PXQ_ASSIGN_OR_RETURN(bool ok,
                                     EvalValuePredicate(pred, anc.back()));
                if (ok) owners.push_back(anc.back());
              }
              Normalize(&owners);
            }
          }
        }
        if (answered) {
          std::vector<PreId> res;
          for (PreId p : owners) {
            if (store_.KindAt(p) != NodeKind::kElement ||
                store_.RefAt(p) != op.qn ||
                store_.LevelAt(p) != op.fused_level) {
              continue;
            }
            auto anc = DescendToAncestors(store_, p);  // root..parent
            if (anc.size() != op.fused_anc.size()) continue;
            bool ok = true;
            for (size_t i = 0; i < op.fused_anc.size(); ++i) {
              // fused_anc is nearest-first; the walk is root-first.
              PreId a = anc[anc.size() - 1 - i];
              if (op.fused_anc[i] < 0 ||
                  store_.KindAt(a) != NodeKind::kElement ||
                  store_.RefAt(a) != op.fused_anc[i]) {
                ok = false;
                break;
              }
            }
            if (ok) res.push_back(p);
          }
          if (CrossChecking()) {
            std::vector<PreId> scan;
            QnameId q0 = store_.pools().FindQname(steps[0].test.name);
            if (MatchTest(steps[0].test, store_.Root(), q0)) {
              scan.push_back(store_.Root());
            }
            for (size_t i = 1; i < op.consumed; ++i) {
              QnameId qi = store_.pools().FindQname(steps[i].test.name);
              scan = ScanChildren(steps[i].test, qi, scan);
            }
            PXQ_ASSIGN_OR_RETURN(scan, ScanFilterOne(pred, scan));
            PXQ_RETURN_IF_ERROR(VerifyCrossCheck(
                scan, res,
                "fused value-first probe (step " +
                    std::to_string(op.step) + ")"));
          }
          Note(strategy, "fused value probe (value-first) [gate accepted "
                         "vs scan=" + std::to_string(doc_span) + "]");
          return res;
        }
      }
    }
    // Fallback: stepwise prefix, plain child step, predicate scan —
    // the unfused operator trio. The step's OTHER predicates are
    // separate ops and must not be applied here.
    Note(strategy,
         "stepwise fallback [" +
             GateDeclineWhy(store_.SizeAt(store_.Root()) + 1) + "]");
    std::vector<PreId> ctx;
    QnameId q0 = store_.pools().FindQname(steps[0].test.name);
    if (MatchTest(steps[0].test, store_.Root(), q0)) {
      ctx.push_back(store_.Root());
    }
    for (size_t i = 1; i + 1 < op.consumed && !ctx.empty(); ++i) {
      PXQ_ASSIGN_OR_RETURN(ctx, EvalStep(steps[i], ctx));
    }
    const Step& last = steps[static_cast<size_t>(op.step)];
    std::vector<PreId> out;
    PXQ_ASSIGN_OR_RETURN(bool ans, IndexChildStep(last, ctx, op.qn, &out));
    if (!ans) out = ScanChildren(last.test, op.qn, ctx);
    return ScanFilterOne(pred, out);
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

  /// Axis + node test (no predicates), sorted/dedup output. The
  /// interpretive analogue of the compiled axis operators.
  StatusOr<std::vector<PreId>> AxisNodes(
      const Step& step, const std::vector<PreId>& ctx) const {
    QnameId qn = -1;
    if (step.test.kind == NodeTest::Kind::kName) {
      qn = store_.pools().FindQname(step.test.name);
      if (qn < 0) return std::vector<PreId>{};  // name never interned
    }
    switch (step.axis) {
      case Axis::kChild: {
        std::vector<PreId> out;
        PXQ_ASSIGN_OR_RETURN(bool answered,
                             IndexChildStep(step, ctx, qn, &out));
        if (!answered) out = ScanChildren(step.test, qn, ctx);
        return out;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf: {
        const bool or_self = step.axis == Axis::kDescendantOrSelf;
        std::vector<PreId> out;
        PXQ_ASSIGN_OR_RETURN(bool answered,
                             IndexDescendantStep(step, ctx, qn, or_self,
                                                 &out));
        if (!answered) out = ScanDescendants(step.test, qn, ctx, or_self);
        return out;
      }
      default:
        return AxisScan(step, qn, ctx);
    }
  }

  /// The non-child, non-descendant axes: pure scans over ancestors,
  /// siblings, and document-order staircases.
  StatusOr<std::vector<PreId>> AxisScan(const Step& step, QnameId qn,
                                        const std::vector<PreId>& ctx) const {
    if (step.test.kind == NodeTest::Kind::kName && qn < 0) {
      return std::vector<PreId>{};
    }
    std::vector<PreId> out;
    auto keep = [&](PreId p) {
      if (MatchTest(step.test, p, qn)) out.push_back(p);
    };
    switch (step.axis) {
      case Axis::kChild:
        out = ScanChildren(step.test, qn, ctx);
        break;
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        out = ScanDescendants(step.test, qn, ctx,
                              step.axis == Axis::kDescendantOrSelf);
        break;
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
      case Axis::kAttribute:
        return Status::Unsupported("attribute axis inside a node step");
    }
    return out;
  }

  Status FilterPredicates(const Step& step, std::vector<PreId>* nodes) const {
    for (const Predicate& pred : step.predicates) {
      PXQ_ASSIGN_OR_RETURN(bool answered, IndexFilterPredicate(pred, nodes));
      if (answered) continue;
      PXQ_ASSIGN_OR_RETURN(std::vector<PreId> kept,
                           ScanFilterOne(pred, *nodes));
      *nodes = std::move(kept);
    }
    return Status::OK();
  }

  /// One predicate over a candidate list, scan path (also the
  /// cross-check oracle for the index path).
  StatusOr<std::vector<PreId>> ScanFilterOne(
      const Predicate& pred, const std::vector<PreId>& nodes) const {
    std::vector<PreId> kept;
    const auto last = static_cast<int64_t>(nodes.size());
    for (int64_t i = 0; i < last; ++i) {
      PreId p = nodes[static_cast<size_t>(i)];
      bool ok = false;
      switch (pred.kind) {
        case Predicate::Kind::kPosition:
          ok = (i + 1 == pred.position);
          break;
        case Predicate::Kind::kLast:
          ok = (i + 1 == last);
          break;
        case Predicate::Kind::kExists:
        case Predicate::Kind::kCompare: {
          PXQ_ASSIGN_OR_RETURN(bool r, EvalValuePredicate(pred, p));
          ok = r;
          break;
        }
      }
      if (ok) kept.push_back(p);
    }
    return kept;
  }

  StatusOr<bool> EvalValuePredicate(const Predicate& pred, PreId node) const {
    // Split the relative steps into node steps + optional attr tail.
    std::vector<Step> rel = pred.rel;
    std::optional<Step> attr_step;
    if (!rel.empty() && rel.back().axis == Axis::kAttribute) {
      attr_step = rel.back();
      rel.pop_back();
    }
    PXQ_ASSIGN_OR_RETURN(std::vector<PreId> nodes,
                         EvalRelative(rel, {node}));
    if (pred.kind == Predicate::Kind::kExists) {
      if (!attr_step) return !nodes.empty();
      for (PreId p : nodes) {
        if (AttrValue(p, attr_step->test)) return true;
      }
      return false;
    }
    // kCompare: existential comparison.
    for (PreId p : nodes) {
      std::string v;
      if (attr_step) {
        auto a = AttrValue(p, attr_step->test);
        if (!a) continue;
        v = *a;
      } else {
        v = StringValue(p);
      }
      if (detail::CompareValues(v, pred.op, pred.value)) return true;
    }
    return false;
  }

  /// Scan-path descendant(-or-self) name/test matching over a context:
  /// the fallback when the index declines AND the cross-check oracle —
  /// one implementation so the two can never drift apart. With
  /// `or_self` the context nodes themselves are also tested (for the
  /// leading step of an absolute path the conceptual context is the
  /// document node, so pass the root with or_self=true).
  std::vector<PreId> ScanDescendants(const NodeTest& test, QnameId qn,
                                     const std::vector<PreId>& ctx,
                                     bool or_self) const {
    std::vector<PreId> out;
    if (or_self) {
      for (PreId c : ctx) {
        if (MatchTest(test, c, qn)) out.push_back(c);
      }
    }
    for (PreId p : StaircaseDescendant(store_, ctx)) {
      if (MatchTest(test, p, qn)) out.push_back(p);
    }
    Normalize(&out);
    return out;
  }

  /// Scan-path child step: the fallback when the index declines AND the
  /// cross-check oracle for IndexChildStep.
  std::vector<PreId> ScanChildren(const NodeTest& test, QnameId qn,
                                  const std::vector<PreId>& ctx) const {
    std::vector<PreId> out;
    auto keep = [&](PreId p) {
      if (MatchTest(test, p, qn)) out.push_back(p);
    };
    for (PreId c : ctx) {
      if (store_.KindAt(c) != NodeKind::kElement) continue;
      ForEachChild(store_, c, keep);
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

  static std::string DescribeStep(const Step& s) {
    const char* axis = "";
    switch (s.axis) {
      case Axis::kChild: axis = "child"; break;
      case Axis::kDescendant: axis = "descendant"; break;
      case Axis::kDescendantOrSelf: axis = "descendant-or-self"; break;
      case Axis::kSelf: axis = "self"; break;
      case Axis::kParent: axis = "parent"; break;
      case Axis::kAncestor: axis = "ancestor"; break;
      case Axis::kAncestorOrSelf: axis = "ancestor-or-self"; break;
      case Axis::kFollowing: axis = "following"; break;
      case Axis::kPreceding: axis = "preceding"; break;
      case Axis::kFollowingSibling: axis = "following-sibling"; break;
      case Axis::kPrecedingSibling: axis = "preceding-sibling"; break;
      case Axis::kAttribute: axis = "attribute"; break;
    }
    std::string test;
    switch (s.test.kind) {
      case NodeTest::Kind::kName: test = s.test.name; break;
      case NodeTest::Kind::kAnyName: test = "*"; break;
      case NodeTest::Kind::kText: test = "text()"; break;
      case NodeTest::Kind::kComment: test = "comment()"; break;
      case NodeTest::Kind::kAnyNode: test = "node()"; break;
    }
    return std::string(axis) + "::" + test;
  }

  /// Cross-check failure report: which step diverged and which node ids
  /// only one side produced, so a mismatch is debuggable from the
  /// Status alone instead of reproducing the query under a debugger.
  Status VerifyCrossCheck(const std::vector<PreId>& scan,
                          const std::vector<PreId>& indexed,
                          const std::string& what) const {
    if constexpr (kIndexable) {
      if (scan != indexed) {
        index_->NoteCrossCheckMismatch();
        auto list_only = [&](const std::vector<PreId>& a,
                             const std::vector<PreId>& b) {
          std::vector<PreId> only;
          std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                              std::back_inserter(only));
          std::string s;
          const size_t show = std::min<size_t>(only.size(), 4);
          for (size_t i = 0; i < show; ++i) {
            if (i > 0) s += ", ";
            s += "pre " + std::to_string(only[i]) + " (node " +
                 std::to_string(store_.NodeAt(only[i])) + ")";
          }
          if (only.size() > show) {
            s += ", +" + std::to_string(only.size() - show) + " more";
          }
          return s.empty() ? std::string("none") : s;
        };
        return Status::Corruption(
            "index/scan divergence on " + what + ": scan=" +
            std::to_string(scan.size()) + " nodes, index=" +
            std::to_string(indexed.size()) + " nodes; scan-only=[" +
            list_only(scan, indexed) + "]; index-only=[" +
            list_only(indexed, scan) + "]");
      }
    }
    return Status::OK();
  }

  /// descendant / descendant-or-self name step via the qname postings:
  /// swizzle the postings into pre order, then a staircase merge against
  /// the context regions. Returns false when the index declines.
  StatusOr<bool> IndexDescendantStep(const Step& step,
                                     const std::vector<PreId>& ctx,
                                     QnameId qn, bool or_self,
                                     std::vector<PreId>* out) const {
    if constexpr (kIndexable) {
      if (index_ == nullptr || step.test.kind != NodeTest::Kind::kName) {
        return false;
      }
      // Scan cost: the span the staircase scan would walk.
      int64_t span = 0;
      PreId scanned_to = -1;
      for (PreId c : ctx) {
        PreId end = c + store_.SizeAt(c);
        if (end <= scanned_to) continue;
        span += end - std::max(c, scanned_to);
        scanned_to = end;
      }
      auto pres = index_->ElementsByQname(store_, qn, span);
      if (!pres) return false;
      std::vector<PreId> res;
      scanned_to = -1;
      auto it = pres->begin();
      for (PreId c : ctx) {
        const PreId end = c + store_.SizeAt(c);
        if (end <= scanned_to) continue;  // covered: staircase pruning
        const PreId from = std::max(c + 1, scanned_to + 1);
        it = std::lower_bound(it, pres->end(), from);
        for (; it != pres->end() && *it <= end; ++it) res.push_back(*it);
        scanned_to = end;
      }
      if (or_self) {
        for (PreId c : ctx) {
          if (MatchTest(step.test, c, qn)) res.push_back(c);
        }
        Normalize(&res);
      }
      if (CrossChecking()) {
        PXQ_RETURN_IF_ERROR(VerifyCrossCheck(
            ScanDescendants(step.test, qn, ctx, or_self), res,
            "step " + DescribeStep(step)));
      }
      *out = std::move(res);
      return true;
    } else {
      (void)step;
      (void)ctx;
      (void)qn;
      (void)or_self;
      (void)out;
      return false;
    }
  }

  /// child name step via the qname postings: swizzle the postings into
  /// pre order, then keep candidates lying in a context region exactly
  /// one level below the region's root. Returns false when the index
  /// declines.
  StatusOr<bool> IndexChildStep(const Step& step,
                                const std::vector<PreId>& ctx, QnameId qn,
                                std::vector<PreId>* out) const {
    if constexpr (kIndexable) {
      if (index_ == nullptr || step.test.kind != NodeTest::Kind::kName) {
        return false;
      }
      // Scan cost: the deduplicated region span is an upper bound on
      // the child walk (ForEachChild skips subtrees, so the true cost
      // is the child count; the gate errs toward probing only when the
      // postings are small relative to the regions).
      int64_t span = 0;
      PreId scanned_to = -1;
      for (PreId c : ctx) {
        if (store_.KindAt(c) != NodeKind::kElement) continue;
        PreId end = c + store_.SizeAt(c);
        if (end <= scanned_to) continue;
        span += end - std::max(c, scanned_to);
        scanned_to = end;
      }
      auto pres = index_->ElementsByQname(store_, qn, span);
      if (!pres) return false;
      std::vector<PreId> res = KeepChildrenOf(*pres, ctx);
      index_->NoteChildStepHit();
      if (CrossChecking()) {
        PXQ_RETURN_IF_ERROR(
            VerifyCrossCheck(ScanChildren(step.test, qn, ctx), res,
                             "step " + DescribeStep(step)));
      }
      *out = std::move(res);
      return true;
    } else {
      (void)step;
      (void)ctx;
      (void)qn;
      (void)out;
      return false;
    }
  }

  /// Interpretive predicate planning: detect the index shape at run
  /// time (FilterPredicates path), then share the probe core with the
  /// compiled kValueProbeGate operator.
  StatusOr<bool> IndexFilterPredicate(const Predicate& pred,
                                      std::vector<PreId>* nodes) const {
    if constexpr (kIndexable) {
      if (index_ == nullptr || nodes->empty()) return false;
      if (pred.kind != Predicate::Kind::kExists &&
          pred.kind != Predicate::Kind::kCompare) {
        return false;
      }
      const std::vector<Step>& rel = pred.rel;
      auto plain_name = [](const Step& s, Axis axis) {
        return s.axis == axis && s.test.kind == NodeTest::Kind::kName &&
               s.predicates.empty();
      };
      PredShape shape = PredShape::kNone;
      QnameId child_qn = -1;
      QnameId attr_qn = -1;
      if (rel.size() == 1 && plain_name(rel[0], Axis::kAttribute)) {
        shape = PredShape::kAttr;
        attr_qn = store_.pools().FindQname(rel[0].test.name);
      } else if (rel.size() == 1 && plain_name(rel[0], Axis::kChild)) {
        shape = PredShape::kChildValue;
        child_qn = store_.pools().FindQname(rel[0].test.name);
      } else if (rel.size() == 2 && plain_name(rel[0], Axis::kChild) &&
                 plain_name(rel[1], Axis::kAttribute)) {
        shape = PredShape::kChildAttr;
        child_qn = store_.pools().FindQname(rel[0].test.name);
        attr_qn = store_.pools().FindQname(rel[1].test.name);
      } else {
        return false;  // shape not index-supported
      }
      return ApplyIndexPredicate(shape, child_qn, attr_qn, pred, nodes);
    } else {
      (void)pred;
      (void)nodes;
      return false;
    }
  }

  /// Index path for a detected predicate shape (compile-time baked or
  /// run-time detected). Returns true (and replaces *nodes) when the
  /// index answered; false defers to the scan.
  StatusOr<bool> ApplyIndexPredicate(PredShape shape, QnameId child_qn,
                                     QnameId attr_qn, const Predicate& pred,
                                     std::vector<PreId>* nodes) const {
    if constexpr (kIndexable) {
      if (index_ == nullptr || nodes->empty() ||
          shape == PredShape::kNone) {
        return false;
      }
      if (pred.kind != Predicate::Kind::kExists &&
          pred.kind != Predicate::Kind::kCompare) {
        return false;
      }
      std::optional<std::vector<PreId>> kept;
      if (shape == PredShape::kAttr) {
        // [@a] / [@a op lit]: the context node owns the attribute.
        if (attr_qn < 0) {
          kept = std::vector<PreId>{};  // name never interned: no match
        } else {
          const auto scan_cost = static_cast<int64_t>(nodes->size());
          auto cand = pred.kind == Predicate::Kind::kExists
                          ? index_->AttrOwners(store_, attr_qn, scan_cost)
                          : index_->AttrValueProbe(store_, attr_qn, pred.op,
                                                   pred.value, scan_cost);
          if (!cand) return false;
          kept = IntersectSorted(*nodes, *cand);
        }
      } else if (shape == PredShape::kChildValue) {
        // [name] / [name op lit]: a child with that tag (satisfying the
        // comparison).
        if (child_qn < 0) {
          kept = std::vector<PreId>{};
        } else {
          int64_t scan_cost = 0;
          for (PreId c : *nodes) scan_cost += store_.SizeAt(c) + 1;
          if (pred.kind == Predicate::Kind::kExists) {
            auto cand = index_->ElementsByQname(store_, child_qn, scan_cost);
            if (!cand) return false;
            kept = KeepWithChildIn(*nodes, *cand);
          } else {
            std::vector<PreId> simple, complex_rest;
            if (!index_->ChildValueProbe(store_, child_qn, pred.op,
                                         pred.value, scan_cost, &simple,
                                         &complex_rest)) {
              return false;
            }
            std::vector<PreId> k;
            for (PreId c : *nodes) {
              if (HasChildIn(c, simple)) {
                k.push_back(c);
              } else if (HasChildIn(c, complex_rest)) {
                // Value not covered by the index (element has element
                // children): evaluate this candidate exactly.
                PXQ_ASSIGN_OR_RETURN(bool ok, EvalValuePredicate(pred, c));
                if (ok) k.push_back(c);
              }
            }
            kept = std::move(k);
          }
        }
      } else {
        // [name/@a] / [name/@a op lit]: a child with that tag owning a
        // (matching) attribute.
        if (child_qn < 0 || attr_qn < 0) {
          kept = std::vector<PreId>{};
        } else {
          int64_t scan_cost = 0;
          for (PreId c : *nodes) scan_cost += store_.SizeAt(c) + 1;
          auto cand = pred.kind == Predicate::Kind::kExists
                          ? index_->AttrOwners(store_, attr_qn, scan_cost)
                          : index_->AttrValueProbe(store_, attr_qn, pred.op,
                                                   pred.value, scan_cost);
          if (!cand) return false;
          std::vector<PreId> named;
          for (PreId p : *cand) {
            if (store_.RefAt(p) == child_qn) named.push_back(p);
          }
          kept = KeepWithChildIn(*nodes, named);
        }
      }

      if (CrossChecking()) {
        PXQ_ASSIGN_OR_RETURN(std::vector<PreId> scan,
                             ScanFilterOne(pred, *nodes));
        std::string what = "predicate [";
        for (size_t i = 0; i < pred.rel.size(); ++i) {
          if (i > 0) what += "/";
          what += DescribeStep(pred.rel[i]);
        }
        if (pred.kind == Predicate::Kind::kCompare) {
          what += " op '" + pred.value + "'";
        }
        what += "]";
        PXQ_RETURN_IF_ERROR(VerifyCrossCheck(scan, *kept, what));
      }
      *nodes = std::move(*kept);
      return true;
    } else {
      (void)shape;
      (void)child_qn;
      (void)attr_qn;
      (void)pred;
      (void)nodes;
      return false;
    }
  }

  static std::vector<PreId> IntersectSorted(const std::vector<PreId>& a,
                                            const std::vector<PreId>& b) {
    std::vector<PreId> out;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(out));
    return out;
  }

  /// Does `c` have a child (direct, level + 1) among the sorted
  /// candidate pres?
  bool HasChildIn(PreId c, const std::vector<PreId>& cand) const {
    const PreId end = c + store_.SizeAt(c);
    const int32_t child_level = store_.LevelAt(c) + 1;
    for (auto it = std::upper_bound(cand.begin(), cand.end(), c);
         it != cand.end() && *it <= end; ++it) {
      if (store_.LevelAt(*it) == child_level) return true;
    }
    return false;
  }

  std::vector<PreId> KeepWithChildIn(const std::vector<PreId>& ctx,
                                     const std::vector<PreId>& cand) const {
    std::vector<PreId> kept;
    for (PreId c : ctx) {
      if (HasChildIn(c, cand)) kept.push_back(c);
    }
    return kept;
  }

  /// Candidates (sorted pres) that are a DIRECT child of some parent in
  /// `parents`: inside a parent's region, exactly one level below it.
  std::vector<PreId> KeepChildrenOf(const std::vector<PreId>& cand,
                                    const std::vector<PreId>& parents) const {
    return KeepDescendantsAtDepth(cand, parents, 1);
  }

  /// Candidates (sorted pres) lying in some ancestor's region exactly
  /// `depth` levels below it — the cascade generalization of the
  /// child filter. Two distinct elements at the same level can never
  /// contain each other, so region + level containment identifies the
  /// candidate's distance-`depth` ancestor uniquely among `parents`.
  std::vector<PreId> KeepDescendantsAtDepth(
      const std::vector<PreId>& cand, const std::vector<PreId>& parents,
      int32_t depth) const {
    std::vector<PreId> out;
    for (PreId c : parents) {
      if (store_.KindAt(c) != NodeKind::kElement) continue;
      const PreId end = c + store_.SizeAt(c);
      const int32_t want_level = store_.LevelAt(c) + depth;
      // Parent regions may nest (arbitrary contexts), so each region
      // scans independently; Normalize dedups.
      for (auto it = std::upper_bound(cand.begin(), cand.end(), c);
           it != cand.end() && *it <= end; ++it) {
        if (store_.LevelAt(*it) == want_level) out.push_back(*it);
      }
    }
    Normalize(&out);
    return out;
  }

  const Store& store_;
  const index::IndexManager* index_ = nullptr;
};

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_EXECUTOR_H_
