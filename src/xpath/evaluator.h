// XPath evaluation façade over the compile-once query pipeline:
//
//   ParsePath (parser.h)  ->  Compile (compiler.h)  ->  Plan (plan.h)
//                                                        |
//                                    Executor (executor.h) runs the plan
//
// Evaluator is a thin wrapper that compiles a query (or fetches the
// compiled Plan from a PlanCache when one is attached — the Database
// layer shares one cache across all reader threads and transactions,
// keyed by query shape) and hands it to the Executor with the text's
// own literals bound to the plan's parameter slots. Every entry point —
// Database queries, transaction queries, XUpdate select expressions,
// tools and benches — rides the same compiled path, and inside a plan
// the predicate paths and per-origin positional steps are compiled
// sub-plans run by the same Executor::RunOps loop: there is exactly one
// evaluation engine.
// (ReferenceEvaluator, reference_eval.h, is a separate brute-force
// oracle for tests.)
//
// Index-awareness, the cost gate, per-operator cross-checking, and the
// scan fallbacks live in the Executor; strategy selection (cascade
// decomposition, qname resolution, predicate shape detection) lives in
// the Compiler and is baked into the Plan once per query shape instead
// of being re-derived per call. The index describes ONE specific store
// — only pass it together with that store (the committed base, under
// the shared lock); a transaction clone evaluates without it (a cached
// plan compiled for the indexed base still executes correctly there:
// every operator carries a scan fallback). Database::Update therefore
// resolves its first select on the base, inside Begin's shared lock,
// where base and clone hold the same document.
#ifndef PXQ_XPATH_EVALUATOR_H_
#define PXQ_XPATH_EVALUATOR_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "xpath/compiler.h"
#include "xpath/executor.h"
#include "xpath/parser.h"
#include "xpath/plan.h"
#include "xpath/plan_cache.h"

namespace pxq::xpath {

template <typename Store>
class Evaluator {
 public:
  static constexpr bool kIndexable = Executor<Store>::kIndexable;

  /// `index` is the execution index (may be null: scan fallbacks).
  /// `plan_env` is the COMPILE environment when it differs from the
  /// execution index: a transaction clone executes without the index
  /// (it describes the committed base) but must compile — and look up
  /// cached plans — under the owning database's environment, or the
  /// shared cache would thrash between fingerprints. Defaults to
  /// `index` itself.
  explicit Evaluator(const Store& store) : exec_(store, nullptr) {}
  Evaluator(const Store& store, const index::IndexManager* index,
            PlanCache* cache = nullptr,
            const index::IndexManager* plan_env = nullptr)
      : exec_(store, index),
        env_(plan_env != nullptr ? plan_env : index),
        cache_(cache) {}

  /// Evaluate a path from the document root.
  StatusOr<std::vector<PreId>> Eval(const Path& path) const {
    return Eval(path, {store().Root()});
  }
  StatusOr<std::vector<PreId>> Eval(std::string_view path_text) const {
    std::vector<std::string> literals;
    PXQ_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan,
                         PlanForText(path_text, &literals, nullptr));
    return RunNodes(*plan, SeedFor(*plan), literals);
  }

  /// Evaluate a path from an explicit (sorted, deduped) context.
  StatusOr<std::vector<PreId>> Eval(const Path& path,
                                    std::vector<PreId> ctx) const {
    Plan plan = Compile(path, store().pools(), env_);
    return RunNodes(plan, std::move(ctx), {});
  }
  /// Same, from query text: compiled once per shape when a PlanCache is
  /// attached (per-node loops over a relative path).
  StatusOr<std::vector<PreId>> Eval(std::string_view path_text,
                                    std::vector<PreId> ctx) const {
    std::vector<std::string> literals;
    PXQ_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan,
                         PlanForText(path_text, &literals, nullptr));
    return RunNodes(*plan, std::move(ctx), literals);
  }

  /// Evaluate a path whose final step may be an attribute step; returns
  /// string values (attribute values, or node string-values otherwise).
  StatusOr<std::vector<std::string>> EvalStrings(const Path& path) const {
    return EvalStrings(path, {store().Root()});
  }
  StatusOr<std::vector<std::string>> EvalStrings(
      const Path& path, std::vector<PreId> ctx) const {
    Plan plan = Compile(path, store().pools(), env_);
    return RunStrings(plan, std::move(ctx), {});
  }
  StatusOr<std::vector<std::string>> EvalStrings(
      std::string_view path_text) const {
    std::vector<std::string> literals;
    PXQ_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan,
                         PlanForText(path_text, &literals, nullptr));
    return RunStrings(*plan, SeedFor(*plan), literals);
  }

  /// One traced evaluation, end to end: the plan (for DescribeOp), the
  /// measured per-operator trace, and the result. This is the profiled
  /// query path — the same RunOps trace `explain` renders, with the
  /// measurement fields filled, so a profile and an explain can never
  /// disagree about the operator list.
  struct TracedResult {
    std::shared_ptr<const Plan> plan;
    /// The text's literals, bound to the plan's parameter slots (pass
    /// them to DescribeOp).
    std::vector<std::string> literals;
    bool cache_hit = false;
    int64_t compile_ns = 0;  // 0 on a cache hit
    std::vector<OpTrace> trace;
    std::vector<PreId> nodes;
  };
  StatusOr<TracedResult> EvalTraced(std::string_view path_text) const {
    TracedResult r;
    const auto t0 = std::chrono::steady_clock::now();
    PXQ_ASSIGN_OR_RETURN(r.plan,
                         PlanForText(path_text, &r.literals, &r.cache_hit));
    if (!r.cache_hit) {
      r.compile_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    }
    if (r.plan->trailing_attr) {
      return Status::Unsupported(
          "attribute axis yields no nodes; use EvalStrings");
    }
    PXQ_ASSIGN_OR_RETURN(r.nodes, exec_.RunOps(*r.plan, SeedFor(*r.plan),
                                               &r.trace, r.literals));
    return r;
  }

  /// Compiled-plan observability: the operator list with the strategy
  /// the executor ACTUALLY took per operator (the plan is executed with
  /// tracing), plus whether the plan came from the cache. The printed
  /// operators match the executed ones by construction, and print the
  /// caller's literals, whichever text filled the cache entry.
  StatusOr<std::string> Explain(std::string_view path_text) const {
    bool cache_hit = false;
    std::vector<std::string> literals;
    PXQ_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan,
                         PlanForText(path_text, &literals, &cache_hit));
    std::string out = "plan for " + std::string(path_text) + "\n";
    out += std::string("  cache: ") +
           (cache_ == nullptr ? "detached" : (cache_hit ? "hit" : "miss")) +
           "\n";
    if (!plan->invalid_reason.empty()) {
      return out + "  invalid: " + plan->invalid_reason + "\n";
    }
    std::vector<OpTrace> trace;
    auto res = exec_.RunOps(*plan, {store().Root()}, &trace, literals);
    for (const OpTrace& t : trace) {
      out += "  " + std::to_string(t.op + 1) + ". " +
             plan->DescribeOp(t.op, literals) + " -> " + t.strategy + ", " +
             std::to_string(t.out) + " nodes";
      // Estimate column: compile-time cardinality estimate vs what the
      // operator actually produced (only operators the estimator saw).
      if (t.est >= 0) {
        out += " [est=" + std::to_string(t.est) +
               " act=" + std::to_string(t.out) + "]";
      }
      out += "\n";
    }
    if (trace.size() < plan->ops.size()) {
      out += "  (" + std::to_string(plan->ops.size() - trace.size()) +
             " operators skipped: empty context)\n";
    }
    if (plan->trailing_attr) {
      out += "  then attribute " +
             std::string(plan->trailing_attr->test.kind ==
                                 NodeTest::Kind::kName
                             ? plan->trailing_attr->test.name
                             : "*") +
             " extraction (EvalStrings)\n";
    }
    if (!res.ok()) {
      out += "  execution error: " + res.status().ToString() + "\n";
    } else {
      out += "  result: " + std::to_string(res.value().size()) + " nodes\n";
    }
    return out;
  }

  /// XPath string-value: text content for value nodes, concatenated
  /// descendant text for elements.
  std::string StringValue(PreId pre) const { return exec_.StringValue(pre); }

  /// Value of the attribute matching `test` on element `pre`.
  std::optional<std::string> AttrValue(PreId pre,
                                       const NodeTest& test) const {
    return exec_.AttrValue(pre, test);
  }

 private:
  const Store& store() const { return exec_.store(); }

  /// Initial context for a root evaluation. Absolute plans ignore the
  /// incoming context (their leading operator seeds from the root), so
  /// skip the one-element allocation on that hot path.
  std::vector<PreId> SeedFor(const Plan& plan) const {
    if (plan.path.absolute) return {};
    return {store().Root()};
  }

  /// Cached compile of a query text, looked up by its shape (ShapeKey).
  /// `literals` receives the text's literals, to bind to the plan's
  /// parameter slots (left empty when the plan was compiled for this
  /// very text). `cache_hit` (optional) reports whether the plan was
  /// served from the cache. A hit on a plan whose choices read a
  /// literal's estimate re-derives them for this text's literals; when
  /// one differs, this text compiles for its own literals and counts a
  /// miss, and the shared entry stays.
  StatusOr<std::shared_ptr<const Plan>> PlanForText(
      std::string_view text, std::vector<std::string>* literals,
      bool* cache_hit) const {
    if (cache_hit != nullptr) *cache_hit = false;
    if (cache_ == nullptr) return CompileFor(text);
    std::string_view key = text;
    if (HasQuote(text)) {
      // One key buffer per thread: a warm lookup allocates no key.
      thread_local std::string key_buf;
      const std::optional<std::string_view> shape =
          ShapeKey(text, &key_buf, literals);
      if (!shape) return CompileFor(text);  // reports the parse error
      key = *shape;
    }
    const auto pool_gen =
        static_cast<uint64_t>(store().pools().qname_count());
    const uint64_t env_fp = PlanEnvFingerprint(env_);
    // Estimate-steered plans are epoch-stamped; pass the index's
    // current publish epoch so the cache can invalidate exactly those.
    const uint64_t stats_epoch = env_ != nullptr ? env_->stats_epoch() : 0;
    if (auto plan = cache_->Lookup(key, pool_gen, env_fp, stats_epoch)) {
      // Re-checked against the executing index: the choices steer its
      // probes, and an executor without one (a transaction clone) takes
      // every scan fallback whichever way they went.
      if (!plan->literal_choices ||
          SameLiteralChoices(*plan, *literals, exec_.index())) {
        if (cache_hit != nullptr) *cache_hit = true;
        return plan;
      }
      cache_->NoteRecompile();
      return CompileFor(text);
    }
    PXQ_ASSIGN_OR_RETURN(std::shared_ptr<const Plan> plan, CompileFor(text));
    cache_->Insert(key, plan);
    return plan;
  }

  /// Compile `text` for its own literals. Compile timing feeds the
  /// cache's pxq_plan_compile_ns histogram; compiles only, so the warm
  /// path never reads a clock.
  StatusOr<std::shared_ptr<const Plan>> CompileFor(
      std::string_view text) const {
    const auto t0 = std::chrono::steady_clock::now();
    PXQ_ASSIGN_OR_RETURN(Plan compiled,
                         CompileText(text, store().pools(), env_));
    if (cache_ != nullptr) {
      cache_->RecordCompile(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
    return std::make_shared<const Plan>(std::move(compiled));
  }

  StatusOr<std::vector<PreId>> RunNodes(const Plan& plan,
                                        std::vector<PreId> ctx,
                                        Literals bound) const {
    if (plan.trailing_attr) {
      return Status::Unsupported(
          "attribute axis yields no nodes; use EvalStrings");
    }
    return exec_.RunOps(plan, std::move(ctx), nullptr, bound);
  }

  StatusOr<std::vector<std::string>> RunStrings(const Plan& plan,
                                                std::vector<PreId> ctx,
                                                Literals bound) const {
    PXQ_ASSIGN_OR_RETURN(ctx,
                         exec_.RunOps(plan, std::move(ctx), nullptr, bound));
    std::vector<std::string> out;
    for (PreId p : ctx) {
      if (plan.trailing_attr) {
        auto v = exec_.AttrValue(p, plan.trailing_attr->test);
        if (v) out.push_back(*v);
      } else {
        out.push_back(exec_.StringValue(p));
      }
    }
    return out;
  }

  Executor<Store> exec_;
  /// Compile environment (fingerprint); usually the
  /// execution index, but see the constructor comment.
  const index::IndexManager* env_ = nullptr;
  PlanCache* cache_ = nullptr;
};

/// Convenience: parse + evaluate from the root, optionally index-aware
/// and plan-cached.
template <typename Store>
StatusOr<std::vector<PreId>> EvaluatePath(
    const Store& store, std::string_view path_text,
    const index::IndexManager* index = nullptr,
    PlanCache* cache = nullptr) {
  Evaluator<Store> ev(store, index, cache);
  return ev.Eval(path_text);
}

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_EVALUATOR_H_
