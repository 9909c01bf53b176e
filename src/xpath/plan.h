// Physical plan IR for the compile-once query pipeline.
//
// A Plan is the product of ONE compilation of a parsed Path against a
// compile environment (the store's qname pool + the database's index
// configuration): a flat vector of typed operators, each carrying its
// resolved QnameIds, chain keys, and fallback strategy, executed by
// xpath::Executor against a store + published index snapshot. The
// stat-dependent decisions (the index cost gate accepting or declining
// a probe) stay adaptive at run time; everything derivable from the
// query text alone — parsing, qname resolution, chain-prefix
// decomposition, predicate shape detection — is baked here exactly
// once, so a cached plan re-executes without touching the parser or
// the qname pool. Predicate paths and per-origin positional steps are
// compiled the same way, into relative sub-plans owned by the plan
// (`Plan::subs`) and run by the same executor loop, once per operator
// call over all their context nodes (loop-lifted, see executor.h). A
// plan serves every text of its shape (PlanCache): each quoted literal
// is a parameter slot (`Predicate::param`) that the executor binds per
// run, so a shared plan runs on the caller's literal, not on the one it
// was compiled from.
//
// Validity: a plan embeds the qname-pool generation (`pool_gen` — the
// pool is append-only, so its size is a monotone generation counter)
// and a fingerprint of the compile environment (`env_fp`). A plan in
// which every name resolved (`fully_resolved`) stays valid forever —
// interned QnameIds never change — while a plan that baked a
// never-interned name as "matches nothing" must be recompiled once the
// pool grows (the name may exist now). The PlanCache enforces both,
// epoch-validated like the index's probe memos.
#ifndef PXQ_XPATH_PLAN_H_
#define PXQ_XPATH_PLAN_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "xpath/ast.h"

namespace pxq::xpath {

enum class OpKind : uint8_t {
  kRootSeed,            // seed the context with the document root element
  kChainProbe,          // maximal path-chain cascade over a child-name prefix
  kQnamePostings,       // descendant name step via qname postings
  kChildStep,           // child step (the child join over the index if named)
  kDescendantStaircase, // descendant step, non-name test (staircase scan)
  kAxisScan,            // the remaining axes (self/parent/siblings/...)
  kValueProbeGate,      // index-shaped predicate behind the cost gate
  kPositionFilter,      // positional predicate ([3] / [last()])
  kExistsFilter,        // exists/compare predicate on the scan path
  kFusedProbe,          // value-first fusion of a from_root prefix + one
                        // index-shaped predicate (probe the rarer side)
};

const char* OpKindName(OpKind k);

/// One probe of a compiled pair cascade: the (parent, self) tag pair
/// PathPairProbe takes. Probe i covers path steps i and i+1, so its
/// self-tag elements sit at absolute level i+1. The leading probe is
/// anchored to the document root by that level filter; each later
/// probe keeps postings lying exactly one level below a survivor.
struct ChainProbeSpec {
  QnameId parent_qn = -1;
  QnameId self_qn = -1;
  /// Absolute level of the self-tag elements (i + 1 for probe i).
  int32_t abs_level = -1;
};

/// Index-supported predicate shapes (see IndexManager's value/attr
/// probes). Detected once at compile time instead of per evaluation.
enum class PredShape : uint8_t {
  kNone,       // not index-supported
  kAttr,       // [@a] / [@a op lit]
  kChildValue, // [name] / [name op lit]
  kChildAttr,  // [name/@a] / [name/@a op lit]
};

struct PlanOp {
  OpKind kind = OpKind::kAxisScan;
  int32_t step = -1;  // index into Plan::path.steps (-1: unconditional seed)
  int32_t pred = -1;  // predicate index within the step (predicate ops)
  /// Resolved name of the step's node test (-1: never interned at
  /// compile time — the op yields no nodes, and the plan is not
  /// fully_resolved).
  QnameId qn = -1;
  bool or_self = false;    // descendant-or-self semantics
  /// Leading operator of an absolute path: ignores the incoming
  /// context (the conceptual document node) and seeds from the root.
  bool from_root = false;
  /// kPositionFilter: true = the whole step (axis + every predicate)
  /// evaluates per context origin (steps with positional predicates);
  /// false = a single positional predicate filters the current list
  /// (within each iteration of a lifted sub-plan).
  bool per_origin = false;
  /// Index into Plan::subs (-1: none). kValueProbeGate, kExistsFilter
  /// and kFusedProbe: the predicate's relative path, run once over the
  /// whole candidate list, candidate i as iteration i (a semi-join).
  /// Per-origin kPositionFilter: the step's axis op plus its predicates
  /// as list filters, run once over the whole context, context node j
  /// as iteration j, so positions count per origin.
  int32_t sub = -1;
  /// kChildStep: the context nodes' tag when the compiler knows it
  /// (after a name step, for the first step of a predicate on a named
  /// step, after a cascade); the child join then reads the
  /// (ctx_qn, qn) pair bucket instead of the qname postings. -1:
  /// unknown.
  QnameId ctx_qn = -1;
  // --- kChainProbe ----------------------------------------------------
  std::vector<ChainProbeSpec> probes;
  size_t consumed = 0;       // leading steps the cascade consumes
  bool missing_name = false; // a path tag was never interned: empty, exact
  // --- kValueProbeGate ------------------------------------------------
  PredShape shape = PredShape::kNone;
  QnameId child_qn = -1;
  QnameId attr_qn = -1;
  /// Estimated candidate count for this op's index probe (-1: none).
  /// Stamped at compile for explain's est= column and the predicate
  /// reorder decision; the run-time cost gate still rules.
  int64_t est = -1;
  /// kValueProbeGate fused into a from_root cascade (probe-order
  /// fusion): the estimator judged the value/attr posting rarer than
  /// the structural candidate set, so the executor probes the VALUE
  /// side first, keeps matches tagged `qn` at `fused_level`, and
  /// verifies their ancestors in the pair buckets `fused_anc` names
  /// (nearest ancestor first; the ancestor k levels up lies in the
  /// (fused_anc[k], fused_anc[k-1]) bucket, parent -1 above the root).
  /// Scan fallback and cross-check behave exactly like the unfused pair.
  bool fused_value_first = false;
  int32_t fused_level = -1;
  std::vector<QnameId> fused_anc;
};

/// Per-operator execution record: what the executor actually did (index
/// probe vs scan fallback) and how many nodes the operator produced.
/// `xq explain` renders the plan from this trace, so the printed
/// strategies are the executed ones by construction. When tracing is on
/// the executor also measures each operator (`xq profile` and the
/// slow-query log render from the same record — a profile and an
/// explain can never disagree about what ran); the measurement fields
/// cost nothing when trace == nullptr.
struct OpTrace {
  size_t op = 0;
  std::string strategy;
  int64_t in = 0;            // input cardinality (context size)
  int64_t out = 0;           // output cardinality
  int64_t wall_ns = 0;       // measured operator wall-time
  int64_t index_probes = 0;  // index probes issued by this operator
  int64_t est = -1;          // compile-time output estimate (-1: none);
                             // explain renders est=/act= from est/out
};

struct Plan {
  Path path;                         // trailing attribute step removed
  std::optional<Step> trailing_attr; // split-off final attribute step
  std::vector<PlanOp> ops;
  /// Relative sub-plans referenced by PlanOp::sub, each run lifted
  /// (once per operator call, over all its iterations). They carry no
  /// estimates and are never reordered; an unresolved name in one
  /// clears this plan's fully_resolved.
  std::vector<Plan> subs;
  /// Empty: plan is executable. Non-empty: Run() fails with
  /// Unsupported(invalid_reason) — compilation records the error once,
  /// every execution replays it.
  std::string invalid_reason;
  /// Every name in the plan resolved to an interned QnameId: the plan
  /// never goes stale (ids are immutable). Otherwise it must be
  /// recompiled when pool_gen moves.
  bool fully_resolved = true;
  uint64_t pool_gen = 0; // qname-pool size at compile time
  uint64_t env_fp = 0;   // compile-environment fingerprint (index shape)
  /// Non-zero when cardinality estimates steered this plan's SHAPE
  /// (predicate reorder, cascade exec order, or probe fusion): the
  /// index publish epoch the estimates were read at. The PlanCache
  /// recompiles such plans when the epoch moves — stale estimates can
  /// only cost speed, never correctness, but recompiling keeps the
  /// ordering honest. Plans whose shape is estimate-free stay 0 and
  /// never invalidate on stats movement.
  uint64_t stats_epoch = 0;
  /// The cost-based pass read a quoted literal's estimate to take a
  /// choice: the order of a predicate run holding a literal gate, or
  /// whether to fuse a literal gate value-first. A cache hit for other
  /// literals re-derives those choices (SameLiteralChoices) before it
  /// runs this plan.
  bool literal_choices = false;

  /// Operator list without execution (static shape), with the `bound`
  /// literals in the parameter slots.
  std::string Describe(Literals bound = {}) const;
  /// One operator line, e.g. "ChainProbe /site/people/person".
  std::string DescribeOp(size_t i, Literals bound = {}) const;
};

/// A predicate as explain and cross-check reports print it, e.g.
/// "[child::price op '5']", with its literal taken from `bound`.
std::string PredicateText(const Predicate& p, Literals bound = {});

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_PLAN_H_
