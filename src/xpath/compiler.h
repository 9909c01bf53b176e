// Stage 2 of the query pipeline: compile a parsed Path into a physical
// Plan (plan.h). Runs ONCE per query (or once per cache fill): resolves
// every node-test name against the qname pool, decides the chain-prefix
// decomposition (the k-chain maximal-probe cascade of the path index),
// and detects the index-supported predicate shapes — so execution
// (executor.h) never parses, never consults the pool, and never
// re-derives a strategy. Only the index cost gate's accept/decline
// stays adaptive at run time, because it depends on live statistics.
#ifndef PXQ_XPATH_COMPILER_H_
#define PXQ_XPATH_COMPILER_H_

#include <cstdint>
#include <string_view>

#include "common/status.h"
#include "storage/store_common.h"
#include "xpath/plan.h"

namespace pxq::index {
class IndexManager;
}  // namespace pxq::index

namespace pxq::xpath {

/// Compile a parsed path. `index` may be null (scan-only environment:
/// no chain decomposition is baked; per-step ops still carry scan
/// strategies and execute correctly with or without an index at run
/// time). Never fails: paths the executor cannot run produce a plan
/// whose Run() reports the error (invalid_reason).
Plan Compile(Path path, const storage::ContentPools& pools,
             const index::IndexManager* index);

/// Parse + compile. Fails only on parse errors.
StatusOr<Plan> CompileText(std::string_view text,
                           const storage::ContentPools& pools,
                           const index::IndexManager* index);

/// The per-literal re-check of a plan shared by its shape: re-derives,
/// for the `bound` literals, the choices its compile took from a
/// literal's estimate (Plan::literal_choices) — the order of each
/// predicate run and value-first fusion. True when every choice comes
/// out as compiled, so the plan serves these literals; false when the
/// caller must compile for them. Reads the estimator only: no parse,
/// no compile.
bool SameLiteralChoices(const Plan& plan, Literals bound,
                        const index::IndexManager* index);

/// Fingerprint of the compile environment: plans are only reusable
/// under the environment they were compiled for (index present or not,
/// and enabled or not — the pair cascade and estimate-driven reshaping
/// are baked in).
uint64_t PlanEnvFingerprint(const index::IndexManager* index);

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_COMPILER_H_
