// Process-wide compiled-plan cache: query shape -> shared immutable
// Plan, shared across every reader thread and every transaction of a
// database. A shape is the query text with its quoted literals replaced
// by a placeholder (ShapeKey), so `person[@id='person17']` and
// `person[@id='person4567']` share one plan; each execution binds its
// own literals to the plan's parameter slots (Predicate::param), and a
// plan whose choices read a literal's estimate is re-checked per
// literal by the caller (SameLiteralChoices, compiler.h). Unquoted
// numbers and positions stay in the key: they are part of the shape.
// Entries are epoch-validated like the index's probe memos:
// a hit requires the compile-environment fingerprint to match and the
// plan to be either fully resolved (baked QnameIds are immutable, so
// such a plan never goes stale) or compiled at the current qname-pool
// generation (a plan that baked a never-interned name as "matches
// nothing" must recompile once the pool grows — the name may exist
// now). Stale entries are dropped on lookup; capacity evictions are
// LRU. Thread-safe: lookups run under the database's shared read lock
// from many threads concurrently.
#ifndef PXQ_XPATH_PLAN_CACHE_H_
#define PXQ_XPATH_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/metrics.h"
#include "xpath/plan.h"

namespace pxq::xpath {

/// The cache key of a query text, in one pass: the text with the
/// contents of every quoted literal ('...' or "..."; the parser has no
/// escapes) replaced by one placeholder, ''. `literals` receives the
/// contents in textual order, which is the parser's slot order. Returns
/// `text` itself when it holds no quote, else a view of `*buf` (reused
/// across calls, so a warm lookup allocates no key). nullopt for an
/// unterminated quote: that text is no shape, and its compile reports
/// the parse error.
std::optional<std::string_view> ShapeKey(std::string_view text,
                                         std::string* buf,
                                         std::vector<std::string>* literals);

/// True when `text` holds a quote: only then does its shape differ from
/// the text. Inline, so that a literal-free lookup (the per-node
/// relative paths) pays one short scan and nothing else.
inline bool HasQuote(std::string_view text) {
  for (char c : text) {
    if (c == '\'' || c == '"') return true;
  }
  return false;
}

class PlanCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;     // cold lookups AND stale-entry recompiles
    int64_t evictions = 0;  // capacity (LRU) evictions
    /// Lookups whose per-literal re-check chose differently and
    /// compiled for their literals; counted as misses, not hits.
    int64_t recompiles = 0;
  };

  explicit PlanCache(size_t capacity = 512) : capacity_(capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan iff it is valid under the caller's current
  /// pool generation + environment fingerprint; drops stale entries.
  /// `stats_epoch` is the index's current publish epoch: a plan whose
  /// SHAPE was steered by cardinality estimates (plan->stats_epoch != 0)
  /// additionally requires its stamped epoch to match, so stats
  /// movement recompiles exactly the plans whose ordering decisions it
  /// could change — estimate-free plans never invalidate on commits.
  std::shared_ptr<const Plan> Lookup(std::string_view key,
                                     uint64_t pool_gen, uint64_t env_fp,
                                     uint64_t stats_epoch = 0);

  void Insert(std::string_view key, std::shared_ptr<const Plan> plan);

  /// The plan the last Lookup returned failed its per-literal re-check:
  /// recount that lookup as a miss. The entry stays.
  void NoteRecompile();

  Stats stats() const;
  size_t size() const;
  void Clear();

  /// Record one compilation's wall-time (misses only — hits never
  /// compile). Called by the Evaluator after CompileText.
  void RecordCompile(int64_t ns) { compile_ns_.Record(ns); }

  /// Expose the cache through a registry: the compile-time histogram by
  /// reference, hit/miss/eviction/size as one mutex-coherent group (one
  /// stats() copy per snapshot — hits + misses always equals the number
  /// of completed lookups).
  void RegisterMetrics(obs::MetricsRegistry* reg) const;

 private:
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::list<std::string>::iterator lru_it;
  };
  /// Heterogeneous lookup: a warm hit must not allocate a key string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  mutable Mutex mu_;
  size_t capacity_;  // set at construction, immutable thereafter
  std::list<std::string> lru_ PXQ_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<std::string, Entry, StringHash, std::equal_to<>> map_
      PXQ_GUARDED_BY(mu_);
  Stats stats_ PXQ_GUARDED_BY(mu_);
  /// Compile wall-time (ns); recorded outside mu_ (lock-free histogram).
  obs::Histogram compile_ns_;
};

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_PLAN_CACHE_H_
