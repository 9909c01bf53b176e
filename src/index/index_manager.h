// Secondary index subsystem layered over the updatable pre/size/level
// plane: read-optimized postings consulted by the XPath evaluator, kept
// correct under updates by the DeltaIndex overlay (delta_index.h).
//
// Four structures, all keyed by interned QnameId:
//
//   1. QName index      qname -> sorted NodeId postings of every element
//                       with that tag. Descendant name steps (`//item`)
//                       become a swizzle of the postings into pre order
//                       plus a staircase merge against the context
//                       regions, instead of a full-plane scan. The same
//                       postings answer child-axis name steps (candidate
//                       pres filtered by region + level).
//
//   2. Value index      per element qname: a sorted string dictionary
//                       (std::map value -> postings) with a typed
//                       numeric sidecar (multimap double -> postings)
//                       for range probes — the smol-style split of a
//                       read-heavy dictionary plus fixed-width numeric
//                       run. Only "simple" elements are value-indexed:
//                       elements with no element children, whose XPath
//                       string value is exactly the concatenation of
//                       their text children and thus maintainable from
//                       local edits alone. The remaining ("complex")
//                       elements are listed per qname so a probe can
//                       hand them back for exact per-node evaluation —
//                       index probes never approximate the language
//                       semantics.
//
//   3. Attribute index  attr qname -> owner postings, plus the same
//                       dictionary + numeric sidecar over attribute
//                       values (attribute values are atomic, so probes
//                       are exact with no complex remainder).
//
//   4. Path index       (parent qname, self qname) pair -> sorted NodeId
//                       postings of every element with that tag whose
//                       parent element carries the parent tag (-1 for
//                       the document root, which has no parent). A
//                       multi-step absolute path (/site/people/person)
//                       becomes a cascade of pair probes, one per level
//                       — see xpath::Executor::RunChainProbe. Renaming
//                       an element re-keys the pairs of its direct
//                       element children only; ApplyDirty expands that
//                       commit-side by re-deriving each such child.
//
// Postings store immutable NodeIds, not pre ranks: structural edits
// shift pre values wholesale (within-page shifts, page stitching), but
// node ids never change, and the node -> pre swizzle is O(1) on the
// paged store.
//
// Comparison semantics exactly mirror xpath::detail::CompareValues
// (see xpath/value_compare.h): numeric when both sides parse under the
// strict grammar, lexicographic otherwise. `!=` probes are declined
// (anti-joins have no selectivity) and fall back to the scan path.
//
// Concurrency — in-place maintenance under the commit window:
//
//   All four structures live in one set of bucket maps. Probes read
//   them with NO lock of the index's own and NO reference-count
//   traffic, so concurrent probes never serialize on each other. That
//   is safe because every probe runs under the database's shared
//   (read) lock, and the only writers — Rebuild and ApplyDirty — run
//   inside the exclusive commit window: ApplyDirty removes each dirty
//   node's entries and re-derives them whole, in place, so a commit
//   costs O(edit), not O(bucket). Every bucket it touches — qname
//   postings, pair postings, a tag's value bucket, an attribute's
//   bucket — gets a fresh generation stamp from one monotone counter,
//   and `publish_epoch` increases monotonically with every commit.
//
//   LIFETIME CONTRACT: probes must run either under the database's
//   shared (read) lock, or while no Rebuild/ApplyDirty can run (e.g.
//   a quiescent index in tests and benchmarks). Pointers returned by
//   ElementsByQname / PathPairProbe stay valid until the next commit.
//
//   Pre materializations are memoized in one map guarded by a leaf
//   mutex (memo_mu_). The memo is heterogeneous — entries are keyed on
//   (namespace, qname-or-pair key, op, literal as written) and cover
//   qname postings, path postings, child-value probes, attribute-owner
//   probes, and attribute-value probes. An entry is valid iff the
//   generation of its source bucket matches the current one
//   (generations are never reused, so there is no pointer ABA). Pre
//   ranks only shift in a structural commit, and the commit window
//   clears the map then, so every entry holds ranks of the current
//   structure. A value-only commit re-stamps just the buckets it
//   touches and leaves the map alone, so other tags' entries stay
//   warm. A probe that finds a stale entry overwrites it in place; by
//   the lifetime contract no reader can still hold it. DESIGN.md §3
//   records the end-to-end measurements that keep the memo.
#ifndef PXQ_INDEX_INDEX_MANAGER_H_
#define PXQ_INDEX_INDEX_MANAGER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "index/delta_index.h"
#include "obs/metrics.h"
#include "storage/paged_store.h"
#include "xpath/ast.h"

namespace pxq::index {

struct IndexConfig {
  /// Master switch; a disabled index declines every probe (the
  /// Database's scan-only mode).
  bool enabled = true;
  /// Paranoia mode: every accepted probe also runs the scan path and a
  /// divergence fails the query with Corruption. Bypasses the cost gate
  /// so tests exercise the index even on tiny documents.
  bool cross_check = false;
};

struct IndexStats {
  int64_t qname_keys = 0;        // distinct element tags indexed
  int64_t value_keys = 0;        // distinct (qname, string value) keys
  int64_t attr_value_keys = 0;   // distinct (attr qname, value) keys
  int64_t path_keys = 0;         // distinct (parent qname, qname) pair keys
  int64_t postings_entries = 0;  // NodeIds across qname postings
  int64_t complex_entries = 0;   // elements excluded from the value index
  int64_t node_states = 0;       // reverse-map entries (== live elements)
  int64_t bytes = 0;             // rough structure footprint
  int64_t build_micros = 0;      // duration of the last full Rebuild
  int64_t maintenance_ops = 0;   // dirty nodes re-derived since Rebuild
  int64_t applied_commits = 0;   // ApplyDirty calls (one per commit)
  int64_t probes = 0;            // planner consultations
  int64_t probe_hits = 0;        // probes the gate accepted
  int64_t path_probes = 0;       // path-index pair consultations
  int64_t path_hits = 0;         // accepted pair probes
  // Always 0: the path index holds pairs only. Kept because
  // bench/e2e/main.cc still reads them; dropped with the next benchmark
  // change (ROADMAP, bench_e2e item).
  int64_t chain_probes = 0;
  int64_t chain_hits = 0;
  int64_t child_step_hits = 0;   // child-axis name steps answered
  int64_t memo_hits = 0;         // qname/path materializations from memo
  int64_t memo_misses = 0;       // ... recomputed (cold or invalidated)
  int64_t memo_value_hits = 0;   // value/attr probes served from memo
  int64_t memo_value_misses = 0; // ... recomputed (cold or invalidated)
  int64_t memo_entries = 0;      // memo entries of every namespace
  int64_t memo_bytes = 0;        // memoized pre vectors (capacity)
  int64_t cross_check_mismatches = 0;
  // --- selectivity statistics (cardinality.h) -------------------------
  int64_t stat_keys = 0;         // distinct keys with cardinality stats
                                 // (postings + pairs + value/attr dict
                                 // keys + attr owner lists)
  int64_t histogram_buckets = 0; // non-empty numeric-histogram buckets
  int64_t estimator_probes = 0;  // cardinality-stat consultations
  int64_t plan_reorders = 0;     // plans whose op/predicate order the
                                 // estimator changed vs syntactic
  // --- plan-cache counters (filled by the Database layer, which owns
  // the process-wide compiled-plan cache; zero when queried straight
  // off an IndexManager) ----------------------------------------------
  int64_t plan_hits = 0;         // queries served from a cached plan
  int64_t plan_misses = 0;       // cold compiles + epoch-invalidated
  int64_t plan_evictions = 0;    // LRU capacity evictions
  // --- publication counters ------------------------------------------
  int64_t publish_epoch = 0;     // index publications, monotone
  int64_t structure_epoch = 0;   // publications that shifted pre ranks
};

class IndexManager {
 public:
  explicit IndexManager(IndexConfig config);
  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  const IndexConfig& config() const { return config_; }

  /// Cost gate: a probe is accepted only when its candidate count is at
  /// most kGateRatio times the caller's estimated scan work.
  static constexpr double kGateRatio = 0.5;

  /// Drop everything and re-derive from a full store scan (initial
  /// build, and crash recovery after the WAL replay reconstructed the
  /// base store). Must be serialized against probes (lifetime contract
  /// above).
  void Rebuild(const storage::PagedStore& store);

  /// Commit-time merge of a transaction's DeltaIndex overlay: each dirty
  /// node's entries are removed and re-derived against the *merged* base
  /// store, in place in the buckets. Call under the exclusive global
  /// lock, after oplog replay and size resolution.
  void ApplyDirty(const storage::PagedStore& store, const DeltaIndex& delta);

  // --- probes (consulted by xpath::Evaluator) -------------------------
  // Probes read the buckets without a lock of their own (only the
  // exclusive commit window mutates them); the memo takes its leaf
  // memo_mu_ for a lookup or an insert. Every probe returns
  // an empty result handle (nullptr / std::nullopt / false) when the
  // index declines (disabled, unsupported operator, or the cost gate
  // chose the scan); the caller then evaluates by scanning. Returned
  // lists are sorted, distinct pre lists valid for `store`'s current
  // structure; returned pointers stay valid until the next commit
  // (lifetime contract above).

  /// All elements tagged `qn`, in document order. `scan_cost` is the
  /// caller's estimate of the tuples a scan would visit.
  const std::vector<PreId>* ElementsByQname(const storage::PagedStore& store,
                                            QnameId qn,
                                            int64_t scan_cost) const;

  /// All elements tagged `self_qn` whose parent element is tagged
  /// `parent_qn` (path index), in document order. Pass parent_qn = -1
  /// for root elements (no parent). The returned pres are NOT
  /// level-anchored — a /a/b/c plan must still filter by level (and
  /// region-containment against survivors) on the caller side.
  const std::vector<PreId>* PathPairProbe(const storage::PagedStore& store,
                                          QnameId parent_qn, QnameId self_qn,
                                          int64_t scan_cost) const;

  /// Value probe for elements tagged `qn` whose string value satisfies
  /// (`op`, `literal`). Fills `simple` with exact matches and `complex`
  /// with the pre ranks of same-tag elements the value index does not
  /// cover (the caller must evaluate those individually). Declines kNe.
  /// Repeat probes with no intervening commit touching the tag's value
  /// bucket are served from the memo (memo_value_hits) — warm cost
  /// is a hash lookup + vector copy, not a re-collect + re-swizzle.
  bool ChildValueProbe(const storage::PagedStore& store, QnameId qn,
                       xpath::CmpOp op, const std::string& literal,
                       int64_t scan_cost, std::vector<PreId>* simple,
                       std::vector<PreId>* complex_rest) const;

  /// Owners of an attribute named `qn` (any value), in document order.
  std::optional<std::vector<PreId>> AttrOwners(
      const storage::PagedStore& store, QnameId qn, int64_t scan_cost) const;

  /// Owners of an attribute named `qn` whose value satisfies the
  /// comparison. Exact (attribute values are atomic). Declines kNe.
  std::optional<std::vector<PreId>> AttrValueProbe(
      const storage::PagedStore& store, QnameId qn, xpath::CmpOp op,
      const std::string& literal, int64_t scan_cost) const;

  // --- cardinality statistics (consulted by CardinalityEstimator) -----
  // Stat reads follow the probe pattern — read the buckets, no lock of
  // the index's own — but never gate, never materialize,
  // and never touch the memo: they are O(1)-ish bookkeeping lookups the
  // compiler can afford on every compile. Each call bumps
  // `estimator_probes`.

  /// Lightweight cardinality answer. `count` is the point estimate;
  /// `exact` means it was read straight off a posting/dictionary key
  /// (equality on an indexed key) rather than a histogram bucket.
  struct KeyStats {
    int64_t count = 0;
    bool exact = false;
    bool known = false;  // false: index disabled / no stats for the key
  };
  /// Elements tagged `qn` (the qname posting length).
  KeyStats TagStats(QnameId qn) const;
  /// Elements tagged `self_qn` under a `parent_qn` parent (same key
  /// space as PathPairProbe).
  KeyStats PairStats(QnameId parent_qn, QnameId self_qn) const;
  /// Elements tagged `qn` whose string value satisfies (op, literal).
  /// Numeric operands are canonicalized to the parsed double
  /// ("17" == "17.0", -0 == +0) before the histogram/sidecar lookup.
  /// Counts include the bucket's complex remainder (those elements must
  /// be evaluated per node, so they bound the candidate set).
  KeyStats ValueStats(QnameId qn, xpath::CmpOp op,
                      const std::string& literal) const;
  /// Owners of attribute `qn` (op == kEq with empty literal => any
  /// value), or owners whose attribute value satisfies (op, literal).
  KeyStats AttrStats(QnameId qn, bool any_value, xpath::CmpOp op,
                     const std::string& literal) const;
  /// Publication epoch: plans whose shape depended on stats
  /// stamp this and recompile when it moves (see xpath::PlanCache).
  uint64_t stats_epoch() const {
    return publish_epoch_.load(std::memory_order_acquire);
  }
  /// Compiler bookkeeping: a plan's op/predicate order was changed by
  /// the estimator (differs from syntactic source order).
  void NotePlanReorder() const { plan_reorders_.Inc(); }
  /// Executor bookkeeping (traced runs): actual vs estimated operator
  /// output cardinality, recorded as |log2(act/est)| scaled by 100 into
  /// the pxq_est_error histogram.
  void RecordEstimateError(int64_t est, int64_t act) const;

  void NoteCrossCheckMismatch() const;
  /// Planner bookkeeping: a child-axis name step answered from postings.
  void NoteChildStepHit() const { child_step_hits_.Inc(); }

  IndexStats Stats() const;

  /// Total probes issued across every family (qname/value/attr + pair).
  /// The executor reads this before/after an operator when tracing, so
  /// a profile attributes probes to the operator that issued them.
  int64_t ProbesIssued() const {
    return probes_.Value() + path_probes_.Value();
  }

  /// Latency of commit-side index maintenance (ApplyDirty, ns).
  const obs::Histogram& apply_dirty_hist() const { return apply_dirty_ns_; }

  /// Expose this index's counters and histograms through a registry.
  /// The registry holds REFERENCES to the same atomics the probe paths
  /// bump (no translation layer, no second source of truth); derived
  /// values (structure sizes, epochs) register as one Stats() group.
  void RegisterMetrics(obs::MetricsRegistry* reg) const;

 private:
  /// Generation-stamped postings: `gen` is assigned by the writer when
  /// the bucket is (re)created, never reused, so memo validation by
  /// generation cannot suffer pointer ABA.
  struct Postings {
    std::vector<NodeId> nodes;  // sorted
    uint64_t gen = 0;
  };
  /// Path-index key: the (parent tag, own tag) pair packed into 64
  /// bits (-1 parent = the document root), so a pair probe and its memo
  /// key are allocation-free.
  static uint64_t PairKey(QnameId parent_qn, QnameId self_qn) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(parent_qn)) << 32) |
           static_cast<uint32_t>(self_qn);
  }

  /// Value-dictionary entry; the key vanishes when `nodes` empties.
  struct ValueEntry {
    std::vector<NodeId> nodes;  // sorted
    bool numeric = false;       // key parses under the strict grammar
  };
  /// Equi-width histogram over a bucket's numeric sidecar, maintained
  /// incrementally by the writer alongside the sidecar itself. Bounds
  /// only widen: an insert outside [lo, hi] re-derives bounds and
  /// counts from the sidecar (rare — the sidecar is right there in the
  /// writer's hands), a remove just decrements. Estimate-only: bucket
  /// counts are upper bounds for equality, partial-bucket sums for
  /// ranges.
  struct NumericHistogram {
    static constexpr int kBuckets = 16;
    double lo = 0;
    double hi = 0;
    std::array<int64_t, kBuckets> counts{};
    int64_t total = 0;
    int BucketOf(double v) const {
      if (!(hi > lo)) return 0;
      const double t = (v - lo) / (hi - lo) * kBuckets;
      const int b = static_cast<int>(t);
      return b < 0 ? 0 : (b >= kBuckets ? kBuckets - 1 : b);
    }
  };
  struct ValueBucket {
    std::map<std::string, ValueEntry> by_string;      // sorted dictionary
    std::multimap<double, NodeId> by_number;          // numeric sidecar
    std::vector<NodeId> complex_elems;                // sorted
    NumericHistogram hist;                            // over by_number
    uint64_t gen = 0;  // stamped by every add and remove (memo source)
    bool empty() const {
      return by_string.empty() && by_number.empty() && complex_elems.empty();
    }
  };
  struct AttrBucket {
    std::vector<NodeId> owners;                       // sorted
    std::map<std::string, ValueEntry> by_string;
    std::multimap<double, NodeId> by_number;
    NumericHistogram hist;                            // over by_number
    uint64_t gen = 0;  // stamped by every add and remove (memo source)
    bool empty() const { return owners.empty(); }
  };
  struct AttrState {
    QnameId qn;
    std::string value;
    bool numeric;
    double num;
  };
  /// Reverse mapping: what the index currently holds for a node, so a
  /// dirty node's stale entries can be removed without re-reading any
  /// pre-edit store state. Writer-only (commit window).
  struct NodeState {
    QnameId qn = -1;
    /// Parent element's tag (-1 for the document root): with `qn` the
    /// node's pair key, so removal never re-reads pre-edit store state.
    QnameId parent_qn = -1;
    bool simple = false;
    bool numeric = false;
    double num = 0;
    std::string value;
    std::vector<AttrState> attrs;
  };

  /// The index's buckets, mutated in place by the writer inside the
  /// exclusive window. A bucket that empties drops its key, so probe
  /// misses stay O(1) map lookups and memory is reclaimed.
  struct Buckets {
    std::unordered_map<QnameId, Postings> postings;
    std::unordered_map<QnameId, ValueBucket> values;
    std::unordered_map<QnameId, AttrBucket> attrs;
    std::unordered_map<uint64_t, Postings> paths;  // keyed by PairKey
  };

  /// Heterogeneous memo key: one namespace per probe family sharing the
  /// one table. `key` is the qname (or the PairKey); value and
  /// attr-value probes additionally carry the comparison operator and
  /// the literal as written, so "17" and "17.0" take two entries, each
  /// exact.
  enum class MemoNs : uint8_t {
    kQname = 0,      // qname postings materialization
    kPath = 1,       // (parent, self) pair postings materialization
    kValue = 2,      // ChildValueProbe results
    kAttrOwners = 3, // AttrOwners results
    kAttrValue = 4,  // AttrValueProbe results
  };
  struct MemoKey {
    MemoNs ns = MemoNs::kQname;
    uint8_t op = 0;  // xpath::CmpOp for value namespaces, else 0
    uint64_t key = 0;      // qname or PairKey
    std::string operand;   // the literal (value namespaces)
    bool operator==(const MemoKey& o) const {
      return ns == o.ns && op == o.op && key == o.key &&
             operand == o.operand;
    }
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& k) const {
      uint64_t h = k.key * 0x9e3779b97f4a7c15ULL;
      h ^= (static_cast<uint64_t>(k.ns) << 8) | static_cast<uint64_t>(k.op);
      h ^= std::hash<std::string>{}(k.operand) + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  /// Memo of pre materializations. An entry is valid iff src_gen
  /// matches the generation of its source bucket: the qname or pair
  /// postings, the tag's value bucket, or the attribute's bucket.
  /// `candidates` is the gate input, cached so a warm probe can re-run
  /// the cost gate against the caller's current scan estimate without
  /// re-collecting matches.
  struct MemoEntry {
    uint64_t src_gen = 0;
    int64_t candidates = 0;
    std::vector<PreId> pres;
    std::vector<PreId> complex_pres;  // kValue only
  };
  /// Admission cap for value/attr memo keys: operands are
  /// user-controlled, so a read-only flood of distinct literals must
  /// stop growing the memo once it holds this many of them (see
  /// StoreMemo). Qname/path keys are exempt and do not count against
  /// the cap (their space is bounded by the document's tag structure,
  /// not by user-supplied operands). A memo that hit the cap is cleared
  /// in the next commit's exclusive window (PruneMemos), so memoization
  /// of new literals resumes — only a commitless workload keeps the
  /// full memo, and then its 256 admitted keys stay warm anyway.
  static constexpr size_t kValueMemoCap = 256;

  /// The probe counters ARE the observability counters: obs::Counter is
  /// the same cache-line-padded relaxed atomic the index always used
  /// (PR 2's PaddedCounter, hoisted into src/obs so every subsystem
  /// shares one primitive and RegisterMetrics needs no translation).
  using PaddedCounter = obs::Counter;

  // Writer helpers: REQUIRES(writer_mu_) — callers (Rebuild/ApplyDirty/
  // Stats) must hold the writer lock, and the analysis proves they do.
  // Every bucket a node's entries live in is stamped from next_gen_ on
  // each add and remove.
  void RemoveNode(NodeId node) PXQ_REQUIRES(writer_mu_);
  void AddNode(const storage::PagedStore& store, NodeId node, PreId pre,
               QnameId parent_qn) PXQ_REQUIRES(writer_mu_);
  /// End of a Rebuild/ApplyDirty: prune the memo and bump the epochs.
  void Publish(bool structural) PXQ_REQUIRES(writer_mu_);
  /// Clear the memo when pre ranks shifted (`structural`) or the value
  /// keys hit kValueMemoCap. Runs in the exclusive window, so no probe
  /// holds an entry.
  void PruneMemos(bool structural) PXQ_REQUIRES(writer_mu_);

  bool Gate(int64_t candidates, int64_t scan_cost) const;
  /// Swizzle a sorted NodeId postings list into a sorted pre list.
  std::vector<PreId> ToPres(const storage::PagedStore& store,
                            const std::vector<NodeId>& nodes) const;
  // Memo plumbing shared by every probe family, each call one short
  // memo_mu_ section. FindMemo returns the entry for `key` if its
  // generations match; StoreMemo inserts a freshly filled entry and
  // returns the entry to serve (a racing filler's one if it has the
  // same generations), or nullptr when the value-key cap refuses it.
  // Returned entries stay valid until the next commit (node-based map,
  // and only stale entries are ever overwritten).
  const MemoEntry* FindMemo(const MemoKey& key, uint64_t src_gen) const
      PXQ_EXCLUDES(memo_mu_);
  const MemoEntry* StoreMemo(const MemoKey& key, MemoEntry entry) const
      PXQ_EXCLUDES(memo_mu_);
  /// Memoized pre materialization of one postings bucket, keyed by the
  /// caller-built MemoKey (qname or pair namespace).
  const std::vector<PreId>* MemoizedPres(const storage::PagedStore& store,
                                         const MemoKey& mk,
                                         const Postings& src) const;
  /// Memo key for a value/attr probe over (qn, op, literal).
  static MemoKey ValueMemoKey(MemoNs ns, QnameId qn, xpath::CmpOp op,
                              const std::string& literal);
  /// Collect matches of (op, literal) from a dictionary + sidecar pair.
  static void CollectMatches(const std::map<std::string, ValueEntry>& dict,
                             const std::multimap<double, NodeId>& sidecar,
                             xpath::CmpOp op, const std::string& literal,
                             std::vector<NodeId>* out);
  // Dictionary + numeric sidecar + histogram maintenance of one value
  // or attribute bucket for one (value, node) pair.
  template <typename Bucket>
  static void DictInsert(Bucket* b, const std::string& value, bool numeric,
                         double num, NodeId node);
  template <typename Bucket>
  static void DictErase(Bucket* b, const std::string& value, bool numeric,
                        double num, NodeId node);
  // Numeric-histogram maintenance (writer side, inside the exclusive
  // window). Insert AFTER the sidecar insert — out-of-bounds
  // values widen the bounds and rebuild counts from the sidecar.
  static void HistInsert(NumericHistogram* h, double v,
                         const std::multimap<double, NodeId>& sidecar);
  static void HistRemove(NumericHistogram* h, double v);
  /// Estimated matches of (op, x) against a histogram: the covering
  /// bucket count for equality, whole buckets + a uniform fraction of
  /// the boundary bucket for ordered operators.
  static int64_t HistEstimate(const NumericHistogram& h, xpath::CmpOp op,
                              double x);
  /// Shared body of ValueStats/AttrStats over one dictionary + sidecar
  /// + histogram triple.
  static KeyStats DictStats(const std::map<std::string, ValueEntry>& dict,
                            const std::multimap<double, NodeId>& sidecar,
                            const NumericHistogram& hist, xpath::CmpOp op,
                            const std::string& literal);

  IndexConfig config_;
  Buckets data_;

  /// Leaf lock over the memo, taken by probes (under the shared
  /// GlobalLock) and by PruneMemos/Stats (under writer_mu_). It never
  /// wraps another acquisition.
  mutable Mutex memo_mu_;
  mutable std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> memo_
      PXQ_GUARDED_BY(memo_mu_);
  /// Entries outside the qname/path namespaces (kValueMemoCap).
  mutable size_t memo_value_entries_ PXQ_GUARDED_BY(memo_mu_) = 0;

  /// Serializes writers (Rebuild vs direct test callers; commits are
  /// already exclusive) and guards the writer-only state below. Stats()
  /// takes it too (it walks the buckets writers mutate); probes never
  /// do.
  mutable Mutex writer_mu_;
  std::unordered_map<NodeId, NodeState> node_state_
      PXQ_GUARDED_BY(writer_mu_);
  uint64_t next_gen_ PXQ_GUARDED_BY(writer_mu_) = 0;
  int64_t maintenance_ops_ PXQ_GUARDED_BY(writer_mu_) = 0;
  int64_t applied_commits_ PXQ_GUARDED_BY(writer_mu_) = 0;
  int64_t build_micros_ PXQ_GUARDED_BY(writer_mu_) = 0;
  /// Publications that shifted pre ranks (a statistic only).
  uint64_t structure_epoch_ PXQ_GUARDED_BY(writer_mu_) = 1;

  std::atomic<uint64_t> publish_epoch_{0};

  // Hot-path counters are padded to their own cache lines and bumped
  // with relaxed atomics — probes run concurrently, so a plain
  // increment here would be a data race (TSan-visible), not just a
  // lost count. Hits are derived in Stats() as probes - declines so
  // the hit path pays no second increment.
  PaddedCounter probes_;
  PaddedCounter probe_declines_;
  PaddedCounter path_probes_;
  PaddedCounter path_declines_;
  PaddedCounter child_step_hits_;
  PaddedCounter memo_hits_;
  PaddedCounter memo_misses_;
  PaddedCounter memo_value_hits_;
  PaddedCounter memo_value_misses_;
  PaddedCounter cross_check_mismatches_;
  PaddedCounter estimator_probes_;
  PaddedCounter plan_reorders_;
  /// Commit-side maintenance latency (ns per ApplyDirty call). Recorded
  /// inside the exclusive window, so a relaxed histogram is plenty.
  obs::Histogram apply_dirty_ns_;
  /// Estimator misestimate magnitude: |log2(act/est)| * 100 per traced
  /// operator (0 = perfect, 100 = off by 2x, 300 = off by 8x).
  obs::Histogram est_error_;
};

}  // namespace pxq::index

#endif  // PXQ_INDEX_INDEX_MANAGER_H_
