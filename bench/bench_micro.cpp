// Google-benchmark micro harness covering:
//   E3 — the three Fig. 7 insert paths (hole fill / within-page shift /
//        page overflow) and the fill-factor sweep;
//   E5 — staircase-join positional skipping vs a naive full scan, and
//        the hole-skipping overhead as pages empty out;
//   E6 — the node -> pre swizzle (node/pos lookup + pageOffset
//        arithmetic) vs the read-only schema's identity;
//   E7 — shredding throughput into both schemas.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/random.h"
#include "index/index_manager.h"
#include "storage/paged_store.h"
#include "storage/read_only_store.h"
#include "storage/shredder.h"
#include "xmark/generator.h"
#include "xpath/evaluator.h"
#include "xpath/staircase.h"

namespace pxq {
namespace {

std::string XmarkXml(double factor = 0.01) {
  xmark::GeneratorOptions opt;
  opt.factor = factor;
  return xmark::Generate(opt);
}

std::unique_ptr<storage::ReadOnlyStore> BuildRo(const std::string& xml) {
  return storage::ReadOnlyStore::Build(
      std::move(storage::ShredXml(xml).value()));
}

std::unique_ptr<storage::PagedStore> BuildUp(const std::string& xml,
                                             double fill = 0.8,
                                             int32_t page = 1 << 12) {
  storage::PagedStore::Config cfg;
  cfg.page_tuples = page;
  cfg.shred_fill = fill;
  return std::move(
      storage::PagedStore::Build(std::move(storage::ShredXml(xml).value()),
                                 cfg)
          .value());
}

// --------------------------------------------------------------------------
// E5: staircase descendant step vs naive scan
// --------------------------------------------------------------------------

void BM_DescendantStaircaseRo(benchmark::State& state) {
  static const std::string xml = XmarkXml();
  static const auto store = BuildRo(xml);
  auto people = xpath::EvaluatePath(*store, "/site/people").value();
  for (auto _ : state) {
    auto d = xpath::StaircaseDescendant(*store, people);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DescendantStaircaseRo);

void BM_DescendantStaircaseUp(benchmark::State& state) {
  static const std::string xml = XmarkXml();
  static const auto store = BuildUp(xml);
  auto people = xpath::EvaluatePath(*store, "/site/people").value();
  for (auto _ : state) {
    auto d = xpath::StaircaseDescendant(*store, people);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_DescendantStaircaseUp);

void BM_DescendantNaiveScan(benchmark::State& state) {
  // Baseline without skipping: test every used tuple against the region.
  static const std::string xml = XmarkXml();
  static const auto store = BuildUp(xml);
  auto people = xpath::EvaluatePath(*store, "/site/people").value();
  PreId c = people[0];
  for (auto _ : state) {
    std::vector<PreId> out;
    int64_t sz = store->SizeAt(c);
    for (PreId p = 0; p < store->view_size(); ++p) {
      if (store->IsUsed(p) && p > c && p <= c + sz) out.push_back(p);
    }
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_DescendantNaiveScan);

/// Child iteration with sibling size-skips — the paper's "skipping to a
/// particular node ... at the cost of a single CPU instruction".
void BM_ChildStepUp(benchmark::State& state) {
  static const std::string xml = XmarkXml();
  static const auto store = BuildUp(xml);
  auto auctions =
      xpath::EvaluatePath(*store, "/site/open_auctions").value();
  for (auto _ : state) {
    int64_t n = 0;
    xpath::ForEachChild(*store, auctions[0], [&](PreId) { ++n; });
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_ChildStepUp);

/// Hole-skip overhead: a full-document descendant scan at various fill
/// factors. Lower fill => more holes to hop over.
void BM_HoleSkipSweep(benchmark::State& state) {
  double fill = static_cast<double>(state.range(0)) / 100.0;
  std::string xml = XmarkXml();
  auto store = BuildUp(xml, fill, 1 << 10);
  for (auto _ : state) {
    int64_t n = 0;
    for (PreId p = store->SkipHoles(0); p < store->view_size();
         p = store->SkipHoles(p + 1)) {
      ++n;
    }
    benchmark::DoNotOptimize(n);
  }
  state.counters["fill%"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_HoleSkipSweep)->Arg(100)->Arg(80)->Arg(50)->Arg(25);

// --------------------------------------------------------------------------
// E6: node -> pre swizzle
// --------------------------------------------------------------------------

void BM_SwizzleNodeToPre(benchmark::State& state) {
  static const std::string xml = XmarkXml();
  static const auto store = BuildUp(xml);
  // Sample live node ids.
  std::vector<NodeId> nodes;
  for (PreId p = store->SkipHoles(0); p < store->view_size();
       p = store->SkipHoles(p + 1)) {
    nodes.push_back(store->NodeAt(p));
  }
  Random rng(5);
  for (auto _ : state) {
    NodeId n = nodes[rng.Uniform(nodes.size())];
    auto pre = store->PreOfNode(n);
    benchmark::DoNotOptimize(pre);
  }
}
BENCHMARK(BM_SwizzleNodeToPre);

void BM_AttrLookupRo(benchmark::State& state) {
  static const std::string xml = XmarkXml();
  static const auto store = BuildRo(xml);
  auto items = xpath::EvaluatePath(*store, "/site/regions//item").value();
  Random rng(5);
  std::vector<int32_t> rows;
  for (auto _ : state) {
    PreId p = items[rng.Uniform(items.size())];
    store->attrs().Lookup(store->AttrOwnerOf(p), &rows);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_AttrLookupRo);

void BM_AttrLookupUp(benchmark::State& state) {
  static const std::string xml = XmarkXml();
  static const auto store = BuildUp(xml);
  auto items = xpath::EvaluatePath(*store, "/site/regions//item").value();
  Random rng(5);
  std::vector<int32_t> rows;
  for (auto _ : state) {
    PreId p = items[rng.Uniform(items.size())];
    store->attrs().Lookup(store->AttrOwnerOf(p), &rows);
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_AttrLookupUp);

// --------------------------------------------------------------------------
// E3: the three insert paths (Fig. 7)
// --------------------------------------------------------------------------

void InsertPathBench(benchmark::State& state, double fill) {
  // Re-built per iteration batch so the free space doesn't run out.
  std::string xml = XmarkXml(0.002);
  std::vector<storage::NewTuple> one;
  int64_t done = 0;
  std::unique_ptr<storage::PagedStore> store;
  PreId target = 0;
  auto rebuild = [&] {
    store = BuildUp(xml, fill, 256);
    one = {{0, NodeKind::kElement, store->pools().InternQname("b")}};
    target = xpath::EvaluatePath(*store, "/site/open_auctions").value()[0];
  };
  rebuild();
  for (auto _ : state) {
    if (done++ % 64 == 0) {
      state.PauseTiming();
      rebuild();
      state.ResumeTiming();
    }
    auto ids = store->InsertTuples(target + 1, target, one);
    benchmark::DoNotOptimize(ids);
  }
  const auto& st = store->stats();
  state.counters["holefill"] = static_cast<double>(st.hole_fill_inserts);
  state.counters["within"] = static_cast<double>(st.within_page_inserts);
  state.counters["overflow"] = static_cast<double>(st.overflow_inserts);
}

void BM_InsertRoomyPages(benchmark::State& state) {
  InsertPathBench(state, 0.5);  // plenty of holes: hole-fill/within-page
}
BENCHMARK(BM_InsertRoomyPages);

void BM_InsertFullPages(benchmark::State& state) {
  InsertPathBench(state, 1.0);  // no holes: every insert overflows
}
BENCHMARK(BM_InsertFullPages);

// --------------------------------------------------------------------------
// E7: shredding throughput + storage footprint
// --------------------------------------------------------------------------

void BM_ShredReadOnly(benchmark::State& state) {
  std::string xml = XmarkXml();
  for (auto _ : state) {
    auto store = BuildRo(xml);
    benchmark::DoNotOptimize(store);
  }
  auto store = BuildRo(xml);
  state.counters["bytes/node"] =
      static_cast<double>(store->NodeTableBytes()) /
      static_cast<double>(store->used_count());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_ShredReadOnly);

void BM_ShredPaged(benchmark::State& state) {
  std::string xml = XmarkXml();
  for (auto _ : state) {
    auto store = BuildUp(xml);
    benchmark::DoNotOptimize(store);
  }
  auto store = BuildUp(xml);
  state.counters["bytes/node"] =
      static_cast<double>(store->NodeTableBytes()) /
      static_cast<double>(store->used_count());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_ShredPaged);

// --------------------------------------------------------------------------
// E8: secondary indexes — descendant name steps and value/attribute
// predicates, index probe vs scan, at three document scales. The
// indexed variants also report index build time and footprint from
// IndexStats.
// --------------------------------------------------------------------------

constexpr double kIndexScales[] = {0.002, 0.01, 0.04};

struct IndexedFixture {
  std::unique_ptr<storage::PagedStore> store;
  std::unique_ptr<index::IndexManager> index;
};

const IndexedFixture& IndexedAt(int scale_idx) {
  static IndexedFixture fixtures[3];
  IndexedFixture& f = fixtures[scale_idx];
  if (!f.store) {
    f.store = BuildUp(XmarkXml(kIndexScales[scale_idx]));
    f.index = std::make_unique<index::IndexManager>(index::IndexConfig{});
    f.index->Rebuild(*f.store);
  }
  return f;
}

void ReportIndexCounters(benchmark::State& state,
                         const IndexedFixture& f) {
  auto s = f.index->Stats();
  state.counters["nodes"] = static_cast<double>(f.store->used_count());
  state.counters["build_ms"] = static_cast<double>(s.build_micros) / 1000.0;
  state.counters["index_MB"] =
      static_cast<double>(s.bytes) / (1024.0 * 1024.0);
}

void RunQuery(benchmark::State& state, const IndexedFixture& f,
              const char* query, bool use_index) {
  xpath::Evaluator<storage::PagedStore> ev(
      *f.store, use_index ? f.index.get() : nullptr);
  auto path = xpath::ParsePath(query).value();
  int64_t results = 0;
  for (auto _ : state) {
    auto r = ev.Eval(path);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    results = static_cast<int64_t>(r.value().size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["results"] = static_cast<double>(results);
  if (use_index) ReportIndexCounters(state, f);
}

void BM_DescendantNameScan(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))), "//item",
           /*use_index=*/false);
}
BENCHMARK(BM_DescendantNameScan)->DenseRange(0, 2);

void BM_DescendantNameIndexed(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))), "//item",
           /*use_index=*/true);
}
BENCHMARK(BM_DescendantNameIndexed)->DenseRange(0, 2);

void BM_AttrEqPredicateScan(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))),
           "/site/people/person[@id='person0']", /*use_index=*/false);
}
BENCHMARK(BM_AttrEqPredicateScan)->DenseRange(0, 2);

// last:1 looks up the last of the <person> siblings instead of the
// first: a lookup's cost must not grow with its node's position.
void BM_AttrEqPredicateIndexed(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(static_cast<int>(state.range(0)));
  int64_t id = 0;
  if (state.range(1) != 0) {
    xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get());
    id = static_cast<int64_t>(ev.Eval("/site/people/person")->size()) - 1;
  }
  const std::string q =
      "/site/people/person[@id='person" + std::to_string(id) + "']";
  RunQuery(state, f, q.c_str(), /*use_index=*/true);
}
BENCHMARK(BM_AttrEqPredicateIndexed)
    ->ArgsProduct({{0, 1, 2}, {0, 1}})
    ->ArgNames({"scale", "last"});

void BM_ChildRangePredicateScan(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))),
           "/site/open_auctions/open_auction[reserve>100]",
           /*use_index=*/false);
}
BENCHMARK(BM_ChildRangePredicateScan)->DenseRange(0, 2);

void BM_ChildRangePredicateIndexed(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))),
           "/site/open_auctions/open_auction[reserve>100]",
           /*use_index=*/true);
}
BENCHMARK(BM_ChildRangePredicateIndexed)->DenseRange(0, 2);

void BM_IndexRebuild(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(static_cast<int>(state.range(0)));
  index::IndexConfig cfg;
  for (auto _ : state) {
    index::IndexManager idx(cfg);
    idx.Rebuild(*f.store);
    benchmark::DoNotOptimize(idx);
  }
  ReportIndexCounters(state, f);
}
BENCHMARK(BM_IndexRebuild)->DenseRange(0, 2);

// Warm value/attribute probes: the same probe repeated with no
// intervening commit, so after the first iteration every call is a
// memo hit (validate generations + copy the cached pre vector).

void ValueProbeBench(benchmark::State& state, const IndexedFixture& f) {
  QnameId reserve = f.store->pools().FindQname("reserve");
  std::vector<PreId> simple, complex_rest;
  const int64_t big = 1ll << 40;  // gate always accepts
  for (auto _ : state) {
    bool ok = f.index->ChildValueProbe(*f.store, reserve, xpath::CmpOp::kGt,
                                       "100", big, &simple, &complex_rest);
    if (!ok) {
      state.SkipWithError("probe declined");
      return;
    }
    benchmark::DoNotOptimize(simple);
  }
  state.counters["results"] = static_cast<double>(simple.size());
  auto s = f.index->Stats();
  state.counters["value_memo_hits"] =
      static_cast<double>(s.memo_value_hits);
}

void BM_ValueRangeProbeWarm(benchmark::State& state) {
  ValueProbeBench(state, IndexedAt(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_ValueRangeProbeWarm)->DenseRange(0, 2);

void AttrProbeBench(benchmark::State& state, const IndexedFixture& f) {
  QnameId id = f.store->pools().FindQname("id");
  const int64_t big = 1ll << 40;
  size_t results = 0;
  for (auto _ : state) {
    // Lexicographic range over @id (>= "category" covers the
    // category/item/open_auction/person id spellings): a large match
    // set, so a memo miss is dominated by the swizzle.
    auto owners = f.index->AttrValueProbe(*f.store, id, xpath::CmpOp::kGe,
                                          "category", big);
    if (!owners) {
      state.SkipWithError("probe declined");
      return;
    }
    results = owners->size();
    benchmark::DoNotOptimize(owners);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_AttrRangeProbeWarm(benchmark::State& state) {
  AttrProbeBench(state, IndexedAt(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_AttrRangeProbeWarm)->DenseRange(0, 2);

void AttrOwnersBench(benchmark::State& state, const IndexedFixture& f) {
  QnameId id = f.store->pools().FindQname("id");
  const int64_t big = 1ll << 40;
  size_t results = 0;
  for (auto _ : state) {
    auto owners = f.index->AttrOwners(*f.store, id, big);
    if (!owners) {
      state.SkipWithError("probe declined");
      return;
    }
    results = owners->size();
    benchmark::DoNotOptimize(owners);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_AttrOwnersProbeWarm(benchmark::State& state) {
  AttrOwnersBench(state, IndexedAt(static_cast<int>(state.range(0))));
}
BENCHMARK(BM_AttrOwnersProbeWarm)->DenseRange(0, 2);

// Multi-step path prefix (/a/b/c/d/e) via the pair cascade, vs
// stepwise child walks.
constexpr const char* kChainQuery =
    "/site/open_auctions/open_auction/bidder/increase";

void BM_PathPrefixScan(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))), kChainQuery,
           /*use_index=*/false);
}
BENCHMARK(BM_PathPrefixScan)->DenseRange(0, 2);

void BM_PathPrefixIndexed(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))), kChainQuery,
           /*use_index=*/true);
}
BENCHMARK(BM_PathPrefixIndexed)->DenseRange(0, 2);

// Deep-path pair cascade: one probe per level below the root, so the
// depth-5 XMark query issues 4 cascade probes; `cascade_probes`
// reports the measured per-query probe count next to the latency.
void BM_DeepPathPairwiseK2(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(static_cast<int>(state.range(0)));
  xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get());
  auto path = xpath::ParsePath(kChainQuery).value();
  const auto before = f.index->Stats();
  int64_t results = 0;
  for (auto _ : state) {
    auto r = ev.Eval(path);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    results = static_cast<int64_t>(r.value().size());
    benchmark::DoNotOptimize(r);
  }
  const auto after = f.index->Stats();
  state.counters["results"] = static_cast<double>(results);
  state.counters["cascade_probes"] =
      static_cast<double>(after.path_probes - before.path_probes) /
      static_cast<double>(state.iterations());
  ReportIndexCounters(state, f);
}
BENCHMARK(BM_DeepPathPairwiseK2)->DenseRange(0, 2);

// Child-axis name step below a descendant step: `europe` elements are
// found via postings, then `item` children via the child-step plan.
void BM_ChildStepScan(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))),
           "//regions/europe/item", /*use_index=*/false);
}
BENCHMARK(BM_ChildStepScan)->DenseRange(0, 2);

void BM_ChildStepIndexed(benchmark::State& state) {
  RunQuery(state, IndexedAt(static_cast<int>(state.range(0))),
           "//regions/europe/item", /*use_index=*/true);
}
BENCHMARK(BM_ChildStepIndexed)->DenseRange(0, 2);

// Loop-lifted sub-plans, through a warm plan cache (execution only):
// Q16's nine-step exists predicate over every closed_auction, and Q2's
// positional bidder[1] over every open_auction. Each sub-plan runs once
// over its whole context, its child steps joined against the pair
// buckets (indexed) or walked by the lifted child scan (scan).
constexpr const char* kSubPlanExists =
    "/site/closed_auctions/closed_auction[annotation/description/parlist/"
    "listitem/parlist/listitem/text/emph/keyword]";
constexpr const char* kSubPlanFirstChild =
    "/site/open_auctions/open_auction/bidder[1]/increase";

void RunCachedQuery(benchmark::State& state, const char* query,
                    bool use_index) {
  const IndexedFixture& f = IndexedAt(static_cast<int>(state.range(0)));
  xpath::PlanCache cache;
  xpath::Evaluator<storage::PagedStore> ev(
      *f.store, use_index ? f.index.get() : nullptr, &cache);
  int64_t results = 0;
  for (auto _ : state) {
    auto r = ev.Eval(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    results = static_cast<int64_t>(r.value().size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_SubPlanExistsScan(benchmark::State& state) {
  RunCachedQuery(state, kSubPlanExists, /*use_index=*/false);
}
BENCHMARK(BM_SubPlanExistsScan)->DenseRange(0, 2);

void BM_SubPlanExistsIndexed(benchmark::State& state) {
  RunCachedQuery(state, kSubPlanExists, /*use_index=*/true);
}
BENCHMARK(BM_SubPlanExistsIndexed)->DenseRange(0, 2);

void BM_SubPlanFirstChildScan(benchmark::State& state) {
  RunCachedQuery(state, kSubPlanFirstChild, /*use_index=*/false);
}
BENCHMARK(BM_SubPlanFirstChildScan)->DenseRange(0, 2);

void BM_SubPlanFirstChildIndexed(benchmark::State& state) {
  RunCachedQuery(state, kSubPlanFirstChild, /*use_index=*/true);
}
BENCHMARK(BM_SubPlanFirstChildIndexed)->DenseRange(0, 2);

// Compile-once plan cache: repeated evaluation of the SAME query text.
// "Cold" is the per-call pipeline (parse + compile + execute every
// iteration — what every query paid before the plan cache); "warm"
// attaches a PlanCache, so after the first iteration every call is a
// cache hit: pool-generation validation + executing the cached plan.
// The acceptance bar is warm >= 2x cold on the depth-5 path query at
// the smallest scale (index 0), where the per-call parse + compile
// overhead is visible; at larger scales result materialization
// dominates both variants and the ratio tapers off.
void BM_PlanCacheCold(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(static_cast<int>(state.range(0)));
  xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get());
  int64_t results = 0;
  for (auto _ : state) {
    auto r = ev.Eval(kChainQuery);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    results = static_cast<int64_t>(r.value().size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["results"] = static_cast<double>(results);
}
BENCHMARK(BM_PlanCacheCold)->DenseRange(0, 2);

void BM_PlanCacheWarm(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(static_cast<int>(state.range(0)));
  xpath::PlanCache cache;
  xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get(),
                                           &cache);
  int64_t results = 0;
  for (auto _ : state) {
    auto r = ev.Eval(kChainQuery);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    results = static_cast<int64_t>(r.value().size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["plan_hits"] =
      static_cast<double>(cache.stats().hits);
}
BENCHMARK(BM_PlanCacheWarm)->DenseRange(0, 2);

// Point lookups through a warm cache keyed by query shape: every
// iteration binds a new person{N} literal (cycling through every
// person id), so it pays the shape pass, the hit on the one shared
// plan, the per-literal re-check of its fusion choice and the run.
void BM_PlanCacheLiterals(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(static_cast<int>(state.range(0)));
  xpath::PlanCache cache;
  xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get(),
                                           &cache);
  const auto persons = ev.Eval("/site/people/person");
  if (!persons.ok() || persons->empty()) {
    state.SkipWithError("no persons");
    return;
  }
  std::vector<std::string> texts;
  for (size_t i = 0; i < persons->size(); ++i) {
    texts.push_back("/site/people/person[@id='person" + std::to_string(i) +
                    "']/name");
  }
  if (!ev.Eval(texts[0]).ok()) {  // warm: the shape's one compile
    state.SkipWithError("warm-up lookup failed");
    return;
  }
  size_t next = 0;
  for (auto _ : state) {
    auto r = ev.Eval(texts[next]);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
    next = next + 1 == texts.size() ? 0 : next + 1;
  }
  state.counters["plan_hits"] = static_cast<double>(cache.stats().hits);
  state.counters["plans"] = static_cast<double>(cache.size());
}
BENCHMARK(BM_PlanCacheLiterals)->DenseRange(0, 2);

// --------------------------------------------------------------------------
// E10: selectivity-driven planning — adversarial predicate source
// order and cascade seed choice. Cold compiles (no plan cache): the
// estimator runs at compile time, so every iteration pays plan +
// estimate + run, which is exactly the path a first-seen query takes.
// --------------------------------------------------------------------------

struct SelectivityFixture {
  std::unique_ptr<storage::PagedStore> store;
  std::unique_ptr<index::IndexManager> index;
};

const SelectivityFixture& SelectivityAt() {
  static SelectivityFixture f;
  if (!f.store) {
    f.store = BuildUp(XmarkXml(0.04));
    f.index = std::make_unique<index::IndexManager>(index::IndexConfig{});
    f.index->Rebuild(*f.store);
  }
  return f;
}

void RunColdSelectivity(benchmark::State& state, const char* query) {
  const SelectivityFixture& f = SelectivityAt();
  xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get());
  int64_t results = 0;
  for (auto _ : state) {
    auto r = ev.Eval(query);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    results = static_cast<int64_t>(r.value().size());
    benchmark::DoNotOptimize(r);
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["plan_reorders"] =
      static_cast<double>(f.index->Stats().plan_reorders);
}

// Adversarial source order: the broad exists predicates come first
// ([name] and [emailaddress] match every person), the one-match
// attribute equality last. The cost-based plan probes @id first
// (estimate 1, gate-accepted) and fuses it into the path prefix
// instead of dragging ~all persons through two predicate passes.
const char* kReorderQuery =
    "/site/people/person[name][emailaddress][@id='person7']";

void BM_PredicateReorderCostBased(benchmark::State& state) {
  RunColdSelectivity(state, kReorderQuery);
}
BENCHMARK(BM_PredicateReorderCostBased);

// Pair cascade on a path whose deep pair is the selective one: the
// (people, person) and (person, profile) pairs hold every person (or
// most), the (profile, gender) pair only ~22% of them. The cascade
// seeds from the one-entry (site, people) pair and joins down level by
// level, so the downward joins walk every person. This bench measures
// that plan as it is, not a rare-pair seed that a cost rule judging a
// seed by the work it saves might pick. (The name is kept: the bench
// trajectory tracks it.)
const char* kCascadeQuery = "/site/people/person/profile/gender";

void BM_CascadeOrderCostBased(benchmark::State& state) {
  RunColdSelectivity(state, kCascadeQuery);
}
BENCHMARK(BM_CascadeOrderCostBased);

// Concurrent probes over one shared index at the mid scale. Probes
// read the buckets without a lock and take the memo's leaf mutex only
// for one short lookup, so per-op time should stay flat and items/sec
// grow with the thread count. UseRealTime makes the per-thread time
// comparable across thread counts.
void BM_ConcurrentDescendantProbe(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(1);
  xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get());
  auto path = xpath::ParsePath("//item").value();
  for (auto _ : state) {
    auto r = ev.Eval(path);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentDescendantProbe)->ThreadRange(1, 8)->UseRealTime();

void BM_ConcurrentAttrProbe(benchmark::State& state) {
  const IndexedFixture& f = IndexedAt(1);
  xpath::Evaluator<storage::PagedStore> ev(*f.store, f.index.get());
  auto path =
      xpath::ParsePath("/site/people/person[@id='person0']").value();
  for (auto _ : state) {
    auto r = ev.Eval(path);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConcurrentAttrProbe)->ThreadRange(1, 8)->UseRealTime();

}  // namespace
}  // namespace pxq

BENCHMARK_MAIN();
