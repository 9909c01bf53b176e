// Compile-once query pipeline tests: compiler operator shapes (chain
// decomposition, predicate shape baking, name resolution), plan-cache
// hit/miss + epoch invalidation (qname-pool growth, compile-environment
// fingerprint change, cross-transaction sharing), explain-vs-execution
// agreement, and the global-lock contention counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "database.h"
#include "index/index_manager.h"
#include "storage/paged_store.h"
#include "storage/shredder.h"
#include "xpath/compiler.h"
#include "xpath/evaluator.h"
#include "xpath/plan.h"
#include "xpath/plan_cache.h"
#include "xpath/reference_eval.h"

namespace pxq {
namespace {

using xpath::OpKind;
using xpath::Plan;

constexpr const char* kDoc =
    "<site>"
    "<people>"
    "<person id='p0'><name>n0</name><age>30</age></person>"
    "<person id='p1'><name>n1</name><age>41</age></person>"
    "<person id='p2'><name>n2</name><age>55</age></person>"
    "</people>"
    "<regions><zone><area>"
    "<item k='1'><price>10</price></item>"
    "<item k='2'><price>20</price></item>"
    "</area></zone></regions>"
    "</site>";

std::unique_ptr<storage::PagedStore> BuildStore(const std::string& xml) {
  storage::PagedStore::Config cfg;
  cfg.page_tuples = 16;
  cfg.shred_fill = 0.75;
  auto dense = storage::ShredXml(xml);
  EXPECT_TRUE(dense.ok()) << dense.status().ToString();
  auto store = storage::PagedStore::Build(std::move(dense).value(), cfg);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::vector<OpKind> Kinds(const Plan& plan) {
  std::vector<OpKind> out;
  for (const auto& op : plan.ops) out.push_back(op.kind);
  return out;
}

// ---------------------------------------------------------------------------
// Compiler: operator shapes
// ---------------------------------------------------------------------------

TEST(CompilerTest, BakesChainDecompositionAndPredicateShapes) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);

  // The plain child-name run stops at the predicated step: the cascade
  // consumes /site/people, then person compiles to a child step + an
  // attribute-shaped gate, then name to a child step.
  auto plan =
      xpath::CompileText("/site/people/person[@id='p0']/name",
                         store->pools(), &idx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(Kinds(plan.value()),
            (std::vector<OpKind>{OpKind::kChainProbe, OpKind::kChildStep,
                                 OpKind::kValueProbeGate,
                                 OpKind::kChildStep}));
  EXPECT_EQ(plan->ops[0].consumed, 2u);
  EXPECT_EQ(plan->ops[0].probes.size(), 1u);
  EXPECT_EQ(plan->ops[2].shape, xpath::PredShape::kAttr);
  EXPECT_GE(plan->ops[2].attr_qn, 0);
  EXPECT_TRUE(plan->fully_resolved);

  // Depth-5 path: one (parent, self) pair probe per level below the
  // root = 4 probes, probe i's self tags at absolute level i+1.
  auto deep = xpath::CompileText("/site/regions/zone/area/item",
                                 store->pools(), &idx);
  ASSERT_TRUE(deep.ok());
  ASSERT_EQ(deep->ops.size(), 1u);
  EXPECT_EQ(deep->ops[0].kind, OpKind::kChainProbe);
  EXPECT_EQ(deep->ops[0].consumed, 5u);
  ASSERT_EQ(deep->ops[0].probes.size(), 4u);
  EXPECT_EQ(deep->ops[0].probes[0].parent_qn,
            store->pools().FindQname("site"));
  EXPECT_EQ(deep->ops[0].probes[0].self_qn,
            store->pools().FindQname("regions"));
  EXPECT_EQ(deep->ops[0].probes[0].abs_level, 1);
  EXPECT_EQ(deep->ops[0].probes[3].parent_qn,
            store->pools().FindQname("area"));
  EXPECT_EQ(deep->ops[0].probes[3].abs_level, 4);

  // Non-leading positional steps fold axis + predicates into one
  // per-origin op; a LEADING positional predicate stays a list filter
  // (single conceptual origin: the document node).
  auto pos = xpath::CompileText("/site/people/person[2]", store->pools(),
                                &idx);
  ASSERT_TRUE(pos.ok());
  EXPECT_EQ(Kinds(pos.value()),
            (std::vector<OpKind>{OpKind::kChainProbe,
                                 OpKind::kPositionFilter}));
  EXPECT_TRUE(pos->ops[1].per_origin);
  auto lead = xpath::CompileText("//person[2]", store->pools(), &idx);
  ASSERT_TRUE(lead.ok());
  EXPECT_EQ(Kinds(lead.value()),
            (std::vector<OpKind>{OpKind::kQnamePostings,
                                 OpKind::kPositionFilter}));
  EXPECT_FALSE(lead->ops[1].per_origin);
}

TEST(CompilerTest, NoIndexEnvironmentCompilesStepwise) {
  auto store = BuildStore(kDoc);
  auto plan = xpath::CompileText("/site/people/person", store->pools(),
                                 nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Kinds(plan.value()),
            (std::vector<OpKind>{OpKind::kRootSeed, OpKind::kChildStep,
                                 OpKind::kChildStep}));
}

TEST(CompilerTest, UnresolvedNameTaintsPlan) {
  auto store = BuildStore(kDoc);
  auto plan = xpath::CompileText("//nosuch", store->pools(), nullptr);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->fully_resolved);
  auto resolved = xpath::CompileText("//person", store->pools(), nullptr);
  ASSERT_TRUE(resolved.ok());
  EXPECT_TRUE(resolved->fully_resolved);
}

TEST(CompilerTest, TrailingAttributeStepSplitsOff) {
  auto store = BuildStore(kDoc);
  auto plan = xpath::CompileText("/site/people/person/@id",
                                 store->pools(), nullptr);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan->trailing_attr.has_value());
  EXPECT_EQ(plan->trailing_attr->test.name, "id");
  EXPECT_EQ(plan->path.steps.size(), 3u);

  // Node evaluation of such a plan reports the error; EvalStrings uses
  // the split step.
  xpath::Evaluator<storage::PagedStore> ev(*store);
  EXPECT_FALSE(ev.Eval("/site/people/person/@id").ok());
  auto vals = ev.EvalStrings("/site/people/person/@id");
  ASSERT_TRUE(vals.ok());
  EXPECT_EQ(vals.value(),
            (std::vector<std::string>{"p0", "p1", "p2"}));
}

// ---------------------------------------------------------------------------
// Compiled execution agrees with the brute-force reference
// ---------------------------------------------------------------------------

TEST(CompiledExecutionTest, MatchesReferenceWithAndWithoutIndex) {
  auto store = BuildStore(kDoc);
  index::IndexConfig cfg;
  cfg.cross_check = true;  // probe-level oracle, gate bypassed
  index::IndexManager idx(cfg);
  idx.Rebuild(*store);
  const char* const queries[] = {
      "//person",
      "/site/people/person",
      "/site/regions/zone/area/item",
      "/site/regions/zone/area/item/price",
      "//person[@id='p1']",
      "//person[age>40]",
      "//area[item]",
      "//item[price>=20]",
      "//person[2]",
      "//person[last()]",
      "//nosuch",
      "/site/*",
      "//zone//price",
  };
  xpath::PlanCache cache;
  xpath::Evaluator<storage::PagedStore> indexed(*store, &idx, &cache);
  xpath::Evaluator<storage::PagedStore> scan(*store);
  xpath::ReferenceEvaluator<storage::PagedStore> ref(*store);
  for (const char* q : queries) {
    auto a = indexed.Eval(q);
    ASSERT_TRUE(a.ok()) << q << ": " << a.status().ToString();
    auto b = scan.Eval(q);
    ASSERT_TRUE(b.ok()) << q << ": " << b.status().ToString();
    auto c = ref.Eval(xpath::ParsePath(q).value());
    ASSERT_TRUE(c.ok()) << q << ": " << c.status().ToString();
    EXPECT_EQ(a.value(), c.value()) << q;
    EXPECT_EQ(b.value(), c.value()) << q;
    // Cached repeat returns the identical result.
    auto again = indexed.Eval(q);
    ASSERT_TRUE(again.ok()) << q;
    EXPECT_EQ(again.value(), a.value()) << q;
  }
  EXPECT_GT(cache.stats().hits, 0);
  EXPECT_EQ(idx.Stats().cross_check_mismatches, 0);
}

// ---------------------------------------------------------------------------
// Plan cache: hit/miss, epoch invalidation, cross-transaction sharing
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, HitsMissesAndCrossTxnSharing) {
  auto db_or = Database::CreateFromXml(kDoc);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();

  const char* q = "/site/people/person";
  ASSERT_TRUE(db->Query(q).ok());
  auto s1 = db->IndexStats();
  EXPECT_EQ(s1.plan_misses, 1);
  EXPECT_EQ(s1.plan_hits, 0);
  ASSERT_TRUE(db->Query(q).ok());
  auto s2 = db->IndexStats();
  EXPECT_EQ(s2.plan_misses, 1);
  EXPECT_EQ(s2.plan_hits, 1);

  // A transaction shares the cache (and the compiled plan, executed
  // without the index): its view diverges from the base after staged
  // edits while the base keeps answering from the committed state.
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  auto before = txn.value()->Query(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 3u);
  EXPECT_GT(db->IndexStats().plan_hits, s2.plan_hits);
  ASSERT_TRUE(txn.value()
                  ->Update("<xupdate:modifications version=\"1.0\" "
                           "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
                           "<xupdate:remove select=\"//person[1]\"/>"
                           "</xupdate:modifications>")
                  .ok());
  auto staged = txn.value()->Query(q);
  ASSERT_TRUE(staged.ok());
  EXPECT_EQ(staged->size(), 2u);
  auto base = db->Query(q);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->size(), 3u);
  ASSERT_TRUE(txn.value()->Abort().ok());
}

TEST(PlanCacheTest, QnamePoolGrowthRecompilesUnresolvedPlans) {
  auto db_or = Database::CreateFromXml(kDoc);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();

  // "gadget" is not interned: the plan bakes "matches nothing" and is
  // tainted; "person" resolves fully and never goes stale.
  auto r = db->Query("//gadget");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  ASSERT_TRUE(db->Query("//gadget").ok());  // hit: pool unchanged
  ASSERT_TRUE(db->Query("//person").ok());
  ASSERT_TRUE(db->Query("//person").ok());
  auto s0 = db->IndexStats();
  EXPECT_EQ(s0.plan_misses, 2);
  EXPECT_EQ(s0.plan_hits, 2);

  // Interning new names (the insert's element tag) bumps the pool
  // generation: the tainted plan recompiles and now sees the node...
  ASSERT_TRUE(db->Update("<xupdate:modifications version=\"1.0\" "
                         "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
                         "<xupdate:append select=\"/site\">"
                         "<gadget/></xupdate:append>"
                         "</xupdate:modifications>")
                  .ok());
  auto after = db->Query("//gadget");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->size(), 1u);
  auto s1 = db->IndexStats();
  EXPECT_EQ(s1.plan_misses, s0.plan_misses + 1);
  // ... while the fully-resolved plan keeps hitting across the growth.
  ASSERT_TRUE(db->Query("//person").ok());
  auto s2 = db->IndexStats();
  EXPECT_EQ(s2.plan_hits, s1.plan_hits + 1);
  EXPECT_EQ(s2.plan_misses, s1.plan_misses);
}

TEST(PlanCacheTest, EnvironmentFingerprintChangeInvalidates) {
  auto store = BuildStore(kDoc);
  index::IndexManager on(index::IndexConfig{});
  on.Rebuild(*store);
  index::IndexConfig off_cfg;
  off_cfg.enabled = false;
  index::IndexManager off(off_cfg);
  off.Rebuild(*store);

  xpath::PlanCache cache;
  const char* q = "/site/regions/zone/area/item";
  xpath::Evaluator<storage::PagedStore> e_on(*store, &on, &cache);
  ASSERT_TRUE(e_on.Eval(q).ok());
  EXPECT_EQ(cache.stats().misses, 1);
  // Same text under a different IndexConfig (index disabled): plans
  // baked for a live index (estimate-driven shape) no longer match the
  // environment — recompile, not reuse.
  xpath::Evaluator<storage::PagedStore> e_off(*store, &off, &cache);
  ASSERT_TRUE(e_off.Eval(q).ok());
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().hits, 0);
  ASSERT_TRUE(e_off.Eval(q).ok());
  EXPECT_EQ(cache.stats().hits, 1);
  // No-index environment is a third fingerprint.
  xpath::Evaluator<storage::PagedStore> e0(*store, nullptr, &cache);
  ASSERT_TRUE(e0.Eval(q).ok());
  EXPECT_EQ(cache.stats().misses, 3);
}

TEST(PlanCacheTest, CapacityEvictionIsLru) {
  auto store = BuildStore(kDoc);
  xpath::PlanCache cache(/*capacity=*/2);
  xpath::Evaluator<storage::PagedStore> ev(*store, nullptr, &cache);
  ASSERT_TRUE(ev.Eval("//person").ok());
  ASSERT_TRUE(ev.Eval("//item").ok());
  ASSERT_TRUE(ev.Eval("//person").ok());  // person now most recent
  ASSERT_TRUE(ev.Eval("//price").ok());   // evicts //item
  EXPECT_EQ(cache.stats().evictions, 1);
  ASSERT_TRUE(ev.Eval("//person").ok());
  EXPECT_EQ(cache.stats().hits, 2);  // person survived the eviction
}

// ---------------------------------------------------------------------------
// Explain: the printed operators are the executed ones
// ---------------------------------------------------------------------------

TEST(ExplainTest, ReportsExecutedStrategiesAndCacheState) {
  Database::Options opt;
  opt.index.cross_check = true;  // gate bypassed: strategies deterministic
  auto db_or = Database::CreateFromXml(kDoc, opt);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();

  const char* q = "/site/regions/zone/area/item";
  auto cold = db->Explain(q);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_NE(cold->find("cache: miss"), std::string::npos) << *cold;
  EXPECT_NE(cold->find("ChainProbe"), std::string::npos) << *cold;
  EXPECT_NE(cold->find("index cascade (4 probes)"), std::string::npos)
      << *cold;
  EXPECT_NE(cold->find("result: 2 nodes"), std::string::npos) << *cold;

  auto warm = db->Explain(q);
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("cache: hit"), std::string::npos) << *warm;

  // The explain result count matches a real query's.
  auto res = db->Query(q);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 2u);

  auto pred = db->Explain("//person[age>40]");
  ASSERT_TRUE(pred.ok());
  EXPECT_NE(pred->find("QnamePostings"), std::string::npos) << *pred;
  EXPECT_NE(pred->find("ValueProbeGate"), std::string::npos) << *pred;
  EXPECT_NE(pred->find("result: 2 nodes"), std::string::npos) << *pred;
}

// ---------------------------------------------------------------------------
// Selectivity-driven planning (cardinality estimates on the plan IR)
// ---------------------------------------------------------------------------

std::string SitePersons(int n) {
  std::string xml = "<site><people>";
  for (int i = 0; i < n; ++i) {
    xml += "<person id='p" + std::to_string(i) +
           "'><profile>x</profile></person>";
  }
  xml += "</people></site>";
  return xml;
}

TEST(SelectivityTest, ReordersConjunctivePredicatesRarestFirst) {
  auto store = BuildStore(SitePersons(8));
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const char* q = "/site/people/person[profile][@id='p5']";
  auto plan = xpath::CompileText(q, store->pools(), &idx);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Source order: [profile] (8 candidates) before [@id='p5'] (1); cost
  // order flips them. Below the fusion floor (8 structural candidates
  // < 16) the chain prefix itself is untouched.
  ASSERT_EQ(Kinds(plan.value()),
            (std::vector<OpKind>{OpKind::kChainProbe, OpKind::kChildStep,
                                 OpKind::kValueProbeGate,
                                 OpKind::kValueProbeGate}));
  EXPECT_EQ(plan->ops[2].shape, xpath::PredShape::kAttr);
  EXPECT_EQ(plan->ops[2].est, 1);
  EXPECT_EQ(plan->ops[3].shape, xpath::PredShape::kChildValue);
  EXPECT_EQ(plan->ops[3].est, 8);
  EXPECT_NE(plan->stats_epoch, 0u);  // estimates steered the shape

  // Reordering never changes results, and explain renders the
  // reordered operator list with est=/act= columns.
  xpath::Evaluator<storage::PagedStore> ev(*store, &idx);
  auto res = ev.Eval(q);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), 1u);
  auto explain = ev.Explain(q);
  ASSERT_TRUE(explain.ok());
  const size_t attr_pos = explain->find("ValueProbeGate [attribute::id");
  const size_t child_pos = explain->find("ValueProbeGate [child::profile]");
  ASSERT_NE(attr_pos, std::string::npos) << *explain;
  ASSERT_NE(child_pos, std::string::npos) << *explain;
  EXPECT_LT(attr_pos, child_pos) << *explain;
  EXPECT_NE(explain->find("[est=1 act=1]"), std::string::npos) << *explain;
  // Per-op gate decisions are spelled out: the rare attr probe is
  // accepted against the structural candidate count, the broad exists
  // check (now running over 1 survivor) declines its probe and says
  // why.
  EXPECT_NE(explain->find("[gate accepted vs scan="), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("gate declined: candidates"), std::string::npos)
      << *explain;
  EXPECT_GT(idx.Stats().plan_reorders, 0);
}

TEST(SelectivityTest, FusesRareValueProbeIntoChainPrefix) {
  auto store = BuildStore(SitePersons(32));
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const char* q = "/site/people/person[@id='p7']";
  auto plan = xpath::CompileText(q, store->pools(), &idx);
  ASSERT_TRUE(plan.ok());
  // 32 structural candidates vs 1 attribute match: the value side
  // drives, the whole [ChainProbe, ChildStep, ValueProbeGate] trio
  // fuses into one value-first operator.
  ASSERT_EQ(Kinds(plan.value()), (std::vector<OpKind>{OpKind::kFusedProbe}));
  EXPECT_TRUE(plan->ops[0].fused_value_first);
  EXPECT_EQ(plan->ops[0].fused_level, 2);
  EXPECT_EQ(plan->ops[0].fused_anc.size(), 2u);  // people, site
  EXPECT_EQ(plan->ops[0].est, 1);
  EXPECT_NE(plan->stats_epoch, 0u);

  // Fused execution agrees with the reference evaluator; the fallback
  // (no index attached) agrees too.
  xpath::Evaluator<storage::PagedStore> ev(*store, &idx);
  auto res = ev.Eval(q);
  ASSERT_TRUE(res.ok());
  xpath::ReferenceEvaluator<storage::PagedStore> rev(*store);
  auto ref = rev.Eval(xpath::ParsePath(q).value());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(res.value(), ref.value());
  ASSERT_EQ(res->size(), 1u);
  // The fused op's scan fallback agrees too: execute the SAME fused
  // plan on an executor with no index attached (the transaction-clone
  // situation — cached plan, index describes a different store).
  xpath::Executor<storage::PagedStore> noidx(*store, nullptr);
  auto fb = noidx.RunOps(plan.value(), {});
  ASSERT_TRUE(fb.ok());
  EXPECT_EQ(fb.value(), ref.value());
  auto explain = ev.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("FusedProbe"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("(value-first)"), std::string::npos) << *explain;
}

TEST(SelectivityTest, CascadeSeedsFromRarestPair) {
  // 21 <regions> each hold a <zone>; only one zone has the (zone, area)
  // continuation. Cost order seeds from that rare pair and verifies
  // the survivors' ancestors by containment merge instead of joining
  // down from the fat leading pairs.
  std::string xml = "<site>";
  for (int i = 0; i < 20; ++i) {
    xml += "<regions><zone><filler>x</filler></zone></regions>";
  }
  xml += "<regions><zone><area><item k='1'>v</item><item k='2'>v</item>"
         "</area></zone></regions></site>";
  auto store = BuildStore(xml);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const char* q = "/site/regions/zone/area/item";
  auto plan = xpath::CompileText(q, store->pools(), &idx);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->ops.size(), 1u);
  ASSERT_EQ(plan->ops[0].kind, OpKind::kChainProbe);
  ASSERT_EQ(plan->ops[0].probes.size(), 4u);
  EXPECT_EQ(plan->ops[0].probes[0].est, 21);
  EXPECT_EQ(plan->ops[0].probes[1].est, 21);
  EXPECT_EQ(plan->ops[0].probes[2].est, 1);
  EXPECT_EQ(plan->ops[0].probes[3].est, 2);
  ASSERT_EQ(plan->ops[0].exec_order,
            (std::vector<size_t>{2, 3, 0, 1}));  // (zone, area) seeds
  EXPECT_EQ(plan->ops[0].probes[2].abs_level, 3);
  EXPECT_NE(plan->stats_epoch, 0u);

  xpath::Evaluator<storage::PagedStore> ev(*store, &idx);
  auto res = ev.Eval(q);
  ASSERT_TRUE(res.ok());
  xpath::ReferenceEvaluator<storage::PagedStore> rev(*store);
  auto ref = rev.Eval(xpath::ParsePath(q).value());
  ASSERT_TRUE(ref.ok());
  EXPECT_EQ(res.value(), ref.value());
  ASSERT_EQ(res->size(), 2u);
  auto explain = ev.Explain(q);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("[cost order: 2 3 0 1]"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("[cost order]"), std::string::npos) << *explain;
}

TEST(SelectivityTest, StatsEpochMovementRecompilesSteeredPlansOnly) {
  auto db_or = Database::CreateFromXml(SitePersons(8));
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  const char* steered = "/site/people/person[profile][@id='p5']";
  const char* plain = "/site/people/person";
  ASSERT_TRUE(db->Query(steered).ok());
  ASSERT_TRUE(db->Query(plain).ok());
  auto s0 = db->IndexStats();
  EXPECT_EQ(s0.plan_misses, 2);

  // A committed update moves the stats epoch: the estimate-steered
  // plan recompiles, the estimate-free plan stays cached.
  ASSERT_TRUE(
      db->Update("<xupdate:modifications version=\"1.0\" "
                 "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
                 "<xupdate:append select=\"/site/people\">"
                 "<person id='px'><profile>x</profile></person>"
                 "</xupdate:append></xupdate:modifications>")
          .ok());
  ASSERT_TRUE(db->Query(plain).ok());
  auto s1 = db->IndexStats();
  EXPECT_EQ(s1.plan_misses, 2);  // estimate-free: cache hit
  ASSERT_TRUE(db->Query(steered).ok());
  auto s2 = db->IndexStats();
  EXPECT_EQ(s2.plan_misses, 3);  // steered: epoch-invalidated, recompiled
  ASSERT_TRUE(db->Query(steered).ok());
  EXPECT_EQ(db->IndexStats().plan_misses, 3);  // stable until stats move
}

// ---------------------------------------------------------------------------
// Global-lock contention counters
// ---------------------------------------------------------------------------

TEST(LockStatsTest, CountsReaderAndWriterAcquires) {
  auto db_or = Database::CreateFromXml(kDoc);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  auto base = db->LockStats();
  ASSERT_TRUE(db->Query("//person").ok());
  auto after_read = db->LockStats();
  EXPECT_GT(after_read.reader_acquires, base.reader_acquires);
  ASSERT_TRUE(db->Update("<xupdate:modifications version=\"1.0\" "
                         "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
                         "<xupdate:append select=\"/site\">"
                         "<extra/></xupdate:append>"
                         "</xupdate:modifications>")
                  .ok());
  auto after_write = db->LockStats();
  EXPECT_GT(after_write.writer_acquires, after_read.writer_acquires);
  EXPECT_GE(after_write.reader_waits, 0);
  EXPECT_GE(after_write.writer_waits, 0);
}

}  // namespace
}  // namespace pxq
