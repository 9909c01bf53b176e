// Differential fuzz harness: a seeded, deterministic randomized
// workload — interleaved XPath queries, XUpdate edits, interior
// renames (the path index's child re-key fan-out), and aborted
// transactions — that pins the indexed evaluator
// against the brute-force xpath/reference_eval after every commit.
//
// Two independent oracles check every step:
//   1. The database runs with IndexConfig::cross_check on, so EVERY
//      accepted probe is replayed on the evaluator's scan path inside
//      the same shared-lock section — a divergence fails the query
//      with Corruption naming the step.
//   2. This harness re-evaluates a rotating query subset (the full
//      pool right after every commit-side rename, and periodically)
//      on xpath::ReferenceEvaluator — no staircase, no index, no
//      shared axis code — and compares PreId lists. Any divergence
//      prints the seed, the step number, the query, and the node ids
//      only one side produced, so a failure is reproducible and
//      debuggable from the log alone.
//
// Determinism: all randomness flows through pxq::Random from the seed,
// so a reported (seed, step) replays exactly. Knobs (CI uses the
// defaults):
//   PXQ_FUZZ_SEEDS  comma-separated seed list   (default two seeds)
//   PXQ_FUZZ_OPS    interleaved ops per seed    (default 10000)
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "database.h"
#include "xpath/evaluator.h"
#include "xpath/parser.h"
#include "xpath/reference_eval.h"

namespace pxq {
namespace {

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* e = std::getenv(name);
  return (e != nullptr && e[0] != '\0') ? std::atoll(e) : fallback;
}

std::vector<uint64_t> SeedList() {
  std::vector<uint64_t> seeds;
  const char* e = std::getenv("PXQ_FUZZ_SEEDS");
  std::string s = e != nullptr ? e : "20260729,424243";
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    seeds.push_back(std::strtoull(s.substr(pos, comma - pos).c_str(),
                                  nullptr, 10));
    pos = comma + 1;
  }
  return seeds;
}

/// Depth-5 seed document: /site/regions/zone/area/item/price paths
/// exercise multi-probe cascades; people carry attrs + simple values.
/// `commons` more persons and items share one value per field, so a
/// literal can be rare (one owner) or common (most owners).
std::string SeedDoc(int commons = 0) {
  std::string xml = "<site><people>";
  for (int i = 0; i < 6; ++i) {
    xml += "<person id=\"p" + std::to_string(i) + "\"><name>n" +
           std::to_string(i) + "</name><age>" + std::to_string(20 + i * 7) +
           "</age></person>";
  }
  for (int i = 0; i < commons; ++i) {
    xml += "<person id=\"pc\"><name>nc</name><age>33</age></person>";
  }
  xml += "</people><regions>";
  for (int z = 0; z < 2; ++z) {
    xml += "<zone>";
    for (int a = 0; a < 2; ++a) {
      xml += "<area>";
      for (int i = 0; z + a == 0 && i < commons; ++i) {
        xml += "<item k=\"7\"><price>21</price></item>";
      }
      for (int i = 0; i < 4; ++i) {
        const int v = z * 100 + a * 10 + i;
        xml += "<item k=\"" + std::to_string(v) + "\"><price>" +
               std::to_string(v * 3) + "</price></item>";
      }
      xml += "</area>";
    }
    xml += "</zone>";
  }
  xml += "</regions></site>";
  return xml;
}

std::string Wrap(const std::string& body) {
  return "<xupdate:modifications version=\"1.0\" "
         "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">" +
         body + "</xupdate:modifications>";
}

// The query pool covers every index plan the evaluator owns: deep
// absolute paths (one pair probe per level below the root),
// descendant and child name steps, value/attr predicate shapes, the
// rename-flip spellings of every renameable tag, and positional
// predicates (never index-answered — scan/reference agreement only).
const char* const kQueries[] = {
    "//person",
    "//item",
    "//price",
    "/site/people/person",
    "/site/people/person/name",
    "/site/regions/zone/area/item",          // depth 5
    "/site/regions/zone/area/item/price",    // depth 6
    "/site/regions/zonex/area/item",         // rename-flip spelling
    "/site/regions/zone/areax/item/price",
    "//zone//item",
    "//area/item",
    "//person[age>30]",
    "//person[age<='41']",
    "//person[name]",
    "//person[@id]",
    "//person[@id='p3']",
    "//personx[name='n1']",
    "//item[@k]",
    "//item[@k>='100']",
    "//item[price>50]",
    "//area[item]",
    "//item[2]",
    "//person[last()]",
    // Conjunctive predicate runs: the selectivity planner reorders
    // these (rare attr-eq ahead of broad exists) and may fuse the
    // rare probe into the chain prefix — divergence from the
    // reference evaluator here means reordering changed semantics.
    "//person[name][@id='p3']",
    "/site/people/person[age][@id='p2']/name",
    "//item[@k][price]",
    // Root-anchored value lookups: fused value-first probes once the
    // structural side is 4x the value side, so renames and moves reach
    // the ancestor lookups in the pair buckets.
    "/site/people/person[@id='p3']/name",
    "/site/regions/zone/area/item[@k='110']",
    "/site/regions/zone/area/item[price='330']",
    "/site/regions/zonex/area/item[@k='110']",
    // Nested, multi-step and positional predicate shapes: compiled
    // predicate sub-plans and per-origin positional sub-plans.
    "//area[item[@k='110']]",
    "//area[item/price>300]",
    "//zone[area/item/@k]",
    "//area/item[price>50][2]",
    "/site/regions/zone/area[item][last()]",
};

class Fuzzer {
 public:
  /// `redraw_literals`: the query steps run the quoted shapes of
  /// kQueries with their literals redrawn (RedrawLiterals), on a seed
  /// document holding common values too.
  Fuzzer(uint64_t seed, int64_t ops, bool redraw_literals = false)
      : seed_(seed), ops_(ops), redraw_(redraw_literals), rng_(seed) {
    for (const char* q : kQueries) {
      if (std::string_view(q).find('\'') != std::string_view::npos) {
        quoted_.push_back(q);
      }
    }
  }

  void Run() {
    Database::Options opt;
    opt.store.page_tuples = 64;
    opt.store.shred_fill = 0.8;
    opt.index.cross_check = true;  // oracle 1: probe-level scan replay
    auto db_or = Database::CreateFromXml(SeedDoc(redraw_ ? 24 : 0), opt);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    db_ = std::move(db_or).value();

    VerifyPool("initial", /*full=*/true);
    int64_t commits = 0, aborts = 0, queries = 0;
    for (step_ = 0; step_ < ops_; ++step_) {
      if (HasFatalFailure()) return;
      const uint64_t dice = rng_.Uniform(100);
      if (dice < 55) {
        RunOneQuery();
        ++queries;
      } else if (dice < 65) {
        RunAbortedTxn();
        ++aborts;
      } else {
        RunCommit();
        ++commits;
      }
    }
    VerifyPool("final", /*full=*/true);
    const auto stats = db_->IndexStats();
    EXPECT_EQ(stats.cross_check_mismatches, 0) << Where("final");
    // The workload must have exercised the machinery it pins: pair
    // cascades, value/attr probes, and commits.
    EXPECT_GT(stats.path_probes, 0);
    EXPECT_GT(stats.probes, 0);
    EXPECT_GT(stats.applied_commits, 0);
    // Selectivity planning was live: at least one plan in the pool was
    // reshaped by estimates (and still never diverged from reference).
    EXPECT_GT(stats.plan_reorders, 0);
    EXPECT_GT(stats.estimator_probes, 0);
    EXPECT_GT(commits, 0);
    EXPECT_GT(aborts, 0);
    EXPECT_GT(queries, 0);
    // Every query above went through the compiled pipeline with the
    // plan cache enabled: the repeated pool must produce warm hits,
    // and rename flips (interning zonex/areax/personx) force pool-
    // generation recompiles of the tainted plans along the way.
    EXPECT_GT(stats.plan_hits, 0);
    EXPECT_GT(stats.plan_misses, 0);
    if (redraw_) {
      // Many texts, few shapes: one plan per shape (plus the value-pool
      // queries), and some redrawn literal chose differently from the
      // plan its shape's entry holds and compiled for itself.
      const auto cache = db_->plan_cache().stats();
      EXPECT_GT(redrawn_texts_.size(), 4 * db_->plan_cache().size());
      EXPECT_LE(db_->plan_cache().size(), std::size(kQueries) + 8);
      EXPECT_GT(cache.recompiles, 0);
    }
  }

 private:
  static bool HasFatalFailure() {
    return ::testing::Test::HasFatalFailure();
  }

  std::string Where(const std::string& what) const {
    return "seed=" + std::to_string(seed_) + " step=" +
           std::to_string(step_) + " (" + what + ")";
  }

  std::string RandValue() {
    switch (rng_.Uniform(4)) {
      case 0: return std::to_string(rng_.Range(-50, 500));
      case 1:
        return std::to_string(rng_.Range(0, 99)) + "." +
               std::to_string(rng_.Uniform(100));
      case 2: return std::string("w") + std::to_string(rng_.Uniform(10));
      default: return "";
    }
  }

  std::string MakeEdit() {
    const std::string v = RandValue();
    const std::string pos = std::to_string(rng_.Range(1, 4));
    // When the document grows past the cap, bias hard toward removals
    // so the reference evaluator's O(N^2) sweeps stay cheap.
    const uint64_t op =
        live_nodes_ > 900 ? 2 + rng_.Uniform(2) : rng_.Uniform(12);
    switch (op) {
      case 0:
        return "<xupdate:append select=\"//area[" + pos + "]\"><item k=\"" +
               v + "\"><price>" + v + "</price></item></xupdate:append>";
      case 1:
        return "<xupdate:append select=\"/site/people\"><person id=\"" + v +
               "\"><name>" + v + "</name><age>" + v +
               "</age></person></xupdate:append>";
      case 2:
        return "<xupdate:remove select=\"//item[" + pos + "]\"/>";
      case 3:
        return "<xupdate:remove select=\"//person[" + pos + "]\"/>";
      case 4:
        return "<xupdate:update select=\"//price[" + pos + "]\">" + v +
               "</xupdate:update>";
      case 5:
        return "<xupdate:update select=\"//name[" + pos + "]\">" + v +
               "</xupdate:update>";
      case 6:
        return "<xupdate:update select=\"//item[" + pos + "]/@k\">" + v +
               "</xupdate:update>";
      case 7:
        // Leaf-ish rename flip: person <-> personx.
        return rng_.Bernoulli(0.5)
                   ? "<xupdate:rename select=\"//person[" + pos +
                         "]\">personx</xupdate:rename>"
                   : "<xupdate:rename select=\"//personx[1]\">person"
                     "</xupdate:rename>";
      case 8:
        // INTERIOR rename flips: re-key the children's pairs below
        // (a zone's areas) while the items and prices deeper down keep
        // their keys.
        return rng_.Bernoulli(0.5)
                   ? "<xupdate:rename select=\"//zone[1]\">zonex"
                     "</xupdate:rename>"
                   : "<xupdate:rename select=\"//zonex[1]\">zone"
                     "</xupdate:rename>";
      case 9:
        return rng_.Bernoulli(0.5)
                   ? "<xupdate:rename select=\"//area[" + pos +
                         "]\">areax</xupdate:rename>"
                   : "<xupdate:rename select=\"//areax[1]\">area"
                     "</xupdate:rename>";
      case 10:
        return "<xupdate:insert-before select=\"//item[" + pos +
               "]\"><item k=\"" + v + "\"><price>" + v +
               "</price></item></xupdate:insert-before>";
      default:
        return "<xupdate:insert-after select=\"//person[" + pos +
               "]\"><person id=\"" + v + "\"><name>" + v +
               "</name></person></xupdate:insert-after>";
    }
  }

  std::string MakeDoc(bool* renames) {
    std::string body;
    const int ops = static_cast<int>(rng_.Range(1, 3));
    for (int i = 0; i < ops; ++i) {
      std::string e = MakeEdit();
      if (e.find("xupdate:rename") != std::string::npos) *renames = true;
      body += e;
    }
    return Wrap(body);
  }

  void RunCommit() {
    bool renames = false;
    auto stats = db_->Update(MakeDoc(&renames));
    ASSERT_TRUE(stats.ok()) << Where("commit: " + stats.status().ToString());
    value_pools_.clear();
    live_nodes_ += stats.value().nodes_inserted - stats.value().nodes_deleted;
    // Oracle sweep after EVERY commit: the full pool after renames
    // (the rename re-key fan-out is the riskiest maintenance path) and
    // periodically, a rotating subset otherwise.
    const bool full = renames || (step_ % 97) == 0;
    VerifyPool("post-commit", full);
  }

  void RunAbortedTxn() {
    auto txn = db_->Begin();
    ASSERT_TRUE(txn.ok()) << Where("begin");
    bool renames = false;
    auto stats = txn.value()->Update(MakeDoc(&renames));
    ASSERT_TRUE(stats.ok()) << Where("staged: " + stats.status().ToString());
    ASSERT_TRUE(txn.value()->Abort().ok()) << Where("abort");
    // Aborts publish nothing; spot-check one query against the oracle.
    VerifyOne(kQueries[rng_.Uniform(std::size(kQueries))], "post-abort");
  }

  void RunOneQuery() {
    if (redraw_) {
      const std::string q =
          RedrawLiterals(quoted_[rng_.Uniform(quoted_.size())]);
      redrawn_texts_.insert(q);
      VerifyOne(q, "redrawn query");
      return;
    }
    VerifyOne(kQueries[rng_.Uniform(std::size(kQueries))], "query");
  }

  /// The values the document holds for one compared name (`@a` for an
  /// attribute), with their owner counts.
  const std::map<std::string, int>& ValuePool(const std::string& name) {
    auto [it, fresh] = value_pools_.try_emplace(name);
    if (fresh) {
      auto values = db_->QueryStrings("//" + name);
      EXPECT_TRUE(values.ok()) << Where("value pool of " + name);
      if (values.ok()) {
        for (const std::string& v : values.value()) ++it->second[v];
      }
    }
    return it->second;
  }

  /// `q` with each quoted literal redrawn from the values its predicate
  /// compares against: present and rare (one owner), present and
  /// common (the most owners), or absent. The reference evaluates the
  /// redrawn text itself, so a plan that ran on its compile literal
  /// instead of the bound one diverges.
  std::string RedrawLiterals(const char* q) {
    auto path = xpath::ParsePath(q);
    EXPECT_TRUE(path.ok()) << q;
    std::vector<std::string> slot_names;  // compared name per slot
    auto visit = [&](auto& self, const std::vector<xpath::Step>& steps)
        -> void {
      for (const xpath::Step& st : steps) {
        for (const xpath::Predicate& p : st.predicates) {
          self(self, p.rel);
          if (p.param < 0) continue;
          const xpath::Step& last = p.rel.back();
          if (slot_names.size() <= static_cast<size_t>(p.param)) {
            slot_names.resize(static_cast<size_t>(p.param) + 1);
          }
          slot_names[static_cast<size_t>(p.param)] =
              (last.axis == xpath::Axis::kAttribute ? "@" : "") +
              last.test.name;
        }
      }
    };
    if (path.ok()) visit(visit, path->steps);
    std::string out;
    const std::string_view text(q);
    size_t from = 0, slot = 0;
    for (size_t open = text.find('\''); open != std::string_view::npos;
         open = text.find('\'', from), ++slot) {
      const size_t close = text.find('\'', open + 1);
      out.append(text.substr(from, open + 1 - from));
      out += DrawValue(slot < slot_names.size() ? slot_names[slot] : "");
      out += '\'';
      from = close + 1;
    }
    out.append(text.substr(from));
    return out;
  }

  std::string DrawValue(const std::string& name) {
    const auto& pool = name.empty() ? value_pools_[""] : ValuePool(name);
    std::vector<const std::string*> rare;
    const std::string* common = nullptr;
    int most = 0;
    for (const auto& [v, n] : pool) {
      if (v.find('\'') != std::string::npos) continue;
      if (n == 1) rare.push_back(&v);
      if (n > most) most = n, common = &v;
    }
    switch (rng_.Uniform(3)) {
      case 0:
        if (!rare.empty()) return *rare[rng_.Uniform(rare.size())];
        [[fallthrough]];
      case 1:
        if (common != nullptr) return *common;
        [[fallthrough]];
      default:
        return "absent" + std::to_string(rng_.Uniform(1000));
    }
  }

  void VerifyPool(const std::string& when, bool full) {
    if (full) {
      for (const char* q : kQueries) VerifyOne(q, when);
    } else {
      for (int i = 0; i < 3; ++i) {
        VerifyOne(kQueries[(static_cast<size_t>(step_) * 3 +
                            static_cast<size_t>(i)) %
                           std::size(kQueries)],
                  when);
      }
    }
  }

  /// One differential check: indexed evaluation (with its internal
  /// probe-vs-scan cross-check) against the brute-force reference.
  void VerifyOne(const std::string& q, const std::string& when) {
    if (HasFatalFailure()) return;
    auto indexed = db_->Query(q);
    ASSERT_TRUE(indexed.ok())
        << Where(when) << " query=" << q
        << " failed: " << indexed.status().ToString();
    struct RefOut {
      std::vector<PreId> pres;
      std::vector<NodeId> index_only_nodes, ref_only_nodes;
    };
    auto ref = db_->txn_manager().Read(
        [&](const storage::PagedStore& s) -> StatusOr<RefOut> {
          xpath::ReferenceEvaluator<storage::PagedStore> rev(s);
          PXQ_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePath(q));
          PXQ_ASSIGN_OR_RETURN(RefOut out, [&]() -> StatusOr<RefOut> {
            RefOut o;
            PXQ_ASSIGN_OR_RETURN(o.pres, rev.Eval(path));
            return o;
          }());
          // Resolve the divergence to immutable node ids while still
          // under the read lock (pres are only meaningful here).
          for (PreId p : indexed.value()) {
            if (!std::binary_search(out.pres.begin(), out.pres.end(), p)) {
              out.index_only_nodes.push_back(s.NodeAt(p));
            }
          }
          for (PreId p : out.pres) {
            if (!std::binary_search(indexed.value().begin(),
                                    indexed.value().end(), p)) {
              out.ref_only_nodes.push_back(s.NodeAt(p));
            }
          }
          return out;
        });
    ASSERT_TRUE(ref.ok()) << Where(when) << " query=" << q;
    auto fmt = [](const std::vector<NodeId>& v) {
      std::string s;
      for (size_t i = 0; i < v.size() && i < 8; ++i) {
        if (i > 0) s += ",";
        s += std::to_string(v[i]);
      }
      if (v.size() > 8) s += ",+" + std::to_string(v.size() - 8);
      return s.empty() ? std::string("none") : s;
    };
    ASSERT_EQ(indexed.value(), ref.value().pres)
        << "DIVERGENCE " << Where(when) << " query=" << q
        << " index-only-nodes=[" << fmt(ref.value().index_only_nodes)
        << "] ref-only-nodes=[" << fmt(ref.value().ref_only_nodes) << "]";
  }

  const uint64_t seed_;
  const int64_t ops_;
  const bool redraw_;
  Random rng_;
  std::unique_ptr<Database> db_;
  int64_t step_ = 0;
  int64_t live_nodes_ = 0;
  std::vector<const char*> quoted_;  // kQueries entries with a literal
  /// Per compared name: value -> owner count; cleared by every commit.
  std::map<std::string, std::map<std::string, int>> value_pools_;
  std::set<std::string> redrawn_texts_;
};

TEST(DifferentialFuzzTest, IndexedMatchesReferenceUnderChurn) {
  const int64_t ops = EnvInt("PXQ_FUZZ_OPS", 10000);
  for (uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Fuzzer fuzzer(seed, ops);
    fuzzer.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// The quoted shapes of kQueries with their literals redrawn on every
// query — present and rare, present and common, or absent — through one
// Database plan cache keyed by shape, cross-check armed, every answer
// against the reference. Rare and common literals of one shape take
// different fusion and reorder choices, so the per-literal re-check's
// compile path runs too. A plan that executes a stale literal diverges.
TEST(DifferentialFuzzTest, RedrawnLiteralsShareShapePlans) {
  const int64_t ops = EnvInt("PXQ_FUZZ_OPS", 10000) / 2;
  for (uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Fuzzer fuzzer(seed, ops, /*redraw_literals=*/true);
    fuzzer.Run();
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// Reader threads racing group-committed writers. Unlike VerifyOne above
// (indexed and reference evaluation in two separate shared-lock
// sections — fine single-threaded), each check here runs BOTH inside
// ONE Read section, so a batched commit can never slip between them and
// fake a divergence. The TSan CI job runs this binary, which makes the
// sharded reader slots, the writer-intent drain, and Wal::AppendBatch
// race-checked paths.
TEST(DifferentialFuzzTest, ConcurrentReadersVsGroupCommitters) {
  const int64_t ops = EnvInt("PXQ_FUZZ_OPS", 10000);
  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  const int commits_per_writer =
      static_cast<int>(std::clamp<int64_t>(ops / 250, 8, 60));

  Database::Options opt;
  // Small pages: each writer's area lands on its own page, so the two
  // writers mostly commit disjoint pages (residual conflicts retry).
  opt.store.page_tuples = 16;
  opt.store.shred_fill = 0.8;
  opt.index.cross_check = true;  // oracle 1 stays armed under the race
  opt.txn.reader_slots = 16;
  opt.txn.group_commit_window_us = 300;  // let concurrent commits batch
  auto db_or = Database::CreateFromXml(SeedDoc(), opt);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(db_or).value();

  std::atomic<bool> stop{false};
  std::atomic<int64_t> checks{0};
  std::atomic<int64_t> divergences{0};
  std::atomic<int64_t> commit_errors{0};
  std::mutex first_mu;
  std::string first_divergence;

  auto check_one = [&](const char* q) {
    auto same = db->txn_manager().Read(
        [&](const storage::PagedStore& s) -> StatusOr<bool> {
          PXQ_ASSIGN_OR_RETURN(
              std::vector<PreId> indexed,
              xpath::EvaluatePath(s, q, db->index_manager(),
                                  &db->plan_cache()));
          xpath::ReferenceEvaluator<storage::PagedStore> rev(s);
          PXQ_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePath(q));
          PXQ_ASSIGN_OR_RETURN(std::vector<PreId> refd, rev.Eval(path));
          return indexed == refd;
        });
    checks.fetch_add(1);
    if (same.ok() && same.value()) return;
    divergences.fetch_add(1);
    std::lock_guard<std::mutex> g(first_mu);
    if (first_divergence.empty()) {
      first_divergence =
          std::string(q) +
          (same.ok() ? " (result mismatch)"
                     : " (" + same.status().ToString() + ")");
    }
  };

  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&, i] {
      Random rng(1000 + static_cast<uint64_t>(i));
      while (!stop.load(std::memory_order_relaxed)) {
        check_one(kQueries[rng.Uniform(std::size(kQueries))]);
      }
    });
  }
  std::vector<std::thread> writers;
  for (int wi = 0; wi < kWriters; ++wi) {
    writers.emplace_back([&, wi] {
      Random rng(7000 + static_cast<uint64_t>(wi));
      const std::string area =
          "/site/regions/zone[1]/area[" + std::to_string(wi + 1) + "]";
      for (int c = 0; c < commits_per_writer; ++c) {
        const std::string v = std::to_string(rng.Range(0, 500));
        std::string body;
        switch (rng.Uniform(4)) {
          case 0:
            body = "<xupdate:append select=\"" + area + "\"><item k=\"" + v +
                   "\"><price>" + v + "</price></item></xupdate:append>";
            break;
          case 1:
            body = "<xupdate:update select=\"" + area + "/item[1]/price\">" +
                   v + "</xupdate:update>";
            break;
          case 2:
            // Bounds document growth; a no-match remove is a no-op.
            body = "<xupdate:remove select=\"" + area + "/item[3]\"/>";
            break;
          default:
            // Rename flip: index re-key racing the readers' probes.
            body = rng.Bernoulli(0.5)
                       ? "<xupdate:rename select=\"//person[1]\">personx"
                         "</xupdate:rename>"
                       : "<xupdate:rename select=\"//personx[1]\">person"
                         "</xupdate:rename>";
        }
        if (!db->Update(Wrap(body)).ok()) commit_errors.fetch_add(1);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  for (auto& r : readers) r.join();

  EXPECT_EQ(divergences.load(), 0)
      << "first divergence: " << first_divergence;
  EXPECT_GT(checks.load(), 0);
  // Most commits must get through (disjoint pages; conflicts retried
  // inside Update).
  EXPECT_LT(commit_errors.load(),
            int64_t{kWriters} * commits_per_writer / 2);
  const auto stats = db->IndexStats();
  EXPECT_EQ(stats.cross_check_mismatches, 0);
  EXPECT_GT(stats.applied_commits, 0);
  EXPECT_GT(db->txn_manager().group_commits(), 0);
  // Single-threaded closing sweep: the final state is exact.
  for (const char* q : kQueries) check_one(q);
  EXPECT_EQ(divergences.load(), 0)
      << "first divergence: " << first_divergence;
}

// ------------------------------------------------------------------
// Crash-recovery fuzz leg: a seeded durable workload whose WAL is
// truncated at random byte offsets (plus every record boundary and
// boundary-1) and whose checkpoint is crashed at every protocol step
// via the fault injector. Every recovery must serialize to a COMMITTED
// PREFIX of the history — the state recorded right after some commit,
// never a partial transaction, never a duplicated replay — and the
// recovered database's indexed evaluator must still agree with the
// brute-force reference on the query pool.
TEST(DifferentialFuzzTest, CrashRecoveryAlwaysYieldsACommittedPrefix) {
  namespace fs = std::filesystem;
  const int64_t ops = EnvInt("PXQ_FUZZ_OPS", 10000);
  const int commits = static_cast<int>(std::clamp<int64_t>(ops / 500, 8, 24));
  for (uint64_t seed : SeedList()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rng(seed);
    const std::string suffix =
        std::to_string(seed) + "_" + std::to_string(::getpid());
    const fs::path dir =
        fs::temp_directory_path() / ("pxq_crash_fuzz_" + suffix);
    const fs::path scratch =
        fs::temp_directory_path() / ("pxq_crash_fuzz_scratch_" + suffix);
    fs::remove_all(dir);
    fs::remove_all(scratch);
    fs::create_directories(dir);
    fs::create_directories(scratch);

    Database::Options opt;
    opt.store.page_tuples = 64;
    opt.store.shred_fill = 0.8;
    opt.index.cross_check = true;  // probe-vs-scan oracle stays armed
    opt.data_dir = dir.string();
    opt.name = "fuzz";
    auto db_or = Database::CreateFromXml(SeedDoc(), opt);
    ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
    auto db = std::move(db_or).value();
    const std::string snap = dir.string() + "/fuzz.snapshot";
    const std::string wal = dir.string() + "/fuzz.wal";

    auto state = [&]() {
      auto s = db->Serialize();
      EXPECT_TRUE(s.ok()) << s.status().ToString();
      return s.ok() ? s.value() : std::string();
    };
    // Oracle 2 on a recovered database: indexed vs reference on a
    // seeded query sample.
    auto verify_recovered = [&](Database& rdb, const std::string& when) {
      for (int i = 0; i < 4; ++i) {
        const char* q = kQueries[rng.Uniform(std::size(kQueries))];
        auto same = rdb.txn_manager().Read(
            [&](const storage::PagedStore& s) -> StatusOr<bool> {
              PXQ_ASSIGN_OR_RETURN(
                  std::vector<PreId> indexed,
                  xpath::EvaluatePath(s, q, rdb.index_manager(),
                                      &rdb.plan_cache()));
              xpath::ReferenceEvaluator<storage::PagedStore> rev(s);
              PXQ_ASSIGN_OR_RETURN(xpath::Path path, xpath::ParsePath(q));
              PXQ_ASSIGN_OR_RETURN(std::vector<PreId> refd, rev.Eval(path));
              return indexed == refd;
            });
        ASSERT_TRUE(same.ok())
            << when << " query=" << q << ": " << same.status().ToString();
        EXPECT_TRUE(same.value()) << when << " divergence on " << q;
      }
    };

    // --- Phase A: seeded committed edits; record (wal bytes, state)
    // after every commit. No checkpoints — the WAL grows monotonically
    // over a fixed snapshot, so any truncation maps to one prefix.
    std::vector<std::pair<uint64_t, std::string>> history;
    history.emplace_back(fs::file_size(wal), state());
    int committed = 0;
    while (committed < commits) {
      const std::string v = std::to_string(rng.Range(0, 999));
      const std::string pos = std::to_string(rng.Range(1, 4));
      std::string body;
      switch (rng.Uniform(4)) {
        case 0:
          body = "<xupdate:append select=\"/site/people\"><person id=\"" + v +
                 "\"><name>" + v + "</name><age>" + v +
                 "</age></person></xupdate:append>";
          break;
        case 1:
          body = "<xupdate:append select=\"//area[" + pos +
                 "]\"><item k=\"" + v + "\"><price>" + v +
                 "</price></item></xupdate:append>";
          break;
        case 2:
          body = "<xupdate:update select=\"//price[" + pos + "]\">" + v +
                 "</xupdate:update>";
          break;
        default:
          // Rename flips re-key the index; a no-match flip fails the
          // commit benignly and is skipped.
          body = rng.Bernoulli(0.5)
                     ? "<xupdate:rename select=\"//person[" + pos +
                           "]\">personx</xupdate:rename>"
                     : "<xupdate:rename select=\"//personx[1]\">person"
                       "</xupdate:rename>";
      }
      if (!db->Update(Wrap(body)).ok()) continue;
      ++committed;
      history.emplace_back(fs::file_size(wal), state());
    }
    const std::string full = [&] {
      std::ifstream in(wal, std::ios::binary);
      return std::string((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    }();
    ASSERT_EQ(full.size(), history.back().first);

    Database::Options sopt = opt;
    sopt.data_dir = scratch.string();
    auto check_truncation = [&](uint64_t t) {
      SCOPED_TRACE("wal truncated to " + std::to_string(t) + " of " +
                   std::to_string(full.size()) + " bytes");
      fs::copy_file(snap, scratch / "fuzz.snapshot",
                    fs::copy_options::overwrite_existing);
      {
        std::ofstream out(scratch / "fuzz.wal",
                          std::ios::binary | std::ios::trunc);
        out.write(full.data(), static_cast<std::streamsize>(t));
      }
      auto r = Database::Open(sopt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      size_t j = 0;  // deepest commit whose record fits in t bytes
      while (j + 1 < history.size() && history[j + 1].first <= t) ++j;
      auto got = r.value()->Serialize();
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(got.value(), history[j].second);
      verify_recovered(*r.value(), "truncated-wal recovery");
    };
    for (size_t j = 0;
         j < history.size() && !::testing::Test::HasFatalFailure(); ++j) {
      check_truncation(history[j].first);
      if (history[j].first > 0 && !::testing::Test::HasFatalFailure()) {
        check_truncation(history[j].first - 1);
      }
    }
    for (int i = 0; i < 6 && !::testing::Test::HasFatalFailure(); ++i) {
      check_truncation(rng.Uniform(full.size() + 1));
    }
    if (::testing::Test::HasFatalFailure()) return;

    // --- Phase B: crash the checkpoint at every protocol step (tmp
    // open/write/sync/close, rename, dirsync, WAL-reset close/open/
    // sync), then restart from disk. No commit may be lost or applied
    // twice, whichever side of the rename the crash lands on.
    for (int64_t step = 1; step <= 9; ++step) {
      SCOPED_TRACE("checkpoint crash at protocol op " + std::to_string(step));
      for (int c = 0; c < 2; ++c) {
        const std::string v =
            std::to_string(step) + "_" + std::to_string(c);
        ASSERT_TRUE(db->Update(Wrap("<xupdate:append select=\"/site/people\">"
                                    "<person id=\"cp" +
                                    v + "\"><name>cp" + v +
                                    "</name></person></xupdate:append>"))
                        .ok());
      }
      const std::string expected = state();
      FaultInjector::ArmFailAt(step);
      Status cs = db->Checkpoint();
      const bool fired = FaultInjector::Fired();
      FaultInjector::Disarm();
      ASSERT_TRUE(fired);
      ASSERT_FALSE(cs.ok());
      db.reset();  // the crash: all process state gone
      auto re = Database::Open(opt);
      ASSERT_TRUE(re.ok()) << re.status().ToString();
      db = std::move(re).value();
      auto got = db->Serialize();
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value(), expected);
      verify_recovered(*db, "post-checkpoint-crash recovery");
    }

    // The survivor checkpoints cleanly and still holds every commit.
    const std::string final_state = state();
    ASSERT_TRUE(db->Checkpoint().ok());
    db.reset();
    auto re = Database::Open(opt);
    ASSERT_TRUE(re.ok()) << re.status().ToString();
    EXPECT_EQ(re.value()->recovered_commits(), 0);
    auto got = re.value()->Serialize();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), final_state);
    re.value().reset();
    fs::remove_all(dir);
    fs::remove_all(scratch);
  }
}

}  // namespace
}  // namespace pxq
