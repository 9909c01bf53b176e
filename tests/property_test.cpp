// Property tests: random documents put through long random structural
// update sequences, with the paged store checked after every step
// against (a) its own deep invariants (region/lrd semantics, hole runs,
// node/pos bijection, per-page counters) and (b) an independent dense
// reference model of the document (the plain vector representation a
// textbook implementation would use). A third family checks the
// staircase XPath evaluator against the brute-force reference evaluator
// on random paths over the mutated stores.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "common/strings.h"
#include "index/index_manager.h"
#include "storage/paged_store.h"
#include "storage/shredder.h"
#include "storage/store_serializer.h"
#include "xpath/evaluator.h"
#include "xpath/reference_eval.h"
#include "txn/txn_manager.h"

namespace pxq {
namespace {

// --------------------------------------------------------------------------
// Dense reference model: (level, kind, ref) sequences with textbook
// subtree arithmetic. Deliberately simple and obviously correct.
// --------------------------------------------------------------------------
struct RefModel {
  std::vector<int32_t> level;
  std::vector<uint8_t> kind;
  std::vector<int32_t> ref;

  int64_t size() const { return static_cast<int64_t>(level.size()); }

  int64_t SubtreeEnd(int64_t i) const {  // exclusive
    int64_t j = i + 1;
    while (j < size() && level[j] > level[i]) ++j;
    return j;
  }

  void InsertChildren(int64_t parent, int64_t at,
                      const std::vector<storage::NewTuple>& tuples) {
    std::vector<int32_t> lv;
    std::vector<uint8_t> kd;
    std::vector<int32_t> rf;
    for (const auto& t : tuples) {
      lv.push_back(level[parent] + 1 + t.level_rel);
      kd.push_back(static_cast<uint8_t>(t.kind));
      rf.push_back(t.ref);
    }
    level.insert(level.begin() + at, lv.begin(), lv.end());
    kind.insert(kind.begin() + at, kd.begin(), kd.end());
    ref.insert(ref.begin() + at, rf.begin(), rf.end());
  }

  void Delete(int64_t i) {
    int64_t j = SubtreeEnd(i);
    level.erase(level.begin() + i, level.begin() + j);
    kind.erase(kind.begin() + i, kind.begin() + j);
    ref.erase(ref.begin() + i, ref.begin() + j);
  }
};

/// Random document generator (elements + text leaves).
std::string RandomDoc(Random* rng, int max_nodes) {
  std::string xml;
  int budget = 2 + static_cast<int>(rng->Uniform(
                       static_cast<uint64_t>(max_nodes)));
  // Recursive build.
  std::function<void(int)> gen = [&](int depth) {
    const char* names[] = {"a", "b", "c", "d", "e"};
    std::string name = names[rng->Uniform(5)];
    xml += "<" + name;
    if (rng->Bernoulli(0.3)) {
      xml += StrFormat(" id=\"n%d\"", static_cast<int>(rng->Uniform(50)));
    }
    xml += ">";
    while (budget > 0 && rng->Bernoulli(depth == 0 ? 0.9 : 0.55)) {
      --budget;
      if (rng->Bernoulli(0.3)) {
        xml += StrFormat("t%d", static_cast<int>(rng->Uniform(9)));
      } else if (depth < 6) {
        gen(depth + 1);
      }
    }
    xml += "</" + name + ">";
  };
  gen(0);
  return xml;
}

/// Compare the used-tuple sequence of the paged store with the model.
void ExpectMatchesModel(const storage::PagedStore& store,
                        const RefModel& model, const char* what) {
  ASSERT_EQ(store.used_count(), model.size()) << what;
  int64_t i = 0;
  for (PreId p = store.SkipHoles(0); p < store.view_size();
       p = store.SkipHoles(p + 1), ++i) {
    ASSERT_EQ(store.LevelAt(p), model.level[i]) << what << " node " << i;
    ASSERT_EQ(static_cast<uint8_t>(store.KindAt(p)), model.kind[i])
        << what << " node " << i;
    ASSERT_EQ(store.RefAt(p), model.ref[i]) << what << " node " << i;
  }
}

struct SweepParams {
  uint64_t seed;
  int32_t page_tuples;
  double fill;
};

class RandomUpdateSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(RandomUpdateSweep, StoreTracksReferenceModel) {
  SweepParams param = GetParam();
  Random rng(param.seed);
  std::string xml = RandomDoc(&rng, 120);
  auto dense_or = storage::ShredXml(xml);
  ASSERT_TRUE(dense_or.ok()) << dense_or.status().ToString() << "\n" << xml;
  storage::DenseDocument dense = std::move(dense_or).value();

  RefModel model{dense.level, dense.kind, dense.ref};
  storage::PagedStore::Config cfg;
  cfg.page_tuples = param.page_tuples;
  cfg.shred_fill = param.fill;
  auto store_or = storage::PagedStore::Build(std::move(dense), cfg);
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  auto& store = *store_or.value();

  constexpr int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    // Pick a random used tuple + its model index.
    std::vector<std::pair<PreId, int64_t>> used;
    int64_t idx = 0;
    for (PreId p = store.SkipHoles(0); p < store.view_size();
         p = store.SkipHoles(p + 1), ++idx) {
      used.emplace_back(p, idx);
    }
    auto [target, tidx] = used[rng.Uniform(used.size())];

    if (rng.Bernoulli(0.35) && target != store.Root()) {
      // delete the subtree
      int64_t region_nodes = model.SubtreeEnd(tidx) - tidx;
      auto gone = store.DeleteSubtree(target);
      ASSERT_TRUE(gone.ok()) << gone.status().ToString();
      EXPECT_EQ(static_cast<int64_t>(gone->size()), region_nodes);
      model.Delete(tidx);
    } else if (store.KindAt(target) == NodeKind::kElement) {
      // insert a small random forest as children
      std::vector<storage::NewTuple> frag;
      int n = 1 + static_cast<int>(rng.Uniform(4));
      int32_t lvl = 0;
      for (int i = 0; i < n; ++i) {
        NodeKind k = rng.Bernoulli(0.3) ? NodeKind::kText
                                        : NodeKind::kElement;
        int32_t r = (k == NodeKind::kText)
                        ? store.pools().AddText("x")
                        : store.pools().InternQname("z");
        frag.push_back({lvl, k, r});
        if (k == NodeKind::kElement && rng.Bernoulli(0.5)) {
          lvl = std::min(lvl + 1, 3);
        } else if (rng.Bernoulli(0.5)) {
          lvl = std::max(lvl - 1, 0);
        }
      }
      frag[0].level_rel = 0;
      // choose: before a child / after last child
      PreId at;
      int64_t model_at;
      if (rng.Bernoulli(0.5)) {
        at = target + store.SizeAt(target) + 1;  // append as last child
        model_at = model.SubtreeEnd(tidx);
      } else {
        at = target + 1;  // first child position
        model_at = tidx + 1;
      }
      auto ids = store.InsertTuples(at, target, frag);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      model.InsertChildren(tidx, model_at, frag);
    } else {
      continue;  // value node picked for insert: skip
    }

    Status inv = store.CheckInvariants();
    ASSERT_TRUE(inv.ok()) << "after op " << op << ": " << inv.ToString();
    ExpectMatchesModel(store, model,
                       StrFormat("op %d", op).c_str());
  }
  // Exercised enough structure to have grown/shrunk pages.
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomUpdateSweep,
    ::testing::Values(SweepParams{1, 8, 0.75}, SweepParams{2, 8, 1.0},
                      SweepParams{3, 16, 0.5}, SweepParams{4, 16, 0.8},
                      SweepParams{5, 32, 0.9}, SweepParams{6, 64, 0.6},
                      SweepParams{7, 8, 0.75}, SweepParams{8, 256, 0.8},
                      SweepParams{9, 16, 0.7}, SweepParams{10, 32, 0.8}));

// --------------------------------------------------------------------------
// XPath property: staircase evaluator == brute-force reference on random
// paths over stores mutated by random updates.
// --------------------------------------------------------------------------

/// A random positional predicate: [1]..[3] or [last()].
xpath::Predicate RandomPosition(Random* rng) {
  xpath::Predicate p;
  if (rng->Bernoulli(0.5)) {
    p.kind = xpath::Predicate::Kind::kPosition;
    p.position = 1 + static_cast<int64_t>(rng->Uniform(3));
  } else {
    p.kind = xpath::Predicate::Kind::kLast;
  }
  return p;
}

/// A random exists predicate: a relative path of 1-3 steps over the
/// child, descendant, following-sibling, parent and ancestor axes, each
/// step optionally positional or filtered by [@id]. Its sub-plan runs
/// lifted over every candidate at once, and the random documents nest
/// a..e, so the candidates' regions contain each other.
xpath::Predicate RandomExists(Random* rng) {
  static constexpr xpath::Axis kAxes[] = {
      xpath::Axis::kChild, xpath::Axis::kDescendant,
      xpath::Axis::kFollowingSibling, xpath::Axis::kParent,
      xpath::Axis::kAncestor};
  const char* names[] = {"a", "b", "c", "d", "e"};
  xpath::Predicate p;
  p.kind = xpath::Predicate::Kind::kExists;
  const int steps = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < steps; ++i) {
    xpath::Step s;
    s.axis = kAxes[rng->Uniform(5)];
    if (rng->Bernoulli(0.7)) {
      s.test.kind = xpath::NodeTest::Kind::kName;
      s.test.name = names[rng->Uniform(5)];
    } else {
      s.test.kind = xpath::NodeTest::Kind::kAnyName;
    }
    if (rng->Bernoulli(0.3)) {
      s.predicates.push_back(RandomPosition(rng));
    } else if (rng->Bernoulli(0.2)) {
      xpath::Predicate id;
      id.kind = xpath::Predicate::Kind::kExists;
      id.rel.resize(1);
      id.rel[0].axis = xpath::Axis::kAttribute;
      id.rel[0].test.kind = xpath::NodeTest::Kind::kName;
      id.rel[0].test.name = "id";
      s.predicates.push_back(std::move(id));
    }
    p.rel.push_back(std::move(s));
  }
  return p;
}

xpath::Path RandomPath(Random* rng) {
  xpath::Path path;
  path.absolute = true;
  int steps = 1 + static_cast<int>(rng->Uniform(3));
  const char* names[] = {"a", "b", "c", "d", "e", "z"};
  for (int i = 0; i < steps; ++i) {
    xpath::Step s;
    switch (rng->Uniform(8)) {
      case 0: s.axis = xpath::Axis::kChild; break;
      case 1: s.axis = xpath::Axis::kDescendant; break;
      case 2: s.axis = xpath::Axis::kDescendantOrSelf; break;
      case 3: s.axis = xpath::Axis::kFollowing; break;
      case 4: s.axis = xpath::Axis::kPreceding; break;
      case 5: s.axis = xpath::Axis::kFollowingSibling; break;
      case 6: s.axis = xpath::Axis::kAncestor; break;
      default: s.axis = xpath::Axis::kChild; break;
    }
    if (i == 0) {
      // leading step restrictions (see evaluator): child or descendant
      s.axis = rng->Bernoulli(0.5) ? xpath::Axis::kChild
                                   : xpath::Axis::kDescendant;
    }
    switch (rng->Uniform(3)) {
      case 0:
        s.test.kind = xpath::NodeTest::Kind::kName;
        s.test.name = names[rng->Uniform(6)];
        break;
      case 1: s.test.kind = xpath::NodeTest::Kind::kAnyName; break;
      default: s.test.kind = xpath::NodeTest::Kind::kAnyNode; break;
    }
    if (rng->Bernoulli(0.3)) s.predicates.push_back(RandomExists(rng));
    if (rng->Bernoulli(0.25)) s.predicates.push_back(RandomPosition(rng));
    path.steps.push_back(s);
  }
  return path;
}

TEST(XPathPropertyTest, StaircaseMatchesReferenceOnMutatedStores) {
  for (uint64_t seed = 100; seed < 108; ++seed) {
    Random rng(seed);
    std::string xml = RandomDoc(&rng, 150);
    auto dense = storage::ShredXml(xml);
    ASSERT_TRUE(dense.ok());
    storage::PagedStore::Config cfg;
    cfg.page_tuples = 16;
    cfg.shred_fill = 0.7;
    auto store_or = storage::PagedStore::Build(std::move(dense).value(), cfg);
    ASSERT_TRUE(store_or.ok());
    auto& store = *store_or.value();

    // Mutate: a few deletes + inserts to create holes and page stitches.
    for (int i = 0; i < 25; ++i) {
      std::vector<PreId> used;
      for (PreId p = store.SkipHoles(0); p < store.view_size();
           p = store.SkipHoles(p + 1)) {
        used.push_back(p);
      }
      PreId t = used[rng.Uniform(used.size())];
      if (rng.Bernoulli(0.4) && t != store.Root()) {
        ASSERT_TRUE(store.DeleteSubtree(t).ok());
      } else if (store.KindAt(t) == NodeKind::kElement) {
        std::vector<storage::NewTuple> frag = {
            {0, NodeKind::kElement, store.pools().InternQname("z")}};
        ASSERT_TRUE(
            store.InsertTuples(t + store.SizeAt(t) + 1, t, frag).ok());
      }
    }
    ASSERT_TRUE(store.CheckInvariants().ok());

    // The scan paths, and the index paths with every index answer
    // replayed against the scan (cross-check: the gate always accepts).
    index::IndexConfig cfg_idx;
    cfg_idx.cross_check = true;
    index::IndexManager idx(cfg_idx);
    idx.Rebuild(store);
    xpath::Evaluator<storage::PagedStore> fast(store);
    xpath::Evaluator<storage::PagedStore> indexed(store, &idx);
    xpath::ReferenceEvaluator<storage::PagedStore> slow(store);
    for (int q = 0; q < 30; ++q) {
      xpath::Path path = RandomPath(&rng);
      auto a = fast.Eval(path);
      auto b = slow.Eval(path);
      auto c = indexed.Eval(path);
      ASSERT_EQ(a.ok(), b.ok()) << xpath::ToString(path);
      ASSERT_EQ(c.ok(), b.ok()) << xpath::ToString(path) << ": "
                                << c.status().ToString();
      if (a.ok()) {
        EXPECT_EQ(a.value(), b.value())
            << "seed " << seed << " path " << xpath::ToString(path);
        EXPECT_EQ(c.value(), b.value())
            << "seed " << seed << " indexed path " << xpath::ToString(path);
      }
    }
  }
}

// --------------------------------------------------------------------------
// Transactional equivalence: the same op sequence applied through
// sequential transactions equals direct application.
// --------------------------------------------------------------------------

TEST(TxnPropertyTest, TransactionalEqualsDirectApplication) {
  for (uint64_t seed = 200; seed < 205; ++seed) {
    Random rng_doc(seed);
    std::string xml = RandomDoc(&rng_doc, 100);

    storage::PagedStore::Config cfg;
    cfg.page_tuples = 16;
    cfg.shred_fill = 0.7;
    auto direct_or =
        storage::PagedStore::Build(std::move(storage::ShredXml(xml).value()),
                                   cfg);
    ASSERT_TRUE(direct_or.ok());
    auto direct = std::move(direct_or).value();
    std::shared_ptr<storage::PagedStore> txn_base = std::move(
        storage::PagedStore::Build(std::move(storage::ShredXml(xml).value()),
                                   cfg)
            .value());
    auto mgr_or = txn::TransactionManager::Create(txn_base);
    ASSERT_TRUE(mgr_or.ok());

    // The same pseudo-random op sequence for both.
    auto run_ops = [&](storage::PagedStore* s, uint64_t op_seed) {
      Random rng(op_seed);
      for (int i = 0; i < 30; ++i) {
        std::vector<PreId> used;
        for (PreId p = s->SkipHoles(0); p < s->view_size();
             p = s->SkipHoles(p + 1)) {
          used.push_back(p);
        }
        PreId t = used[rng.Uniform(used.size())];
        if (rng.Bernoulli(0.4) && t != s->Root()) {
          EXPECT_TRUE(s->DeleteSubtree(t).ok());
        } else if (s->KindAt(t) == NodeKind::kElement) {
          std::vector<storage::NewTuple> frag = {
              {0, NodeKind::kElement, s->pools().InternQname("w")},
              {1, NodeKind::kText, s->pools().AddText("v")}};
          EXPECT_TRUE(
              s->InsertTuples(t + s->SizeAt(t) + 1, t, frag).ok());
        }
      }
    };

    run_ops(direct.get(), seed * 7);
    {
      // Same ops, but split across several transactions.
      Random rng(seed * 7);
      auto mgr = std::move(mgr_or).value();
      for (int batch = 0; batch < 3; ++batch) {
        auto t_or = mgr->Begin();
        ASSERT_TRUE(t_or.ok());
        auto* s = t_or.value()->store();
        for (int i = 0; i < 10; ++i) {
          std::vector<PreId> used;
          for (PreId p = s->SkipHoles(0); p < s->view_size();
               p = s->SkipHoles(p + 1)) {
            used.push_back(p);
          }
          PreId t = used[rng.Uniform(used.size())];
          if (rng.Bernoulli(0.4) && t != s->Root()) {
            EXPECT_TRUE(s->DeleteSubtree(t).ok());
          } else if (s->KindAt(t) == NodeKind::kElement) {
            std::vector<storage::NewTuple> frag = {
                {0, NodeKind::kElement, s->pools().InternQname("w")},
                {1, NodeKind::kText, s->pools().AddText("v")}};
            EXPECT_TRUE(
                s->InsertTuples(t + s->SizeAt(t) + 1, t, frag).ok());
          }
        }
        ASSERT_TRUE(t_or.value()->Commit().ok());
      }
      ASSERT_TRUE(txn_base->CheckInvariants().ok())
          << txn_base->CheckInvariants().ToString();
    }

    auto a = storage::SerializeSubtree(*direct, direct->Root());
    auto b = storage::SerializeSubtree(*txn_base, txn_base->Root());
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value(), b.value()) << "seed " << seed;
  }
}

}  // namespace
}  // namespace pxq
