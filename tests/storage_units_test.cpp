// Unit tests for the smaller storage components: pools, attribute table,
// BAT columns/overlays, the naive baseline store, snapshots, and the WAL
// record format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>

#include "bat/column.h"
#include "bat/delta.h"
#include "common/random.h"
#include "storage/attr_table.h"
#include "storage/naive_store.h"
#include "storage/paged_store.h"
#include "storage/qname_pool.h"
#include "storage/shredder.h"
#include "storage/store_serializer.h"
#include "storage/value_pool.h"
#include "txn/wal.h"

namespace pxq {
namespace {

TEST(QnamePoolTest, InternDedupsAndFinds) {
  storage::QnamePool pool;
  QnameId a = pool.Intern("item");
  QnameId b = pool.Intern("person");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.Intern("item"), a);
  EXPECT_EQ(pool.Find("person"), b);
  EXPECT_EQ(pool.Find("nope"), -1);
  EXPECT_EQ(pool.Name(a), "item");
  pool.SetAt(7, "sparse");
  EXPECT_EQ(pool.Name(7), "sparse");
  EXPECT_EQ(pool.Find("sparse"), 7);
}

TEST(ValuePoolTest, DedupModes) {
  storage::ValuePool plain(/*dedup=*/false);
  EXPECT_NE(plain.Add("x"), plain.Add("x"));  // text pool: every add new

  storage::ValuePool dedup(/*dedup=*/true);
  ValueId a = dedup.Add("x");
  EXPECT_EQ(dedup.Add("x"), a);  // prop pool: double elimination
  EXPECT_EQ(dedup.Find("x"), a);
  EXPECT_EQ(dedup.Find("y"), kNullValue);
}

TEST(AttrTableTest, SortedAndHashedLookup) {
  const auto check = [](auto& t) {
    t.Add(5, 1, 10);
    t.Add(5, 2, 11);
    t.Add(9, 1, 12);
    std::vector<int32_t> rows;
    t.Lookup(5, &rows);
    EXPECT_EQ(rows, (std::vector<int32_t>{0, 1}));
    t.Lookup(7, &rows);
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(t.FindByName(9, 1), 2);
    EXPECT_EQ(t.FindByName(9, 2), -1);
  };
  storage::SortedAttrTable sorted;
  check(sorted);
  storage::AttrTable hashed;
  check(hashed);
  hashed.RemoveOwner(5);
  std::vector<int32_t> rows;
  hashed.Lookup(5, &rows);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(hashed.live_count(), 1);
}

// The updatable table against a std::multimap model under random
// Add / RemoveOwner / RemoveRow / SetProp, with most inserts out of
// owner order. Copies taken along the way must keep the contents they
// had when taken while the original moves on.
TEST(AttrTableTest, RandomOpsMatchModel) {
  struct Model {
    std::multimap<int64_t, int32_t> by_owner;  // equal keys: row order
    std::vector<storage::AttrRow> rows;
  };
  const auto expect_equal = [](const storage::AttrTable& t, const Model& m,
                               int64_t owner) {
    std::vector<int32_t> want;
    auto [lo, hi] = m.by_owner.equal_range(owner);
    for (auto it = lo; it != hi; ++it) want.push_back(it->second);
    std::vector<int32_t> got;
    t.Lookup(owner, &got);
    ASSERT_EQ(got, want) << "owner " << owner;
    for (QnameId qn = 0; qn < 4; ++qn) {
      int32_t first = -1;
      for (int32_t r : want) {
        if (m.rows[static_cast<size_t>(r)].qname == qn) {
          first = r;
          break;
        }
      }
      ASSERT_EQ(t.FindByName(owner, qn), first) << "owner " << owner;
      if (first >= 0) {
        EXPECT_EQ(t.row(first).prop, m.rows[static_cast<size_t>(first)].prop);
      }
    }
  };
  const auto expect_all = [&](const storage::AttrTable& t, const Model& m) {
    ASSERT_EQ(t.size(), static_cast<int64_t>(m.rows.size()));
    ASSERT_EQ(t.live_count(), static_cast<int64_t>(m.by_owner.size()));
    for (int64_t o = 0; o < 3000; ++o) expect_equal(t, m, o);
  };

  Random rng(7);
  storage::AttrTable t;
  Model m;
  const auto add = [&](int64_t owner) {
    const QnameId qn = static_cast<QnameId>(rng.Uniform(4));
    const ValueId prop = static_cast<ValueId>(rng.Uniform(1000));
    t.Add(owner, qn, prop);
    const auto row = static_cast<int32_t>(m.rows.size());
    m.rows.push_back({owner, qn, prop});
    m.by_owner.emplace(owner, row);
  };
  for (int64_t o = 0; o < 2000; ++o) add(o);  // shred-order bulk load

  std::vector<std::pair<storage::AttrTable, Model>> copies;
  int64_t out_of_order = 0;
  for (int step = 0; step < 20000; ++step) {
    const int64_t owner = static_cast<int64_t>(rng.Uniform(3000));
    const uint64_t roll = rng.Uniform(100);
    if (roll < 45) {
      if (m.by_owner.empty() || owner < m.by_owner.rbegin()->first) {
        ++out_of_order;
      }
      add(owner);
    } else if (roll < 55) {
      t.RemoveOwner(owner);
      auto [lo, hi] = m.by_owner.equal_range(owner);
      for (auto it = lo; it != hi; ++it) {
        m.rows[static_cast<size_t>(it->second)].owner = -1;
      }
      m.by_owner.erase(owner);
    } else {
      const auto r = static_cast<int32_t>(rng.Uniform(m.rows.size()));
      storage::AttrRow& mr = m.rows[static_cast<size_t>(r)];
      const int64_t was = mr.owner;
      if (roll < 75) {
        t.RemoveRow(r);
        if (was >= 0) {
          auto [lo, hi] = m.by_owner.equal_range(was);
          for (auto it = lo; it != hi; ++it) {
            if (it->second == r) {
              m.by_owner.erase(it);
              break;
            }
          }
          mr.owner = -1;
        }
      } else {
        const ValueId prop = static_cast<ValueId>(rng.Uniform(1000));
        t.SetProp(r, prop);
        mr.prop = prop;
      }
      if (was >= 0) expect_equal(t, m, was);
    }
    expect_equal(t, m, owner);
    if (step % 4000 == 0) copies.emplace_back(t, m);
  }
  EXPECT_GT(out_of_order, 5000);
  expect_all(t, m);
  // Empty whole index chunks, then fill the gap again.
  for (int64_t o = 0; o < 1500; ++o) {
    t.RemoveOwner(o);
    m.by_owner.erase(o);
    for (storage::AttrRow& r : m.rows) {
      if (r.owner == o) r.owner = -1;
    }
  }
  expect_all(t, m);
  for (int64_t o = 1499; o >= 0; --o) add(o);
  expect_all(t, m);
  for (const auto& [copy, model] : copies) expect_all(copy, model);
}

TEST(AttrTableTest, CloneIsIsolated) {
  // Table level: a copy and its source diverge chunk by chunk.
  storage::AttrTable base;
  for (int64_t o = 0; o < 5000; ++o) base.Add(o, 1, static_cast<ValueId>(o));
  storage::AttrTable clone = base;
  clone.SetProp(clone.FindByName(10, 1), 99999);
  clone.RemoveOwner(20);
  clone.Add(30, 2, 7);
  EXPECT_EQ(base.row(base.FindByName(10, 1)).prop, 10);
  EXPECT_EQ(base.FindByName(20, 1), 20);
  EXPECT_EQ(base.FindByName(30, 2), -1);
  EXPECT_EQ(base.size(), 5000);
  EXPECT_EQ(base.live_count(), 5000);
  base.RemoveOwner(40);
  base.SetProp(base.FindByName(50, 1), -5);
  EXPECT_EQ(clone.FindByName(40, 1), 40);
  EXPECT_EQ(clone.row(clone.FindByName(50, 1)).prop, 50);
  EXPECT_EQ(clone.row(clone.FindByName(10, 1)).prop, 99999);
  EXPECT_EQ(clone.FindByName(30, 2), 5000);

  // Store level: a transaction-style clone records attribute edits in
  // an oplog; replaying it into the base leaves a second live clone as
  // it was.
  storage::PagedStore::Config cfg;
  cfg.page_tuples = 8;
  auto store = std::move(
      storage::PagedStore::Build(
          std::move(storage::ShredXml(
                        "<r><a k='1'/><b k='2'/><c k='3'/></r>")
                        .value()),
          cfg)
          .value());
  const auto serialize = [](const storage::PagedStore& s) {
    return storage::SerializeSubtree(s, s.Root()).value();
  };
  const std::string before = serialize(*store);
  auto writer = store->Clone();
  auto reader = store->Clone();
  storage::OpLog log;
  writer->AttachOpLog(&log);
  const QnameId k = store->pools().InternQname("k");
  const NodeId a = writer->NodeAt(writer->SkipHoles(writer->Root() + 1));
  writer->SetAttrNamed(a, k, writer->pools().AddProp("changed"));
  writer->AddAttr(a, writer->pools().InternQname("n"),
                  writer->pools().AddProp("new"));
  EXPECT_EQ(serialize(*store), before);
  ASSERT_TRUE(store->ReplayOpLog(log).ok());
  EXPECT_EQ(serialize(*store), serialize(*writer));
  EXPECT_NE(serialize(*store), before);
  EXPECT_EQ(serialize(*reader), before);
}

TEST(BatColumnTest, VoidColumnIsVirtual) {
  bat::VoidColumn v(100, 50);
  EXPECT_EQ(v[0], 100);
  EXPECT_EQ(v[49], 149);
  EXPECT_EQ(v.PositionOf(120), 20);
  EXPECT_EQ(v.PositionOf(99), -1);
  EXPECT_EQ(v.PositionOf(150), -1);
}

TEST(BatColumnTest, PositionalOps) {
  bat::TypedColumn<int64_t> col;
  for (int64_t i = 0; i < 10; ++i) col.Append(i * i);
  auto gathered = bat::PositionalJoin(col, {2, 5, 9});
  EXPECT_EQ(gathered, (std::vector<int64_t>{4, 25, 81}));
  auto selected = bat::PositionalSelect(
      col, 0, 10, [](int64_t v) { return v > 30; });
  EXPECT_EQ(selected, (std::vector<int64_t>{6, 7, 8, 9}));
}

TEST(BatDeltaTest, OverlayReadsThroughDelta) {
  bat::TypedColumn<int32_t> base(5, 1);
  bat::DeltaList<int32_t> delta;
  delta.Put(2, 42);
  bat::OverlayColumn<int32_t> view(&base, &delta);
  EXPECT_EQ(view.Get(1), 1);
  EXPECT_EQ(view.Get(2), 42);
  delta.ApplyTo(&base);
  EXPECT_EQ(base.Get(2), 42);
}

TEST(BatDeltaTest, PagedOverlayCopiesOnWrite) {
  bat::TypedColumn<int32_t> base(16, 7);
  bat::PagedOverlay<int32_t> ov(&base, 4);
  EXPECT_EQ(ov.Get(5), 7);
  ov.Set(5, 99);
  EXPECT_EQ(ov.Get(5), 99);
  EXPECT_EQ(base.Get(5), 7);  // base untouched
  EXPECT_EQ(ov.private_page_count(), 1u);
  EXPECT_TRUE(ov.IsPrivate(1));
  EXPECT_FALSE(ov.IsPrivate(0));
  ov.ApplyTo(&base);
  EXPECT_EQ(base.Get(5), 99);
}

TEST(NaiveStoreTest, InsertShiftsEverything) {
  auto dense = storage::ShredXml("<a><b/><c/><d/></a>");
  ASSERT_TRUE(dense.ok());
  auto store_or = storage::NaiveStore::Build(std::move(dense).value());
  ASSERT_TRUE(store_or.ok());
  auto& store = *store_or.value();
  ASSERT_TRUE(store.CheckInvariants().ok());

  std::vector<storage::NewTuple> one = {{0, NodeKind::kElement, 0}};
  auto w = store.InsertTuples(2, 1, one);  // child of b at index 2
  ASSERT_TRUE(w.ok());
  // 2 following tuples shift + 1 new + 2 ancestors = 5 writes.
  EXPECT_EQ(w.value(), 5);
  EXPECT_EQ(store.node_count(), 5);
  ASSERT_TRUE(store.CheckInvariants().ok());
  EXPECT_EQ(store.SizeAt(0), 4);
  EXPECT_EQ(store.SizeAt(1), 1);

  auto d = store.DeleteSubtree(1);  // delete b + inserted child
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(store.node_count(), 3);
  ASSERT_TRUE(store.CheckInvariants().ok());
}

TEST(SnapshotTest, SaveLoadRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("pxq_unit_snap.bin_" + std::to_string(::getpid())))
          .string();
  storage::PagedStore::Config cfg;
  cfg.page_tuples = 8;
  cfg.shred_fill = 0.75;
  auto store = std::move(
      storage::PagedStore::Build(
          std::move(storage::ShredXml(
                        "<r><a k='v'>text</a><b><c/></b></r>")
                        .value()),
          cfg)
          .value());
  // Mutate a bit so the snapshot isn't trivial.
  std::vector<storage::NewTuple> frag = {
      {0, NodeKind::kElement, store->pools().InternQname("n")}};
  ASSERT_TRUE(store->InsertTuples(store->Root() + 1, store->Root(), frag)
                  .ok());
  ASSERT_TRUE(store->SaveSnapshot(path).ok());

  auto loaded_or = storage::PagedStore::LoadSnapshot(path);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  auto& loaded = *loaded_or.value();
  ASSERT_TRUE(loaded.CheckInvariants().ok())
      << loaded.CheckInvariants().ToString();
  EXPECT_EQ(storage::SerializeSubtree(*store, store->Root()).value(),
            storage::SerializeSubtree(loaded, loaded.Root()).value());
  // The loaded store remains updatable (allocator state survived).
  ASSERT_TRUE(
      loaded.InsertTuples(loaded.Root() + 1, loaded.Root(), frag).ok());
  ASSERT_TRUE(loaded.CheckInvariants().ok());
  std::remove(path.c_str());
}

TEST(WalFormatTest, RecordRoundTrip) {
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("pxq_unit_wal.bin_" + std::to_string(::getpid())))
          .string();
  std::remove(path.c_str());
  storage::OpLog log;
  auto page = std::make_shared<storage::Page>(8);
  page->level[0] = 0;
  page->kind[0] = static_cast<uint8_t>(NodeKind::kElement);
  page->ref[0] = 3;
  page->node[0] = 17;
  page->used = 1;
  log.page_appends.push_back({2, page});
  // Page 0 is imaged with tuples 3..5 changed: only they are logged.
  auto pre = std::make_shared<storage::Page>(8);
  auto post = std::make_shared<storage::Page>(*pre);
  post->level[3] = 1;
  post->node[5] = 18;
  post->used = 2;
  log.page_images.push_back({0, post, pre});
  log.SealRanges();
  log.logical_inserts.push_back({2, 0});
  log.node_pos_sets.push_back({17, 2, 0});
  log.size_claims.push_back(17);
  log.attr_ops.push_back(
      {storage::OpLog::AttrOp::Kind::kAdd, 17, 3, 4});
  log.freed_nodes.push_back(99);
  log.used_delta = 1;
  std::vector<txn::PoolDelta> pools = {
      {storage::ContentPools::PoolKind::kQname, 3, "bidder"},
      {storage::ContentPools::PoolKind::kProp, 4, "b7"},
  };
  {
    auto wal = std::move(txn::Wal::Open(path).value());
    ASSERT_TRUE(wal->AppendCommit(42, 7, 8, log, pools).ok());
  }
  auto recs_or = txn::Wal::ReadAll(path, 8);
  ASSERT_TRUE(recs_or.ok());
  ASSERT_EQ(recs_or->size(), 1u);
  const auto& rec = (*recs_or)[0];
  EXPECT_EQ(rec.txn_id, 42u);
  EXPECT_EQ(rec.snapshot_lsn, 7u);
  EXPECT_EQ(rec.commit_lsn, 8u);
  ASSERT_EQ(rec.log.page_appends.size(), 1u);
  EXPECT_EQ(rec.log.page_appends[0].image->node[0], 17);
  ASSERT_EQ(rec.page_ranges.size(), 1u);
  EXPECT_EQ(rec.page_ranges[0].phys, 0);
  EXPECT_EQ(rec.page_ranges[0].used, 2);
  EXPECT_EQ(rec.page_ranges[0].lo, 3);
  EXPECT_EQ(rec.page_ranges[0].tuples.level,
            (std::vector<int32_t>{1, kNullLevel, kNullLevel}));
  EXPECT_EQ(rec.page_ranges[0].tuples.node,
            (std::vector<int64_t>{kNullNode, kNullNode, 18}));
  EXPECT_EQ(rec.log.size_claims, std::vector<NodeId>{17});
  ASSERT_EQ(rec.pool_delta.size(), 2u);
  EXPECT_EQ(rec.pool_delta[0].value, "bidder");
  EXPECT_EQ(rec.log.freed_nodes, std::vector<NodeId>{99});
  std::remove(path.c_str());
}

TEST(WalFormatTest, EmptyTupleRangeRoundTrips) {
  // An imaged page whose tuples all match the page the transaction
  // found (only `used` moved) logs the empty range [lo, lo): its
  // columns encode and decode as nothing.
  std::string path =
      (std::filesystem::temp_directory_path() /
       ("pxq_unit_wal_empty.bin_" + std::to_string(::getpid())))
          .string();
  std::remove(path.c_str());
  storage::OpLog log;
  auto pre = std::make_shared<storage::Page>(8);
  auto post = std::make_shared<storage::Page>(*pre);
  post->used = 3;
  log.page_images.push_back({1, post, pre});
  log.SealRanges();
  ASSERT_EQ(log.page_images[0].lo, log.page_images[0].hi);
  {
    auto wal = std::move(txn::Wal::Open(path).value());
    ASSERT_TRUE(wal->AppendCommit(5, 0, 1, log, {}).ok());
  }
  auto recs_or = txn::Wal::ReadAll(path, 8);
  ASSERT_TRUE(recs_or.ok()) << recs_or.status().ToString();
  ASSERT_EQ(recs_or->size(), 1u);
  const auto& rec = (*recs_or)[0];
  ASSERT_EQ(rec.page_ranges.size(), 1u);
  EXPECT_EQ(rec.page_ranges[0].phys, 1);
  EXPECT_EQ(rec.page_ranges[0].used, 3);
  EXPECT_EQ(rec.page_ranges[0].lo, 8);
  EXPECT_TRUE(rec.page_ranges[0].tuples.size.empty());
  EXPECT_TRUE(rec.page_ranges[0].tuples.node.empty());
  std::remove(path.c_str());
}

TEST(WalFormatTest, MissingFileIsEmpty) {
  auto recs = txn::Wal::ReadAll("/nonexistent/pxq.wal", 8);
  ASSERT_TRUE(recs.ok());
  EXPECT_TRUE(recs->empty());
}

TEST(StatusTest, MacrosAndMessages) {
  auto fails = []() -> Status {
    PXQ_RETURN_IF_ERROR(Status::NotFound("missing"));
    return Status::OK();
  };
  EXPECT_TRUE(fails().IsNotFound());
  EXPECT_EQ(Status::Conflict("page 3").ToString(), "Conflict: page 3");

  auto chained = []() -> StatusOr<int> {
    PXQ_ASSIGN_OR_RETURN(int v, StatusOr<int>(21));
    return v * 2;
  };
  EXPECT_EQ(chained().value(), 42);
}

}  // namespace
}  // namespace pxq
