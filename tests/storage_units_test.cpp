// Unit tests for the smaller storage components: pools, attribute table,
// BAT columns/overlays, the naive baseline store, snapshots, and the WAL
// record format.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bat/column.h"
#include "bat/delta.h"
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
  for (auto mode : {storage::AttrTable::OwnerMode::kSortedByOwner,
                    storage::AttrTable::OwnerMode::kHashedOwner}) {
    storage::AttrTable t(mode);
    t.Add(5, 1, 10);
    t.Add(5, 2, 11);
    t.Add(9, 1, 12);
    std::vector<int32_t> rows;
    t.Lookup(5, &rows);
    EXPECT_EQ(rows.size(), 2u);
    t.Lookup(7, &rows);
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(t.FindByName(9, 1), 2);
    EXPECT_EQ(t.FindByName(9, 2), -1);
    t.RemoveOwner(5);
    t.Lookup(5, &rows);
    EXPECT_TRUE(rows.empty());
    EXPECT_EQ(t.live_count(), 1);
  }
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
