// ACID tests for the Figure 8 transaction protocol: isolation via COW
// clones, commutative ancestor deltas from concurrent committers,
// write-write page conflicts, abort/rollback, WAL durability and crash
// recovery, checkpointing.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <thread>

#include "storage/paged_store.h"
#include "storage/shredder.h"
#include "storage/store_serializer.h"
#include "txn/txn_manager.h"
#include "xpath/evaluator.h"
#include "xupdate/apply.h"

namespace pxq {
namespace {

std::shared_ptr<storage::PagedStore> BuildStore(const char* xml,
                                                int32_t page_tuples = 16,
                                                double fill = 0.75) {
  auto dense = storage::ShredXml(xml);
  EXPECT_TRUE(dense.ok()) << dense.status().ToString();
  storage::PagedStore::Config cfg;
  cfg.page_tuples = page_tuples;
  cfg.shred_fill = fill;
  auto store = storage::PagedStore::Build(std::move(dense).value(), cfg);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::string Serialized(const storage::PagedStore& s) {
  auto xml = storage::SerializeSubtree(s, s.Root());
  EXPECT_TRUE(xml.ok());
  return xml.value();
}

// A document with several independent sections so concurrent
// transactions can work on disjoint pages.
constexpr const char* kDoc =
    "<db><sec1><x/><x/><x/></sec1><sec2><y/><y/><y/></sec2>"
    "<sec3><z/><z/><z/></sec3></db>";

// Per-process names, so concurrent runs of this binary never share
// files.
std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string(name) + "_" + std::to_string(::getpid())))
      .string();
}

TEST(TxnTest, CommitPublishesChanges) {
  auto base = BuildStore(kDoc);
  auto mgr_or = txn::TransactionManager::Create(base);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  auto t = mgr.Begin();
  ASSERT_TRUE(t.ok());
  auto stats = xupdate::ApplyXUpdate(t.value()->store(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/db/sec1"><w/></xupdate:append>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Not yet visible in the base.
  EXPECT_EQ(Serialized(*base).find("<w/>"), std::string::npos);
  ASSERT_TRUE(t.value()->Commit().ok());
  // Now visible.
  EXPECT_NE(Serialized(*base).find("<w/>"), std::string::npos);
  EXPECT_TRUE(base->CheckInvariants().ok())
      << base->CheckInvariants().ToString();
}

TEST(TxnTest, AbortRollsBack) {
  auto base = BuildStore(kDoc);
  auto mgr_or = txn::TransactionManager::Create(base);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();
  std::string before = Serialized(*base);

  auto t = mgr.Begin();
  ASSERT_TRUE(t.ok());
  auto stats = xupdate::ApplyXUpdate(t.value()->store(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:remove select="/db/sec2"/>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(t.value()->Abort().ok());
  EXPECT_EQ(Serialized(*base), before);
  EXPECT_TRUE(base->CheckInvariants().ok());
}

TEST(TxnTest, SnapshotIsolationForReaders) {
  auto base = BuildStore(kDoc);
  auto mgr_or = txn::TransactionManager::Create(base);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  auto t = mgr.Begin();
  ASSERT_TRUE(t.ok());
  // The transaction sees its own writes; the base does not.
  auto stats = xupdate::ApplyXUpdate(t.value()->store(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/db/sec3"><n/></xupdate:append>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok());
  auto own = xpath::EvaluatePath(*t.value()->store(), "/db/sec3/n");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(own.value().size(), 1u);
  int64_t base_n = mgr.Read([](const storage::PagedStore& s) {
    auto r = xpath::EvaluatePath(s, "/db/sec3/n");
    return r.ok() ? static_cast<int64_t>(r.value().size()) : -1;
  });
  EXPECT_EQ(base_n, 0);
  ASSERT_TRUE(t.value()->Commit().ok());
}

TEST(TxnTest, WriteWriteConflictAborts) {
  // Same page touched by two overlapping transactions: the second
  // committer (or lock waiter) must abort.
  auto base = BuildStore(kDoc, /*page_tuples=*/256, /*fill=*/0.5);
  txn::TxnOptions opts;
  opts.lock_timeout = std::chrono::milliseconds(50);
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  auto t1 = mgr.Begin();
  auto t2 = mgr.Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  const char* update = R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/db/sec1"><w/></xupdate:append>
    </xupdate:modifications>)";
  ASSERT_TRUE(xupdate::ApplyXUpdate(t1.value()->store(), update).ok());
  // t2 needs the same page lock; the paper's deadlock timeout fires.
  auto s2 = xupdate::ApplyXUpdate(t2.value()->store(), update);
  EXPECT_FALSE(s2.ok());
  EXPECT_TRUE(s2.status().IsConflict()) << s2.status().ToString();
  ASSERT_TRUE(t1.value()->Commit().ok());
  // t2 is poisoned; commit reports the abort.
  Status c2 = t2.value()->Commit();
  EXPECT_TRUE(c2.IsAborted()) << c2.ToString();
  EXPECT_TRUE(base->CheckInvariants().ok());
}

TEST(TxnTest, FirstUpdaterWinsAcrossCommit) {
  // t2 starts before t1 commits, then tries to touch the page t1
  // committed: snapshot too old -> conflict.
  auto base = BuildStore(kDoc, /*page_tuples=*/256, /*fill=*/0.5);
  txn::TxnOptions opts;
  opts.lock_timeout = std::chrono::milliseconds(50);
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  auto t1 = mgr.Begin();
  auto t2 = mgr.Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  const char* update = R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/db/sec2"><w/></xupdate:append>
    </xupdate:modifications>)";
  ASSERT_TRUE(xupdate::ApplyXUpdate(t1.value()->store(), update).ok());
  ASSERT_TRUE(t1.value()->Commit().ok());
  auto s2 = xupdate::ApplyXUpdate(t2.value()->store(), update);
  EXPECT_FALSE(s2.ok());
  EXPECT_TRUE(s2.status().IsConflict()) << s2.status().ToString();
}

TEST(TxnTest, ConcurrentDisjointWritersBothCommit) {
  // Transactions on disjoint pages run concurrently and both commit —
  // the point of page-granular locking + commutative ancestor deltas
  // (the root's size is maintained without locking the root's page).
  auto base = BuildStore(kDoc, /*page_tuples=*/8, /*fill=*/0.6);
  ASSERT_GT(base->logical_page_count(), 1);
  auto mgr_or = txn::TransactionManager::Create(base);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  auto t1 = mgr.Begin();
  auto t2 = mgr.Begin();
  ASSERT_TRUE(t1.ok() && t2.ok());
  auto s1 = xupdate::ApplyXUpdate(t1.value()->store(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/db/sec1" child="1"><w1/></xupdate:append>
    </xupdate:modifications>)");
  ASSERT_TRUE(s1.ok()) << s1.status().ToString();
  auto s2 = xupdate::ApplyXUpdate(t2.value()->store(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/db/sec3" child="1"><w2/></xupdate:append>
    </xupdate:modifications>)");
  // Disjoint sections usually map to disjoint pages at this page size;
  // if the layout happens to collide, the test degrades gracefully.
  if (s2.ok()) {
    ASSERT_TRUE(t1.value()->Commit().ok());
    Status c2 = t2.value()->Commit();
    ASSERT_TRUE(c2.ok()) << c2.ToString();
    std::string out = Serialized(*base);
    EXPECT_NE(out.find("<w1/>"), std::string::npos);
    EXPECT_NE(out.find("<w2/>"), std::string::npos);
    Status inv = base->CheckInvariants();
    EXPECT_TRUE(inv.ok()) << inv.ToString();
  }
}

TEST(TxnTest, ManyThreadsDisjointSubtrees) {
  // Stress: N threads each append under their own section, retrying on
  // conflict; final store must contain every insert and stay valid.
  constexpr int kThreads = 4;
  constexpr int kInsertsPerThread = 25;
  std::string doc = "<db>";
  for (int i = 0; i < kThreads; ++i) {
    doc += "<sec" + std::to_string(i) + "><seed/></sec" + std::to_string(i) +
           ">";
  }
  doc += "</db>";
  auto base = BuildStore(doc.c_str(), /*page_tuples=*/16, /*fill=*/0.6);
  auto mgr_or = txn::TransactionManager::Create(base);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  std::vector<std::thread> threads;
  std::atomic<int> committed{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < kInsertsPerThread; ++k) {
        std::string up =
            "<xupdate:modifications version=\"1.0\" "
            "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
            "<xupdate:append select=\"/db/sec" +
            std::to_string(i) + "\"><item t=\"" + std::to_string(i) +
            "\"/></xupdate:append></xupdate:modifications>";
        for (int attempt = 0; attempt < 50; ++attempt) {
          auto t = mgr.Begin();
          if (!t.ok()) continue;
          auto s = xupdate::ApplyXUpdate(t.value()->store(), up);
          if (!s.ok()) {
            t.value()->Abort().ok();
            continue;
          }
          if (t.value()->Commit().ok()) {
            committed.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(committed.load(), kThreads * kInsertsPerThread);
  Status inv = base->CheckInvariants();
  ASSERT_TRUE(inv.ok()) << inv.ToString();
  for (int i = 0; i < kThreads; ++i) {
    auto items = xpath::EvaluatePath(
        *base, ("/db/sec" + std::to_string(i) + "/item").c_str());
    ASSERT_TRUE(items.ok());
    EXPECT_EQ(items.value().size(),
              static_cast<size_t>(kInsertsPerThread))
        << "section " << i;
  }
}

TEST(TxnDurabilityTest, WalRecoveryAfterCrash) {
  std::string snap = TempPath("pxq_test_snap.bin");
  std::string wal = TempPath("pxq_test_wal.bin");
  std::remove(snap.c_str());
  std::remove(wal.c_str());

  std::string committed_xml;
  {
    auto base = BuildStore(kDoc);
    ASSERT_TRUE(base->SaveSnapshot(snap).ok());
    txn::TxnOptions opts;
    opts.wal_path = wal;
    auto mgr_or = txn::TransactionManager::Create(base, opts);
    ASSERT_TRUE(mgr_or.ok());
    auto& mgr = *mgr_or.value();

    for (int i = 0; i < 3; ++i) {
      auto t = mgr.Begin();
      ASSERT_TRUE(t.ok());
      std::string up =
          "<xupdate:modifications version=\"1.0\" "
          "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
          "<xupdate:append select=\"/db/sec1\"><gen n=\"" +
          std::to_string(i) + "\"/></xupdate:append>"
          "</xupdate:modifications>";
      ASSERT_TRUE(xupdate::ApplyXUpdate(t.value()->store(), up).ok());
      ASSERT_TRUE(t.value()->Commit().ok());
    }
    // An uncommitted transaction must NOT survive the crash.
    auto doomed = mgr.Begin();
    ASSERT_TRUE(doomed.ok());
    ASSERT_TRUE(xupdate::ApplyXUpdate(doomed.value()->store(), R"(
      <xupdate:modifications version="1.0"
          xmlns:xupdate="http://www.xmldb.org/xupdate">
        <xupdate:remove select="/db/sec3"/>
      </xupdate:modifications>)").ok());
    committed_xml = Serialized(*base);
    // "Crash": drop everything without committing `doomed`.
    doomed.value()->Abort().ok();
  }

  auto recovered = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto& store = *recovered.value().store;
  EXPECT_EQ(recovered.value().replayed_commits, 3);
  Status inv = store.CheckInvariants();
  ASSERT_TRUE(inv.ok()) << inv.ToString();
  EXPECT_EQ(Serialized(store), committed_xml);

  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

TEST(TxnDurabilityTest, TornWalTailIsIgnored) {
  std::string snap = TempPath("pxq_test_snap2.bin");
  std::string wal = TempPath("pxq_test_wal2.bin");
  std::remove(snap.c_str());
  std::remove(wal.c_str());

  auto base = BuildStore(kDoc);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  {
    txn::TxnOptions opts;
    opts.wal_path = wal;
    auto mgr_or = txn::TransactionManager::Create(base, opts);
    ASSERT_TRUE(mgr_or.ok());
    auto t = mgr_or.value()->Begin();
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(xupdate::ApplyXUpdate(t.value()->store(), R"(
      <xupdate:modifications version="1.0"
          xmlns:xupdate="http://www.xmldb.org/xupdate">
        <xupdate:append select="/db/sec2"><ok/></xupdate:append>
      </xupdate:modifications>)").ok());
    ASSERT_TRUE(t.value()->Commit().ok());
  }
  // Simulate a torn write: truncate the WAL mid-record after appending
  // garbage that looks like the start of a (v2) record.
  {
    FILE* f = std::fopen(wal.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    uint32_t magic = 0x50585158;
    std::fwrite(&magic, 4, 1, f);
    uint64_t bogus = 77;
    std::fwrite(&bogus, 8, 1, f);  // truncated header
    std::fclose(f);
  }
  auto recovered = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  auto ok_nodes =
      xpath::EvaluatePath(*recovered.value().store, "/db/sec2/ok");
  ASSERT_TRUE(ok_nodes.ok());
  EXPECT_EQ(ok_nodes.value().size(), 1u);

  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

TEST(TxnDurabilityTest, CheckpointTruncatesWal) {
  std::string snap = TempPath("pxq_test_snap3.bin");
  std::string wal = TempPath("pxq_test_wal3.bin");
  std::remove(snap.c_str());
  std::remove(wal.c_str());

  auto base = BuildStore(kDoc);
  txn::TxnOptions opts;
  opts.wal_path = wal;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();
  auto t = mgr.Begin();
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(xupdate::ApplyXUpdate(t.value()->store(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/db/sec1"><c/></xupdate:append>
    </xupdate:modifications>)").ok());
  ASSERT_TRUE(t.value()->Commit().ok());
  ASSERT_TRUE(mgr.Checkpoint(snap).ok());
  // WAL now empty; snapshot alone must reproduce the store (and the
  // snapshot's recorded last_lsn must match the manager's LSN).
  auto recovered = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(Serialized(*recovered.value().store), Serialized(*base));
  EXPECT_EQ(recovered.value().last_lsn, mgr.commit_lsn());
  EXPECT_EQ(recovered.value().replayed_commits, 0);

  std::remove(snap.c_str());
  std::remove(wal.c_str());
}

TEST(LockScalingTest, ReadersRunWaitFreeAndWakeFreeWithoutWriters) {
  // The sharded-slot point: with no writer anywhere, 32 reader threads
  // must never block (reader_waits == 0) and never wake the drain path
  // (drain_notifies == 0 — the old design broadcast on every
  // last-reader exit). Explicit reader_slots: hardware_concurrency may
  // be 1 on CI runners, which would shrink the auto-sized array.
  constexpr int kThreads = 32;
  constexpr int kReadsPerThread = 200;
  auto base = BuildStore(kDoc);
  txn::TxnOptions opts;
  opts.reader_slots = 64;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  std::vector<std::thread> threads;
  std::atomic<int64_t> seen{0};
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int k = 0; k < kReadsPerThread; ++k) {
        seen.fetch_add(mgr.Read([](const storage::PagedStore& s) {
          return static_cast<int64_t>(s.used_count());
        }));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(seen.load(), 0);

  const auto st = mgr.lock_stats();
  EXPECT_EQ(st.reader_slots, 64);
  EXPECT_GE(st.reader_acquires, int64_t{kThreads} * kReadsPerThread);
  EXPECT_EQ(st.reader_waits, 0);
  EXPECT_EQ(st.writer_acquires, 0);
  EXPECT_EQ(st.drain_notifies, 0);
}

TEST(LockScalingTest, WriterMakesProgressUnderReaderStorm) {
  // Writer preference must survive the sharded redesign: one committer
  // against 32 spinning readers still gets every commit through, with
  // a bounded wait (the intent flag stops new readers; in-flight reads
  // drain quickly).
  constexpr int kThreads = 32;
  constexpr int kCommits = 6;
  auto base = BuildStore(kDoc);
  txn::TxnOptions opts;
  opts.reader_slots = 64;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < kThreads; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        mgr.Read([](const storage::PagedStore& s) {
          return static_cast<int64_t>(s.used_count());
        });
      }
    });
  }
  int committed = 0;
  for (int i = 0; i < kCommits; ++i) {
    std::string up =
        "<xupdate:modifications version=\"1.0\" "
        "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
        "<xupdate:append select=\"/db/sec1\"><storm n=\"" +
        std::to_string(i) + "\"/></xupdate:append></xupdate:modifications>";
    for (int attempt = 0; attempt < 50; ++attempt) {
      auto t = mgr.Begin();
      if (!t.ok()) continue;
      if (!xupdate::ApplyXUpdate(t.value()->store(), up).ok()) {
        t.value()->Abort().ok();
        continue;
      }
      if (t.value()->Commit().ok()) {
        ++committed;
        break;
      }
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(committed, kCommits);
  const auto st = mgr.lock_stats();
  EXPECT_GE(st.writer_acquires, kCommits);
  // Bounded writer wait: the intent flag caps each drain at the length
  // of in-flight reads, so total blocked time stays far below a second
  // per commit even on a loaded single-core runner.
  EXPECT_LT(st.writer_wait_ns, int64_t{kCommits} * 1000 * 1000 * 1000)
      << "writer stalled behind readers";
  auto n = xpath::EvaluatePath(*base, "/db/sec1/storm");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value().size(), static_cast<size_t>(kCommits));
}

// GroupCommitTest.WriteBurstBatchesCommitsAndRecovers lives in
// tests/recovery_test.cpp with the rest of the crash-recovery matrix.

}  // namespace
}  // namespace pxq
