// Crash-recovery tests for the durability path (ISSUE 9): the atomic
// checkpoint protocol driven through every injected crash point, WAL
// torn-tail truncation at every byte offset of the final record,
// corrupt-snapshot rejection, WAL append rollback, and the durability
// metrics. The fault-injection layer (common/fault_injection.h) makes
// each test a deterministic replay of one crash instant: a counting
// pass learns the protocol's faultable-op sequence, then the matrix
// fails each op in turn and proves recovery lands on the exact
// committed prefix.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/checksum.h"
#include "common/fault_injection.h"
#include "database.h"
#include "storage/paged_store.h"
#include "storage/shredder.h"
#include "storage/store_serializer.h"
#include "txn/txn_manager.h"
#include "txn/wal.h"
#include "xpath/evaluator.h"
#include "xmark/generator.h"
#include "xupdate/apply.h"

namespace pxq {
namespace {

namespace fs = std::filesystem;

std::shared_ptr<storage::PagedStore> BuildStore(const std::string& xml,
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

constexpr const char* kDoc =
    "<db><sec1><x/><x/><x/></sec1><sec2><y/><y/><y/></sec2>"
    "<sec3><z/><z/><z/></sec3></db>";

// Per-process names, so concurrent runs of this binary never share
// files.
std::string TempPath(const char* name) {
  return (fs::temp_directory_path() /
          (std::string(name) + "_" + std::to_string(::getpid())))
      .string();
}

std::string Wrap(const std::string& body) {
  return "<xupdate:modifications version=\"1.0\" "
         "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">" +
         body + "</xupdate:modifications>";
}

/// One committed append transaction; returns the commit status.
Status CommitAppend(txn::TransactionManager& mgr, const std::string& sel,
                    const std::string& fragment) {
  auto t = mgr.Begin();
  if (!t.ok()) return t.status();
  auto stats = xupdate::ApplyXUpdate(
      t.value()->store(),
      Wrap("<xupdate:append select=\"" + sel + "\">" + fragment +
           "</xupdate:append>"));
  if (!stats.ok()) {
    Status ignore = t.value()->Abort();
    (void)ignore;
    return stats.status();
  }
  return t.value()->Commit();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void RemoveAll(std::initializer_list<std::string> paths) {
  for (const auto& p : paths) std::remove(p.c_str());
}

std::string Join(const std::vector<std::string>& v) {
  std::string s;
  for (const auto& e : v) {
    if (!s.empty()) s += ",";
    s += e;
  }
  return s;
}

int64_t CountNodes(const storage::PagedStore& s, const char* path) {
  auto r = xpath::EvaluatePath(s, path);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? static_cast<int64_t>(r.value().size()) : -1;
}

/// The corruption table patches counts and re-checksums with the
/// snapshot's own checksum, so a flipped byte is not what LoadSnapshot
/// rejects; the bogus count itself must be.
std::string Rechecksummed(std::string bytes) {
  EXPECT_GE(bytes.size(), 8u);
  const uint64_t h = Checksum64(bytes.data(), bytes.size() - 8);
  std::memcpy(&bytes[bytes.size() - 8], &h, 8);
  return bytes;
}

template <typename T>
std::string Patched(std::string bytes, size_t off, T v) {
  EXPECT_LE(off + sizeof(T), bytes.size());
  std::memcpy(&bytes[off], &v, sizeof(T));
  return Rechecksummed(std::move(bytes));
}

// ------------------------------------------------------------------
// The checkpoint crash matrix: a counting pass learns the protocol's
// faultable op sequence (tmp open/write/sync/close, rename, dirsync,
// then the WAL reset's close/open/sync), then every op fails in turn.
// After each injected crash, Recover must land exactly on the
// committed state — never a torn snapshot, never a lost or duplicated
// commit.
TEST(CheckpointCrashTest, EveryProtocolStepRecoversCommittedState) {
  const std::string snap = TempPath("pxq_crash_matrix.snapshot");
  const std::string wal = TempPath("pxq_crash_matrix.wal");
  RemoveAll({snap, wal, snap + ".tmp"});
  {
    auto base = BuildStore(kDoc);
    ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  }

  // Counting pass: one commit, one full (successful) durable
  // checkpoint; StopCounting returns the protocol's op names in order.
  std::vector<std::string> ops;
  {
    auto rec = txn::TransactionManager::Recover(snap, wal);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    txn::TxnOptions opts;
    opts.wal_path = wal;
    opts.start_lsn = rec.value().last_lsn;
    auto mgr = txn::TransactionManager::Create(rec.value().store, opts);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE(CommitAppend(*mgr.value(), "/db/sec1", "<w i=\"0\"/>").ok());
    FaultInjector::StartCounting();
    ASSERT_TRUE(mgr.value()->Checkpoint(snap).ok());
    ops = FaultInjector::StopCounting();
  }
  // 6 snapshot ops + 3 WAL-reset ops. If the protocol grows a step the
  // matrix below still covers it; this assert documents the sequence.
  ASSERT_EQ(ops.size(), 9u) << Join(ops);
  EXPECT_EQ(Join(ops), "open,write,sync,close,rename,dirsync,close,open,sync");

  std::string expected;
  {
    auto rec = txn::TransactionManager::Recover(snap, wal);
    ASSERT_TRUE(rec.ok());
    expected = Serialized(*rec.value().store);
  }

  for (size_t i = 1; i <= ops.size(); ++i) {
    SCOPED_TRACE("crash at op " + std::to_string(i) + " (" + ops[i - 1] +
                 ")");
    // "Reboot": rebuild everything from the on-disk files.
    auto rec = txn::TransactionManager::Recover(snap, wal);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ASSERT_EQ(Serialized(*rec.value().store), expected);
    txn::TxnOptions opts;
    opts.wal_path = wal;
    opts.start_lsn = rec.value().last_lsn;
    auto mgr = txn::TransactionManager::Create(rec.value().store, opts);
    ASSERT_TRUE(mgr.ok());
    // One more committed transaction, then a checkpoint that "crashes"
    // at protocol step i.
    ASSERT_TRUE(CommitAppend(*mgr.value(), "/db/sec1",
                             "<w i=\"" + std::to_string(i) + "\"/>")
                    .ok());
    expected = Serialized(*rec.value().store);
    FaultInjector::ArmFailAt(static_cast<int64_t>(i));
    Status s = mgr.value()->Checkpoint(snap);
    const bool fired = FaultInjector::Fired();
    FaultInjector::Disarm();
    ASSERT_TRUE(fired);
    ASSERT_FALSE(s.ok()) << "fault did not fail the checkpoint";
    // The crashed process is gone; recovery must see every commit.
    auto rec2 = txn::TransactionManager::Recover(snap, wal);
    ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();
    EXPECT_EQ(Serialized(*rec2.value().store), expected);
    EXPECT_TRUE(rec2.value().store->CheckInvariants().ok());
  }

  // A clean checkpoint after the whole gauntlet: everything lands in
  // the snapshot and the WAL replays nothing.
  {
    auto rec = txn::TransactionManager::Recover(snap, wal);
    ASSERT_TRUE(rec.ok());
    txn::TxnOptions opts;
    opts.wal_path = wal;
    opts.start_lsn = rec.value().last_lsn;
    auto mgr = txn::TransactionManager::Create(rec.value().store, opts);
    ASSERT_TRUE(mgr.ok());
    ASSERT_TRUE(mgr.value()->Checkpoint(snap).ok());
    auto rec2 = txn::TransactionManager::Recover(snap, wal);
    ASSERT_TRUE(rec2.ok());
    EXPECT_EQ(Serialized(*rec2.value().store), expected);
    EXPECT_EQ(rec2.value().replayed_commits, 0);
  }
  RemoveAll({snap, wal, snap + ".tmp"});
}

// Acceptance criterion: an injected ENOSPC (failed tmp write) leaves
// the previous snapshot AND the WAL byte-identical, removes the tmp
// file, and the live manager keeps working — the next checkpoint
// succeeds.
TEST(CheckpointCrashTest, InjectedEnospcLeavesPreviousSnapshotAndWalIntact) {
  const std::string snap = TempPath("pxq_enospc.snapshot");
  const std::string wal = TempPath("pxq_enospc.wal");
  RemoveAll({snap, wal, snap + ".tmp"});
  auto base = BuildStore(kDoc);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  txn::TxnOptions opts;
  opts.wal_path = wal;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec1", "<w/>").ok());
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec2", "<v/>").ok());

  const std::string snap_before = ReadFile(snap);
  const std::string wal_before = ReadFile(wal);
  // Checkpoint op 2 is the tmp-file write (op 1 is its open) — the
  // ENOSPC moment.
  FaultInjector::ArmFailAt(2);
  Status s = mgr.Checkpoint(snap);
  const bool fired = FaultInjector::Fired();
  FaultInjector::Disarm();
  ASSERT_TRUE(fired);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(ReadFile(snap), snap_before);
  EXPECT_EQ(ReadFile(wal), wal_before);
  EXPECT_FALSE(fs::exists(snap + ".tmp"));

  // Nothing was lost, and the database is still fully operational.
  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(Serialized(*rec.value().store), Serialized(mgr.base()));
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec3", "<u/>").ok());
  ASSERT_TRUE(mgr.Checkpoint(snap).ok());
  auto rec2 = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(Serialized(*rec2.value().store), Serialized(mgr.base()));
  EXPECT_EQ(rec2.value().replayed_commits, 0);
  RemoveAll({snap, wal, snap + ".tmp"});
}

// A torn tmp write (power loss mid-write: a prefix reaches the disk)
// must never replace or damage the real snapshot.
TEST(CheckpointCrashTest, TornTmpWriteNeverCorruptsTheSnapshot) {
  const std::string snap = TempPath("pxq_torn_tmp.snapshot");
  const std::string wal = TempPath("pxq_torn_tmp.wal");
  RemoveAll({snap, wal, snap + ".tmp"});
  auto base = BuildStore(kDoc);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  txn::TxnOptions opts;
  opts.wal_path = wal;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec1", "<w/>").ok());

  const std::string snap_before = ReadFile(snap);
  FaultInjector::ArmFailAt(2, /*torn_fraction=*/0.5);  // tmp write, torn
  Status s = mgr.Checkpoint(snap);
  FaultInjector::Disarm();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(ReadFile(snap), snap_before);

  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(Serialized(*rec.value().store), Serialized(mgr.base()));
  RemoveAll({snap, wal, snap + ".tmp"});
}

// A hard crash can leave <path>.tmp behind with arbitrary bytes (the
// in-process cleanup never ran). Recovery reads only the real
// snapshot, and the next checkpoint's rename replaces the stale tmp.
TEST(CheckpointCrashTest, StaleTmpFileFromHardCrashIsIgnored) {
  const std::string snap = TempPath("pxq_stale_tmp.snapshot");
  const std::string wal = TempPath("pxq_stale_tmp.wal");
  RemoveAll({snap, wal, snap + ".tmp"});
  auto base = BuildStore(kDoc);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  WriteFile(snap + ".tmp", "garbage from a half-written checkpoint");

  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(Serialized(*rec.value().store), Serialized(*base));

  txn::TxnOptions opts;
  opts.wal_path = wal;
  opts.start_lsn = rec.value().last_lsn;
  auto mgr = txn::TransactionManager::Create(rec.value().store, opts);
  ASSERT_TRUE(mgr.ok());
  ASSERT_TRUE(CommitAppend(*mgr.value(), "/db/sec1", "<w/>").ok());
  ASSERT_TRUE(mgr.value()->Checkpoint(snap).ok());
  EXPECT_FALSE(fs::exists(snap + ".tmp"));  // renamed over the real path
  auto rec2 = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(Serialized(*rec2.value().store),
            Serialized(mgr.value()->base()));
  RemoveAll({snap, wal, snap + ".tmp"});
}

// The double-replay regression the v2 format exists for: a crash after
// the snapshot rename but before the WAL reset leaves every record in
// the WAL AND in the snapshot. Replaying them again would duplicate
// page appends; the snapshot's recorded last_lsn must make them no-ops.
TEST(CheckpointCrashTest, CrashBetweenRenameAndWalResetDoesNotReplayTwice) {
  const std::string snap = TempPath("pxq_double_replay.snapshot");
  const std::string wal = TempPath("pxq_double_replay.wal");
  RemoveAll({snap, wal, snap + ".tmp"});
  auto base = BuildStore(kDoc);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  txn::TxnOptions opts;
  opts.wal_path = wal;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(CommitAppend(mgr, "/db/sec3",
                             "<n i=\"" + std::to_string(i) + "\"/>")
                    .ok());
  }

  // Crash at the first op after the dirsync: the snapshot (with
  // last_lsn = 5) is durably installed, the WAL still holds all 5
  // records. Op 7 = the WAL reset's close (6 snapshot ops precede it).
  FaultInjector::ArmFailAt(7);
  Status s = mgr.Checkpoint(snap);
  const bool fired = FaultInjector::Fired();
  FaultInjector::Disarm();
  ASSERT_TRUE(fired);
  ASSERT_FALSE(s.ok());
  EXPECT_GT(fs::file_size(wal), 0u);  // records still there

  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  // All 5 records carry LSNs at or below the snapshot's last_lsn: none
  // replays, and the 5 appended nodes appear exactly once.
  EXPECT_EQ(rec.value().replayed_commits, 0);
  EXPECT_EQ(rec.value().last_lsn, mgr.commit_lsn());
  EXPECT_EQ(CountNodes(*rec.value().store, "/db/sec3/n"), 5);
  EXPECT_EQ(Serialized(*rec.value().store), Serialized(mgr.base()));
  EXPECT_TRUE(rec.value().store->CheckInvariants().ok());
  RemoveAll({snap, wal, snap + ".tmp"});
}

// ------------------------------------------------------------------
// WAL torn tail: truncate the log at EVERY byte offset of the final
// record (plus every record boundary and boundary-1) and recover. The
// result must always be the deepest committed prefix whose bytes fit —
// never an error, never a partial transaction.
TEST(WalTornTailTest, TruncationAtEveryByteOffsetRecoversACommittedPrefix) {
  const std::string snap = TempPath("pxq_torn_tail.snapshot");
  const std::string wal = TempPath("pxq_torn_tail.wal");
  const std::string cut = TempPath("pxq_torn_tail_cut.wal");
  RemoveAll({snap, wal, cut});
  auto base = BuildStore(kDoc);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  txn::TxnOptions opts;
  opts.wal_path = wal;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  // After each commit: the exact WAL length and the committed state a
  // log cut at that length must recover.
  std::vector<uint64_t> size_after{fs::file_size(wal)};
  std::vector<std::string> state_after{Serialized(*base)};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(CommitAppend(mgr, "/db/sec2",
                             "<n i=\"" + std::to_string(i) + "\"/>")
                    .ok());
    size_after.push_back(fs::file_size(wal));
    state_after.push_back(Serialized(*base));
  }
  const std::string full = ReadFile(wal);
  ASSERT_EQ(full.size(), size_after.back());

  int64_t checked = 0;
  auto check = [&](uint64_t t) {
    SCOPED_TRACE("truncated to " + std::to_string(t) + " of " +
                 std::to_string(full.size()) + " bytes");
    WriteFile(cut, full.substr(0, t));
    auto rec = txn::TransactionManager::Recover(snap, cut);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    size_t j = 0;  // deepest commit whose record is fully inside t bytes
    while (j + 1 < size_after.size() && size_after[j + 1] <= t) ++j;
    EXPECT_EQ(Serialized(*rec.value().store), state_after[j]);
    EXPECT_EQ(rec.value().replayed_commits, static_cast<int64_t>(j));
    EXPECT_TRUE(rec.value().store->CheckInvariants().ok());
    ++checked;
  };
  // Every byte offset of the final record...
  for (uint64_t t = size_after[size_after.size() - 2]; t <= full.size();
       ++t) {
    check(t);
    if (::testing::Test::HasFatalFailure()) break;
  }
  // ...and every earlier record boundary, exact and one byte short.
  for (size_t j = 0;
       j + 1 < size_after.size() && !::testing::Test::HasFatalFailure();
       ++j) {
    check(size_after[j]);
    if (size_after[j] > 0) check(size_after[j] - 1);
  }
  EXPECT_GT(checked, 3);
  RemoveAll({snap, wal, cut});
}

// ------------------------------------------------------------------
// WAL append fault: a failed (even torn) batch append must be rolled
// off the file so the garbage tail can never shadow commits appended
// after it — the latent bug this PR fixes.
TEST(WalFaultTest, FailedAppendRollsTheTornTailBack) {
  const std::string snap = TempPath("pxq_wal_rollback.snapshot");
  const std::string wal = TempPath("pxq_wal_rollback.wal");
  RemoveAll({snap, wal});
  auto base = BuildStore(kDoc);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  txn::TxnOptions opts;
  opts.wal_path = wal;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec1", "<a/>").ok());

  // Learn the append's op shape (writes then one fsync).
  FaultInjector::StartCounting();
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec1", "<b/>").ok());
  const std::vector<std::string> ops = FaultInjector::StopCounting();
  ASSERT_FALSE(ops.empty());
  ASSERT_EQ(ops.back(), "sync") << Join(ops);
  const uint64_t clean_size = fs::file_size(wal);
  const std::string state_before = Serialized(mgr.base());

  // Torn write mid-append: half the record reaches the disk, then the
  // rollback truncates it away.
  FaultInjector::ArmFailAt(1, /*torn_fraction=*/0.5);
  Status c = CommitAppend(mgr, "/db/sec1", "<c/>");
  FaultInjector::Disarm();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(fs::file_size(wal), clean_size);
  EXPECT_EQ(Serialized(mgr.base()), state_before);  // commit never applied

  // Failed fsync: same contract.
  FaultInjector::ArmFailAt(static_cast<int64_t>(ops.size()));
  c = CommitAppend(mgr, "/db/sec1", "<d/>");
  FaultInjector::Disarm();
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(fs::file_size(wal), clean_size);

  // Later commits append over the rolled-back region and recover.
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec1", "<e/>").ok());
  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().replayed_commits, 3);  // a, b, e
  EXPECT_EQ(Serialized(*rec.value().store), Serialized(mgr.base()));
  EXPECT_EQ(CountNodes(*rec.value().store, "/db/sec1/e"), 1);
  EXPECT_EQ(CountNodes(*rec.value().store, "/db/sec1/c"), 0);
  RemoveAll({snap, wal});
}

// Wal::Reset must report a failure at any of its steps (close, open,
// sync) instead of claiming the truncation is durable — the checkpoint
// protocol treats a dirty reset as a failed checkpoint.
TEST(WalFaultTest, ResetReportsEveryStepFailure) {
  const std::string path = TempPath("pxq_wal_reset.wal");
  for (int64_t step = 1; step <= 3; ++step) {
    SCOPED_TRACE("reset step " + std::to_string(step));
    std::remove(path.c_str());
    auto wal = txn::Wal::Open(path);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    FaultInjector::ArmFailAt(step);
    Status s = wal.value()->Reset();
    const bool fired = FaultInjector::Fired();
    FaultInjector::Disarm();
    ASSERT_TRUE(fired);
    EXPECT_FALSE(s.ok());
  }
  std::remove(path.c_str());
  auto wal = txn::Wal::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(wal.value()->Reset().ok());
  std::remove(path.c_str());
}

// ------------------------------------------------------------------
// Corrupt snapshots: every patched count, flipped byte, and truncation
// must come back as Status::Corruption — never a crash, never a
// bad_alloc from trusting an on-disk length.
TEST(SnapshotCorruptionTest, CorruptBytesYieldCorruptionNotCrash) {
  const std::string path = TempPath("pxq_corrupt.snapshot");
  const std::string bad = TempPath("pxq_corrupt_bad.snapshot");
  RemoveAll({path, bad, path + ".tmp"});
  auto store = BuildStore(kDoc);
  ASSERT_TRUE(store->SaveSnapshot(path, /*last_lsn=*/7, {{3, 5}}).ok());

  // The pristine file round-trips, including the LSN state.
  uint64_t lsn = 0;
  std::vector<std::pair<uint64_t, NodeId>> claims;
  auto good_or = storage::PagedStore::LoadSnapshot(path, &lsn, &claims);
  ASSERT_TRUE(good_or.ok()) << good_or.status().ToString();
  EXPECT_EQ(lsn, 7u);
  ASSERT_EQ(claims.size(), 1u);
  EXPECT_EQ(claims[0].first, 3u);
  EXPECT_EQ(claims[0].second, 5);
  EXPECT_EQ(Serialized(*good_or.value()), Serialized(*store));

  const std::string good = ReadFile(path);
  // Fixed v3 header offsets (one claim): magic@0, version@4,
  // page_tuples@8, shred_fill@12, last_lsn@20, nclaims@28, the claim
  // @36..52, pool 0 count@52, pool 0 entry 0 length@60.
  struct Case {
    const char* name;
    std::string bytes;
  };
  std::string flipped = good;
  flipped[flipped.size() / 3] =
      static_cast<char>(flipped[flipped.size() / 3] ^ 0x40);
  const std::vector<Case> cases = {
      {"empty file", ""},
      {"truncated header", good.substr(0, 10)},
      {"truncated middle", good.substr(0, good.size() / 2)},
      {"one byte short", good.substr(0, good.size() - 1)},
      {"trailing garbage", good + "xx"},
      {"flipped byte", flipped},
      {"bad magic", Patched<uint32_t>(good, 0, 0xDEADBEEF)},
      {"bad version", Patched<uint32_t>(good, 4, 1)},
      {"older version", Patched<uint32_t>(good, 4, 2)},
      {"page_tuples zero", Patched<int32_t>(good, 8, 0)},
      {"page_tuples not a power of two", Patched<int32_t>(good, 8, 3)},
      {"page_tuples huge", Patched<int32_t>(good, 8, 1 << 30)},
      {"claim count huge", Patched<uint64_t>(good, 28, 1ULL << 56)},
      {"pool count huge", Patched<int64_t>(good, 52, 1LL << 60)},
      {"pool count negative", Patched<int64_t>(good, 52, -1)},
      {"pool entry length huge", Patched<uint64_t>(good, 60, 1ULL << 56)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    WriteFile(bad, c.bytes);
    auto r = storage::PagedStore::LoadSnapshot(bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kCorruption)
        << r.status().ToString();
  }
  RemoveAll({path, bad});
}

// ------------------------------------------------------------------
// Group-commit durability regression (moved here from txn_test): a
// write burst under a batching window must batch (fewer WAL fsyncs
// than commits) AND recover every commit from the batched log.
TEST(GroupCommitRecoveryTest, WriteBurstBatchesCommitsAndRecovers) {
  const std::string snap = TempPath("pxq_gc_recovery.snapshot");
  const std::string wal = TempPath("pxq_gc_recovery.wal");
  RemoveAll({snap, wal});
  std::string doc = "<db>";
  for (int i = 0; i < 8; ++i) {
    doc += "<sec" + std::to_string(i) + "><seed/></sec" + std::to_string(i) +
           ">";
  }
  doc += "</db>";
  auto base = BuildStore(doc, /*page_tuples=*/16, /*fill=*/0.6);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  txn::TxnOptions opts;
  opts.wal_path = wal;
  opts.group_commit_window_us = 20000;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  constexpr int kThreads = 8;
  constexpr int kCommitsEach = 3;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int k = 0; k < kCommitsEach; ++k) {
        const std::string up = Wrap(
            "<xupdate:append select=\"/db/sec" + std::to_string(i) +
            "\"><item k=\"" + std::to_string(k) + "\"/></xupdate:append>");
        for (int attempt = 0; attempt < 50; ++attempt) {
          auto t = mgr.Begin();
          if (!t.ok()) continue;
          if (!xupdate::ApplyXUpdate(t.value()->store(), up).ok()) {
            Status ignore = t.value()->Abort();
            (void)ignore;
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
  ASSERT_EQ(committed.load(), kThreads * kCommitsEach);

  const int64_t groups = mgr.group_commits();
  EXPECT_GT(groups, 0);
  EXPECT_LT(groups, int64_t{kThreads} * kCommitsEach);
  EXPECT_GE(mgr.commits_per_group_hist().Snap().p50(), 2.0);

  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().replayed_commits, kThreads * kCommitsEach);
  EXPECT_EQ(Serialized(*rec.value().store), Serialized(*base));
  EXPECT_TRUE(rec.value().store->CheckInvariants().ok());
  RemoveAll({snap, wal});
}

// ------------------------------------------------------------------
// Durability observability: pxq_checkpoint_ns records each exclusive-
// window stall, Open() fills pxq_recovery_replay_ns and
// pxq_recovery_replayed_commits, and all three appear in StatsJson.
TEST(RecoveryMetricsTest, CheckpointAndRecoveryMetricsAreExposed) {
  const std::string dir = TempPath("pxq_recovery_metrics");
  fs::remove_all(dir);
  fs::create_directories(dir);
  Database::Options opt;
  opt.data_dir = dir;
  opt.name = "recmet";

  auto db_or = Database::CreateFromXml("<db><a/></db>", opt);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(db_or).value();
  EXPECT_TRUE(db->durable());
  EXPECT_EQ(db->recovered_commits(), 0);

  ASSERT_TRUE(
      db->Update(Wrap("<xupdate:append select=\"/db\"><b/></xupdate:append>"))
          .ok());
  EXPECT_EQ(db->txn_manager().wal_commits(), 1);
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_EQ(db->txn_manager().checkpoint_hist().Count(), 1);
  EXPECT_EQ(db->txn_manager().wal_commits(), 0);  // truncated

  // One commit after the checkpoint: the next Open replays exactly it.
  ASSERT_TRUE(
      db->Update(Wrap("<xupdate:append select=\"/db\"><c/></xupdate:append>"))
          .ok());
  auto expected = db->Serialize();
  ASSERT_TRUE(expected.ok());
  db.reset();

  auto db2_or = Database::Open(opt);
  ASSERT_TRUE(db2_or.ok()) << db2_or.status().ToString();
  auto db2 = std::move(db2_or).value();
  EXPECT_TRUE(db2->durable());
  EXPECT_EQ(db2->recovered_commits(), 1);
  auto roundtrip = db2->Serialize();
  ASSERT_TRUE(roundtrip.ok());
  EXPECT_EQ(roundtrip.value(), expected.value());

  const std::string j = db2->StatsJson();
  EXPECT_NE(j.find("pxq_checkpoint_ns"), std::string::npos);
  EXPECT_NE(j.find("pxq_recovery_replay_ns"), std::string::npos);
  EXPECT_NE(j.find("pxq_recovery_replayed_commits"), std::string::npos);
  fs::remove_all(dir);
}

// ------------------------------------------------------------------
// Commit ordering and the pool-delta watermark. The WAL append and its
// fsync run before the exclusive window, under a commit mutex that
// Checkpoint also takes; commit records log only pool entries at or
// above the pool sizes of the last snapshot save.

/// A durable database in a fresh directory.
std::unique_ptr<Database> DurableDb(const std::string& dir,
                                    const std::string& xml) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  Database::Options opt;
  opt.data_dir = dir;
  auto db = Database::CreateFromXml(xml, opt);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return std::move(db).value();
}

/// "Crash" (drop the process state without a checkpoint) and Open.
std::unique_ptr<Database> Reopen(std::unique_ptr<Database> db,
                                 const std::string& dir) {
  db.reset();
  Database::Options opt;
  opt.data_dir = dir;
  auto reopened = Database::Open(opt);
  EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
  return std::move(reopened).value();
}

std::string AppendDoc(const std::string& sel, const std::string& fragment) {
  return Wrap("<xupdate:append select=\"" + sel + "\">" + fragment +
              "</xupdate:append>");
}

int64_t PoolDeltaEntries(const Database& db) {
  return db.Metrics().ValueOf("pxq_wal_pool_delta_entries_total");
}

TEST(CommitOrderingTest, CheckpointLoopBesideCommittersRecoversLiveState) {
  const std::string dir = TempPath("pxq_ckpt_loop");
  auto db = DurableDb(dir, kDoc);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::atomic<int> checkpoints{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&, w] {
      // Every commit interns fresh texts, attribute values and (every
      // fifth) element names, so each record needs pool entries.
      const std::string sel = "/db/sec" + std::to_string(w + 1);
      for (int i = 0; i < 25; ++i) {
        const std::string id = std::to_string(w) + "_" + std::to_string(i);
        const std::string tag = i % 5 == 0 ? "n" + id : "w";
        const std::string frag =
            "<" + tag + " v=\"" + id + "\">t" + id + "</" + tag + ">";
        if (!db->Update(AppendDoc(sel, frag), /*retries=*/20).ok()) {
          ++failures;
        }
      }
    });
  }
  std::thread checkpointer([&] {
    while (!stop.load()) {
      if (!db->Checkpoint().ok()) ++failures;
      ++checkpoints;
      // Let committers in between; back to back, the checkpointer would
      // keep winning the commit mutex.
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (auto& t : writers) t.join();
  stop.store(true);
  checkpointer.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(checkpoints.load(), 0);

  auto live = db->Serialize();
  ASSERT_TRUE(live.ok());
  db = Reopen(std::move(db), dir);
  auto recovered = db->Serialize();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), live.value());
  EXPECT_TRUE(db->txn_manager().base().CheckInvariants().ok());
  auto count = db->Query("/db/*/*");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().size(), 9u + 75u);
  fs::remove_all(dir);
}

// A checkpoint keeps commits out with the commit mutex and writes the
// snapshot under the shared lock, so queries keep completing while it
// runs: about as many per second as between checkpoints. Under an
// exclusive lock only the query already in flight could finish.
TEST(CommitOrderingTest, QueriesCompleteDuringCheckpoint) {
  using Clock = std::chrono::steady_clock;
  const std::string dir = TempPath("pxq_ckpt_reads");
  xmark::GeneratorOptions gen;
  gen.factor = 0.01;
  gen.seed = 1;
  auto db = DurableDb(dir, xmark::Generate(gen));
  // Odd while a checkpoint runs, even during the equally long pause
  // after it. A query counts for the phase it started and ended in.
  std::atomic<int> phase{0};
  std::atomic<bool> stop{false};
  std::atomic<int64_t> done[2] = {0, 0};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    while (!stop.load()) {
      const int at_start = phase.load();
      if (!db->Query("/site/regions").ok()) ++failures;
      if (phase.load() == at_start) ++done[at_start % 2];
    }
  });
  Clock::duration spent[2] = {};
  for (int i = 0; i < 5; ++i) {
    ++phase;
    const auto t0 = Clock::now();
    EXPECT_TRUE(db->Checkpoint().ok());
    const auto t1 = Clock::now();
    ++phase;
    std::this_thread::sleep_for(t1 - t0);
    spent[1] += t1 - t0;
    spent[0] += Clock::now() - t1;
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  const auto rate = [&](int p) {
    return static_cast<double>(done[p].load()) /
           std::chrono::duration<double>(spent[p]).count();
  };
  EXPECT_GT(rate(1), 0.25 * rate(0))
      << done[1].load() << " queries inside checkpoints, " << done[0].load()
      << " between";
  fs::remove_all(dir);
}

TEST(PoolWatermarkTest, TextInternedBeforeCheckpointCommittedAfterIt) {
  const std::string dir = TempPath("pxq_mark_straddle");
  auto db = DurableDb(dir, kDoc);
  auto txn = db->Begin();
  ASSERT_TRUE(txn.ok());
  ASSERT_TRUE(
      txn.value()->Update(AppendDoc("/db/sec2", "<y>straddles</y>")).ok());
  // The text is interned now; the checkpoint saves it (pools are
  // shared) and moves the watermark past it, so the commit below does
  // not log it — recovery must find it in the snapshot.
  ASSERT_TRUE(db->Checkpoint().ok());
  const int64_t logged_before = PoolDeltaEntries(*db);
  ASSERT_TRUE(txn.value()->Commit().ok());
  EXPECT_EQ(PoolDeltaEntries(*db), logged_before);
  auto live = db->Serialize();
  ASSERT_TRUE(live.ok());

  db = Reopen(std::move(db), dir);
  EXPECT_EQ(db->recovered_commits(), 1);
  auto recovered = db->Serialize();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), live.value());
  auto texts = db->QueryStrings("/db/sec2/y[. = 'straddles']");
  ASSERT_TRUE(texts.ok());
  ASSERT_EQ(texts.value().size(), 1u);
  fs::remove_all(dir);
}

TEST(PoolWatermarkTest, IdInternedByAbortedTxnIsLoggedWhenReferenced) {
  const std::string dir = TempPath("pxq_mark_aborted");
  auto db = DurableDb(dir, kDoc);
  ASSERT_TRUE(db->Checkpoint().ok());
  {
    // Element names and attribute values are deduplicated: the aborted
    // transaction interns both, the later commit reuses its ids.
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(txn.value()
                    ->Update(AppendDoc("/db/sec1", "<fresh k=\"orphan\"/>"))
                    .ok());
    ASSERT_TRUE(txn.value()->Abort().ok());
  }
  const int64_t logged_before = PoolDeltaEntries(*db);
  ASSERT_TRUE(db->Update(AppendDoc("/db/sec3", "<fresh k=\"orphan\"/>")).ok());
  // The name, the attribute name and the attribute value.
  EXPECT_EQ(PoolDeltaEntries(*db) - logged_before, 3);
  auto live = db->Serialize();
  ASSERT_TRUE(live.ok());

  db = Reopen(std::move(db), dir);
  auto recovered = db->Serialize();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), live.value());
  auto hits = db->Query("/db/sec3/fresh[@k = 'orphan']");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 1u);
  fs::remove_all(dir);
}

TEST(PoolWatermarkTest, CommitOfPreCheckpointEntriesLogsNoPoolDelta) {
  const std::string dir = TempPath("pxq_mark_zero");
  auto db = DurableDb(dir, "<db><a k=\"v\">text</a><b/></db>");
  ASSERT_TRUE(db->Update(AppendDoc("/db/b", "<c k=\"w\">more</c>")).ok());
  ASSERT_TRUE(db->Checkpoint().ok());
  // Only names and values the snapshot already holds: the logged page
  // ranges reference some of them, none of them is logged.
  const int64_t before = PoolDeltaEntries(*db);
  ASSERT_TRUE(db->Update(AppendDoc("/db/b", "<a k=\"v\"/><c k=\"w\"/>")).ok());
  EXPECT_EQ(PoolDeltaEntries(*db) - before, 0);
  // A fresh text is exactly one entry.
  ASSERT_TRUE(db->Update(AppendDoc("/db/b", "<a>new</a>")).ok());
  EXPECT_EQ(PoolDeltaEntries(*db) - before, 1);
  // Replay + size resolution is timed once per committed member.
  const obs::MetricsSnapshot m = db->Metrics();
  ASSERT_NE(m.HistOf("pxq_commit_replay_ns"), nullptr);
  EXPECT_EQ(m.HistOf("pxq_commit_replay_ns")->count, 3);
  auto live = db->Serialize();
  ASSERT_TRUE(live.ok());

  db = Reopen(std::move(db), dir);
  EXPECT_EQ(db->recovered_commits(), 2);
  auto recovered = db->Serialize();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), live.value());
  fs::remove_all(dir);
}

// ------------------------------------------------------------------
// Range records (WAL format v2). A commit logs, per page it wrote, only
// the tuple range that differs from the page as the transaction found
// it; recovery lays that range over the page it has rebuilt so far.

// T1 begins; T2 commits an append whose ancestor sizes sit on page 0;
// only then does T1 write page 0. T1's copy of page 0 predates T2's
// size writes, which the base made by copying the page away from the
// shared object, so T1 is the page's last owner when it writes. Its
// record must still log the range it changed, and recovery must
// re-resolve T2's claims over the laid range exactly as the live
// commit did.
TEST(RangeRecordTest, ConcurrentSizeWriteOnAnImagedPage) {
  const std::string snap = TempPath("pxq_range_concurrent.snapshot");
  const std::string wal = TempPath("pxq_range_concurrent.wal");
  RemoveAll({snap, wal});
  // 13 tuples at 12 per page: db..sec3 and two z on page 0, the last z
  // on page 1.
  auto base = BuildStore(kDoc);
  ASSERT_EQ(base->logical_page_count(), 2);
  ASSERT_TRUE(base->SaveSnapshot(snap).ok());
  txn::TxnOptions opts;
  opts.wal_path = wal;
  auto mgr_or = txn::TransactionManager::Create(base, opts);
  ASSERT_TRUE(mgr_or.ok());
  auto& mgr = *mgr_or.value();

  auto t1 = mgr.Begin();
  ASSERT_TRUE(t1.ok());
  // T2 fills a hole on page 1; its claims (sec3, db) resolve on page 0.
  ASSERT_TRUE(CommitAppend(mgr, "/db/sec3", "<z2/>").ok());
  // T1 shifts page 0 to make room under sec1.
  ASSERT_TRUE(xupdate::ApplyXUpdate(t1.value()->store(),
                                    AppendDoc("/db/sec1", "<x2/>"))
                  .ok());
  ASSERT_TRUE(t1.value()->Commit().ok());
  const std::string live = Serialized(*base);
  EXPECT_NE(live.find("<x2/>"), std::string::npos);
  EXPECT_NE(live.find("<z2/>"), std::string::npos);

  auto records = txn::Wal::ReadAll(wal, base->page_tuples());
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records.value().size(), 2u);
  const auto& ranges = records.value()[1].page_ranges;
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0].phys, 0);
  EXPECT_GT(ranges[0].tuples.size.size(), 0u);

  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec.value().replayed_commits, 2);
  EXPECT_EQ(Serialized(*rec.value().store), live);
  Status inv = rec.value().store->CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  RemoveAll({snap, wal});
}

/// Every used tuple's node id, checking none repeats.
void ExpectDistinctNodeIds(const storage::PagedStore& s) {
  std::unordered_set<NodeId> ids;
  for (PreId pre = 0; pre < s.view_size(); ++pre) {
    if (!s.IsUsed(pre)) continue;
    EXPECT_TRUE(ids.insert(s.NodeAt(pre)).second)
        << "node id " << s.NodeAt(pre) << " used twice";
  }
}

// Recovery marks every replayed node id used once, after its last
// record: commits after a reopen must not mint an id a replayed record
// placed, including ids that went through the free list.
TEST(RangeRecordTest, AllocatorAfterRecoveryMintsNoReplayedId) {
  const std::string dir = TempPath("pxq_alloc_recovery");
  auto db = DurableDb(dir, kDoc);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(db->Update(AppendDoc("/db/sec1", "<a>t</a>")).ok());
  }
  // A delete frees ids; the next appends take them off the free list.
  ASSERT_TRUE(db->Update(Wrap("<xupdate:remove select=\"/db/sec2/y[1]\"/>"))
                  .ok());
  ASSERT_TRUE(db->Update(AppendDoc("/db/sec3", "<b/><b/>")).ok());

  db = Reopen(std::move(db), dir);
  EXPECT_EQ(db->recovered_commits(), 5);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(db->Update(AppendDoc("/db/sec2", "<c>u</c>")).ok());
  }
  ASSERT_TRUE(db->Update(Wrap("<xupdate:remove select=\"/db/sec1/a[2]\"/>"))
                  .ok());
  ASSERT_TRUE(db->Update(AppendDoc("/db/sec1", "<d/>")).ok());
  Status inv = db->store().CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  ExpectDistinctNodeIds(db->store());
  auto live = db->Serialize();
  ASSERT_TRUE(live.ok());

  db = Reopen(std::move(db), dir);
  auto recovered = db->Serialize();
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value(), live.value());
  inv = db->store().CheckInvariants();
  EXPECT_TRUE(inv.ok()) << inv.ToString();
  ExpectDistinctNodeIds(db->store());
  fs::remove_all(dir);
}

// Per-element little-endian reference encoders for the golden tests:
// the bulk encoder must write byte-identical records.
void RefPutU8(std::string* b, uint8_t v) { b->push_back(static_cast<char>(v)); }
void RefPutU32(std::string* b, uint32_t v) {
  for (int i = 0; i < 4; ++i) b->push_back(static_cast<char>(v >> (8 * i)));
}
void RefPutI32(std::string* b, int32_t v) {
  RefPutU32(b, static_cast<uint32_t>(v));
}
void RefPutU64(std::string* b, uint64_t v) {
  for (int i = 0; i < 8; ++i) b->push_back(static_cast<char>(v >> (8 * i)));
}
void RefPutI64(std::string* b, int64_t v) {
  RefPutU64(b, static_cast<uint64_t>(v));
}
void RefPutTuples(std::string* b, const storage::Page& pg, size_t lo,
                  size_t hi) {
  for (size_t i = lo; i < hi; ++i) RefPutI64(b, pg.size[i]);
  for (size_t i = lo; i < hi; ++i) RefPutI32(b, pg.level[i]);
  for (size_t i = lo; i < hi; ++i) RefPutU8(b, pg.kind[i]);
  for (size_t i = lo; i < hi; ++i) RefPutI32(b, pg.ref[i]);
  for (size_t i = lo; i < hi; ++i) RefPutI64(b, pg.node[i]);
}
void RefPutPage(std::string* b, const storage::Page& pg) {
  RefPutI32(b, pg.used);
  RefPutU32(b, static_cast<uint32_t>(pg.size.size()));
  RefPutTuples(b, pg, 0, pg.size.size());
}
void RefPutPoolDelta(std::string* p,
                     const std::vector<txn::PoolDelta>& pool_delta) {
  RefPutU32(p, static_cast<uint32_t>(pool_delta.size()));
  for (const txn::PoolDelta& d : pool_delta) {
    RefPutU8(p, static_cast<uint8_t>(d.kind));
    RefPutI32(p, d.id);
    RefPutU32(p, static_cast<uint32_t>(d.value.size()));
    *p += d.value;
  }
}
// Page appends, then the empty logical-insert, node/pos, size-claim,
// attr-op and freed lists, then used_delta.
void RefPutTail(std::string* p, const storage::OpLog& log) {
  RefPutU32(p, static_cast<uint32_t>(log.page_appends.size()));
  for (const auto& pa : log.page_appends) {
    RefPutI64(p, pa.clone_phys);
    RefPutPage(p, *pa.image);
  }
  for (int list = 0; list < 5; ++list) RefPutU32(p, 0);
  RefPutI64(p, log.used_delta);
}
std::string RefFrame(uint32_t magic, uint64_t txn_id, uint64_t snapshot_lsn,
                     uint64_t commit_lsn, const std::string& payload,
                     uint64_t checksum) {
  std::string r;
  RefPutU32(&r, magic);
  RefPutU64(&r, txn_id);
  RefPutU64(&r, snapshot_lsn);
  RefPutU64(&r, commit_lsn);
  RefPutU64(&r, payload.size());
  r += payload;
  RefPutU64(&r, checksum);
  return r;
}

/// The v2 record: each page image as phys, used, [lo, hi) and the
/// range's tuples; Checksum64 over the payload.
std::string RefRecordV2(uint64_t txn_id, uint64_t snapshot_lsn,
                        uint64_t commit_lsn, const storage::OpLog& log,
                        const std::vector<txn::PoolDelta>& pool_delta) {
  std::string p;
  RefPutPoolDelta(&p, pool_delta);
  RefPutU32(&p, static_cast<uint32_t>(log.page_images.size()));
  for (const auto& pi : log.page_images) {
    RefPutI64(&p, pi.phys);
    RefPutI32(&p, pi.image->used);
    RefPutI32(&p, pi.lo);
    RefPutI32(&p, pi.hi);
    RefPutTuples(&p, *pi.image, static_cast<size_t>(pi.lo),
                 static_cast<size_t>(pi.hi));
  }
  RefPutTail(&p, log);
  return RefFrame(0x50585158, txn_id, snapshot_lsn, commit_lsn, p,
                  Checksum64(p.data(), p.size()));
}

/// The v1 checksum: byte-wise FNV-1a.
uint64_t FnvV1(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// A v1 record, as the WAL wrote it before range records: whole page
/// images and an FNV-1a checksum. The fixture for the refusal test.
std::string RefRecordV1(uint64_t txn_id, uint64_t snapshot_lsn,
                        uint64_t commit_lsn, const storage::OpLog& log,
                        const std::vector<txn::PoolDelta>& pool_delta) {
  std::string p;
  RefPutPoolDelta(&p, pool_delta);
  RefPutU32(&p, static_cast<uint32_t>(log.page_images.size()));
  for (const auto& pi : log.page_images) {
    RefPutI64(&p, pi.phys);
    RefPutPage(&p, *pi.image);
  }
  RefPutTail(&p, log);
  return RefFrame(0x50585157, txn_id, snapshot_lsn, commit_lsn, p, FnvV1(p));
}

std::shared_ptr<storage::Page> RandomPage(std::mt19937_64* rng,
                                          int32_t tuples) {
  auto pg = std::make_shared<storage::Page>(tuples);
  std::uniform_int_distribution<int64_t> any64;
  std::uniform_int_distribution<int32_t> any32;
  for (int32_t i = 0; i < tuples; ++i) {
    const size_t k = static_cast<size_t>(i);
    pg->size[k] = any64(*rng);
    pg->level[k] = any32(*rng);
    pg->kind[k] = static_cast<uint8_t>(any32(*rng));
    pg->ref[k] = any32(*rng);
    pg->node[k] = any64(*rng);
  }
  pg->used = any32(*rng);
  return pg;
}

template <typename T>
std::vector<T> Slice(const std::vector<T>& v, int32_t lo, int32_t hi) {
  return std::vector<T>(v.begin() + lo, v.begin() + hi);
}

TEST(WalFormatTest, BulkPageEncodingIsByteIdenticalToPerElementEncoder) {
  const std::string wal = TempPath("pxq_wal_golden.wal");
  RemoveAll({wal});
  constexpr int32_t kTuples = 301;  // odd: no accidental alignment
  std::mt19937_64 rng(20261017);
  storage::OpLog log;
  // Page 7 changes from tuple 37 (kind) through tuple 249 (node); page
  // 9 is imaged but ends up unchanged.
  auto pre7 = RandomPage(&rng, kTuples);
  auto post7 = std::make_shared<storage::Page>(*pre7);
  post7->kind[37] ^= 1;
  post7->size[100] += 5;
  post7->node[249] += 1;
  post7->used += 3;
  auto pre9 = RandomPage(&rng, kTuples);
  log.page_images.push_back({7, post7, pre7});
  log.page_images.push_back({9, std::make_shared<storage::Page>(*pre9), pre9});
  log.page_appends.push_back({-3, RandomPage(&rng, kTuples)});
  log.used_delta = -42;
  log.SealRanges();
  EXPECT_EQ(log.page_images[0].lo, 37);
  EXPECT_EQ(log.page_images[0].hi, 250);
  EXPECT_EQ(log.page_images[1].lo, log.page_images[1].hi);
  const std::vector<txn::PoolDelta> pool_delta = {
      {storage::ContentPools::PoolKind::kText, 5, "five"},
      {storage::ContentPools::PoolKind::kProp, 70000, std::string(300, 'x')}};
  {
    auto w = txn::Wal::Open(wal);
    ASSERT_TRUE(w.ok()) << w.status().ToString();
    ASSERT_TRUE(w.value()->AppendCommit(42, 3, 5, log, pool_delta).ok());
  }
  EXPECT_EQ(ReadFile(wal), RefRecordV2(42, 3, 5, log, pool_delta));

  // And the bulk decoder reads the ranges and columns back unchanged.
  auto recs = txn::Wal::ReadAll(wal, kTuples);
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  ASSERT_EQ(recs.value().size(), 1u);
  const txn::Wal::Recovered& got = recs.value()[0];
  ASSERT_EQ(got.page_ranges.size(), 2u);
  const txn::Wal::PageRange& r7 = got.page_ranges[0];
  EXPECT_EQ(r7.phys, 7);
  EXPECT_EQ(r7.used, post7->used);
  EXPECT_EQ(r7.lo, 37);
  EXPECT_EQ(r7.tuples.size, Slice(post7->size, 37, 250));
  EXPECT_EQ(r7.tuples.level, Slice(post7->level, 37, 250));
  EXPECT_EQ(r7.tuples.kind, Slice(post7->kind, 37, 250));
  EXPECT_EQ(r7.tuples.ref, Slice(post7->ref, 37, 250));
  EXPECT_EQ(r7.tuples.node, Slice(post7->node, 37, 250));
  EXPECT_EQ(got.page_ranges[1].phys, 9);
  EXPECT_TRUE(got.page_ranges[1].tuples.size.empty());
  EXPECT_TRUE(got.log.page_images.empty());
  ASSERT_EQ(got.log.page_appends.size(), 1u);
  const storage::Page& a = *got.log.page_appends[0].image;
  const storage::Page& b = *log.page_appends[0].image;
  EXPECT_EQ(a.used, b.used);
  EXPECT_EQ(a.size, b.size);
  EXPECT_EQ(a.level, b.level);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.ref, b.ref);
  EXPECT_EQ(a.node, b.node);
  RemoveAll({wal});
}

// A v1 record read as a torn tail would drop every logged commit
// without a word; the reader must refuse it, and so must recovery.
TEST(WalFormatTest, V1RecordIsRefusedWithAnError) {
  const std::string wal = TempPath("pxq_wal_v1.wal");
  const std::string snap = TempPath("pxq_wal_v1.snapshot");
  RemoveAll({wal, snap});
  constexpr int32_t kTuples = 16;
  std::mt19937_64 rng(7);
  storage::OpLog log;
  log.page_images.push_back({0, RandomPage(&rng, kTuples)});
  WriteFile(wal, RefRecordV1(1, 0, 1, log, {}));

  auto recs = txn::Wal::ReadAll(wal, kTuples);
  ASSERT_FALSE(recs.ok());
  EXPECT_EQ(recs.status().code(), StatusCode::kCorruption);
  EXPECT_NE(recs.status().message().find("v1"), std::string::npos)
      << recs.status().ToString();

  ASSERT_TRUE(BuildStore(kDoc, kTuples)->SaveSnapshot(snap).ok());
  auto rec = txn::TransactionManager::Recover(snap, wal);
  ASSERT_FALSE(rec.ok());
  EXPECT_NE(rec.status().message().find("v1"), std::string::npos);
  RemoveAll({wal, snap});
}

}  // namespace
}  // namespace pxq
