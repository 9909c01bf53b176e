// Multi-threaded probe-vs-commit stress test: reader threads evaluate
// cross-checked queries against the lock-free index while
// writer threads commit a mix of structural and value-only updates
// (plus explicit aborts). Asserts:
//
//   (a) no torn reads — cross-check mode re-runs every accepted probe
//       on the scan path inside the same shared-lock section, so a
//       probe observing a half-applied commit fails the query;
//   (b) epochs are monotone — a monitor thread samples IndexStats()
//       concurrently with commits and checks publish/structure epochs
//       never move backwards;
//   (c) zero cross-check mismatches and an exact final document.
//
// Deliberately gtest-free (plain main + CHECK) so the ThreadSanitizer
// CI job instruments every frame of everything it runs — no
// uninstrumented prebuilt test-framework code in the process.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "database.h"
#include "index/index_manager.h"

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", __FILE__,       \
                   __LINE__, #cond);                                      \
      std::exit(1);                                                       \
    }                                                                     \
  } while (0)

namespace {

std::string BuildDoc(int items) {
  std::string xml = "<r><list>";
  for (int i = 0; i < items; ++i) {
    xml += "<item k=\"" + std::to_string(i) + "\"><v>" +
           std::to_string(i * 3) + "</v></item>";
  }
  xml += "</list><aux><tag>x</tag></aux></r>";
  return xml;
}

std::string Wrap(const std::string& body) {
  return "<xupdate:modifications version=\"1.0\" "
         "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">" +
         body + "</xupdate:modifications>";
}

}  // namespace

int main() {
  pxq::Database::Options opt;
  opt.store.page_tuples = 64;
  opt.index.cross_check = true;  // every probe verified against the scan

  auto db_or = pxq::Database::CreateFromXml(BuildDoc(64), opt);
  CHECK(db_or.ok());
  auto db = std::move(db_or).value();

  const auto initial = db->IndexStats();
  std::atomic<bool> stop{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> overlapped_reads{0};
  std::atomic<int> failures{0};
  std::atomic<int> readers_ready{0};

  constexpr int kWriters = 3;
  constexpr int kCommitsPerWriter = 40;
  constexpr int kReaders = 4;

  std::vector<std::thread> threads;
  // Writers: structural (append/insert/remove), value-only (attribute
  // and text updates — these must NOT invalidate unrelated memoized
  // materializations), renames (re-key path entries), and aborts.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      // Start barrier: commits must demonstrably overlap reader probes,
      // or the test silently degenerates into quiescent-index reads.
      while (readers_ready.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        const int v = w * 1000 + i;
        std::string body;
        switch (i % 6) {
          case 0:
            body = "<xupdate:append select=\"/r/list\"><item k=\"" +
                   std::to_string(v) + "\"><v>" + std::to_string(v) +
                   "</v></item></xupdate:append>";
            break;
          case 1:  // value-only: attribute rewrite
            body = "<xupdate:update select=\"/r/list/item[1]/@k\">" +
                   std::to_string(v) + "</xupdate:update>";
            break;
          case 2:  // value-only: text rewrite under a simple element
            body = "<xupdate:update select=\"//tag\">t" +
                   std::to_string(v) + "</xupdate:update>";
            break;
          case 3:
            body = "<xupdate:remove select=\"/r/list/item[2]\"/>";
            break;
          case 4:  // rename an element with element children
            body = "<xupdate:rename select=\"/r/list/item[1]\">itemx"
                   "</xupdate:rename>";
            break;
          default:
            // Rename-churn phase: flip-rename the INTERIOR <list>
            // element while readers run depth-4 pair cascades below
            // it — the re-key of its <item> children races lock-free
            // pair probes and their memoized materializations.
            body = (i % 2 == 0)
                       ? "<xupdate:rename select=\"//list[1]\">listx"
                         "</xupdate:rename>"
                       : "<xupdate:rename select=\"//listx[1]\">list"
                         "</xupdate:rename>";
            break;
        }
        if (i % 7 == 6) {
          auto txn = db->Begin();
          CHECK(txn.ok());
          (void)txn.value()->Update(Wrap(body));
          CHECK(txn.value()->Abort().ok());
        } else if (!db->Update(Wrap(body), /*retries=*/50).ok()) {
          ++failures;
        }
      }
    });
  }

  // Readers: descendant, child-step, path-prefix, and predicate plans.
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      readers_ready.fetch_add(1, std::memory_order_acq_rel);
      while (!stop.load(std::memory_order_acquire)) {
        for (const char* q :
             {"//item", "/r/list/item", "/r/list/item/v", "//list/itemx",
              "//item[@k>500]", "//item[v='9']", "//aux/tag",
              // Value/attr probe plans under churn: memoized results
              // must never outlive the commits that invalidate them.
              "//item[v>='50']", "//item[@k]", "//aux[tag='x']",
              // Depth-4 cascades under BOTH spellings of the flipping
              // interior tag: pair probes race the children's re-key.
              "/r/listx/item/v", "//listx/item"}) {
          auto res = db->Query(q);
          if (!res.ok()) {
            std::fprintf(stderr, "read failed: %s\n",
                         res.status().ToString().c_str());
            ++failures;
          }
          ++reads;
          if (!stop.load(std::memory_order_acquire)) ++overlapped_reads;
        }
      }
    });
  }

  // Monitor: epochs sampled mid-commit must be monotone.
  threads.emplace_back([&] {
    int64_t last_publish = 0, last_structure = 0;
    while (!stop.load(std::memory_order_acquire)) {
      auto s = db->IndexStats();
      if (s.publish_epoch < last_publish ||
          s.structure_epoch < last_structure) {
        std::fprintf(stderr, "epoch went backwards: %lld<%lld / %lld<%lld\n",
                     static_cast<long long>(s.publish_epoch),
                     static_cast<long long>(last_publish),
                     static_cast<long long>(s.structure_epoch),
                     static_cast<long long>(last_structure));
        ++failures;
      }
      last_publish = s.publish_epoch;
      last_structure = s.structure_epoch;
      if (s.cross_check_mismatches != 0) ++failures;
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  const auto final_stats = db->IndexStats();
  CHECK(failures.load() == 0);
  CHECK(final_stats.cross_check_mismatches == 0);
  CHECK(final_stats.publish_epoch > initial.publish_epoch);
  CHECK(final_stats.applied_commits > 0);
  // The barrier guarantees commits ran while readers were probing.
  CHECK(overlapped_reads.load() > 0);
  // Value-only commits happened, so some publications must NOT have
  // bumped the structure epoch (incremental memo retention at work).
  CHECK(final_stats.structure_epoch - initial.structure_epoch <
        final_stats.publish_epoch - initial.publish_epoch);

  // Final exactness: index answers equal a fresh scan for every shape.
  for (const char* q : {"//item", "/r/list/item/v", "//item[@k>=0]"}) {
    auto idx = db->Query(q);
    CHECK(idx.ok());
  }

  // Abort storm over VALUE mutations, against a now-quiescent index:
  // warm value-probe memo entries must survive aborted attribute/text
  // rewrites untouched (aborts publish nothing), stay correct
  // (cross-check verifies every re-probe), and keep serving hits
  // without a single re-materialization.
  const char* warm_queries[] = {"//item[v='9']", "//item[@k>500]",
                                "//aux[tag='x']"};
  for (const char* q : warm_queries) CHECK(db->Query(q).ok());
  const auto warmed = db->IndexStats();
  for (int i = 0; i < 30; ++i) {
    auto txn = db->Begin();
    CHECK(txn.ok());
    (void)txn.value()->Update(Wrap(
        "<xupdate:update select=\"/r/list/item[1]/@k\">junk"
        "</xupdate:update>"
        "<xupdate:update select=\"//tag\">junk</xupdate:update>"));
    CHECK(txn.value()->Abort().ok());
  }
  for (const char* q : warm_queries) CHECK(db->Query(q).ok());
  const auto rewarmed = db->IndexStats();
  CHECK(rewarmed.publish_epoch == warmed.publish_epoch);
  CHECK(rewarmed.memo_value_misses == warmed.memo_value_misses);
  CHECK(rewarmed.memo_value_hits > warmed.memo_value_hits);
  CHECK(rewarmed.cross_check_mismatches == 0);

  std::printf(
      "stress OK: %lld reads (%lld overlapping commits), %lld commits, "
      "publish_epoch %lld -> %lld, "
      "structure_epoch %lld -> %lld, %lld memo hits, "
      "%lld value-memo hits\n",
      static_cast<long long>(reads.load()),
      static_cast<long long>(overlapped_reads.load()),
      static_cast<long long>(rewarmed.applied_commits),
      static_cast<long long>(initial.publish_epoch),
      static_cast<long long>(rewarmed.publish_epoch),
      static_cast<long long>(initial.structure_epoch),
      static_cast<long long>(rewarmed.structure_epoch),
      static_cast<long long>(rewarmed.memo_hits),
      static_cast<long long>(rewarmed.memo_value_hits));
  return 0;
}
