// xq — a small command-line front end over the pxq public API, in the
// spirit of file-based XML tooling the paper's introduction contrasts
// against (here the file is a real database: updates are transactional,
// not full rewrites).
//
//   xq query  [--explain] <file.xml> <xpath>  print matching subtrees
//   xq values <file.xml> <xpath>            print string/attribute values
//   xq count  <file.xml> <xpath>            print match count
//   xq explain <file.xml> <xpath>           print the compiled plan
//                                           (operator list, strategies
//                                           taken, cache hit/miss)
//   xq update <file.xml> <xupdate.xml>      apply updates, print document
//   xq profile <file.xml> <xpath>           measured per-operator profile
//                                           (wall-time, cardinalities,
//                                           index probes per operator)
//   xq stats  [--json|--prom] <file.xml>    storage statistics; --json
//                                           emits the metrics snapshot
//                                           with stable keys, --prom the
//                                           Prometheus text exposition
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "database.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: xq query [--explain] <file.xml> <xpath>\n"
               "       xq values|count|explain|profile <file.xml> <xpath>\n"
               "       xq update <file.xml> <xupdate.xml>\n"
               "       xq stats [--json|--prom] <file.xml>\n"
               "<file.xml> may also be a durable database directory\n"
               "(data_dir): updates then commit through the WAL.\n");
  return 2;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::string cmd = argv[1];
  bool explain = false;
  bool json = false;
  bool prom = false;
  int file_arg = 2;
  if (cmd == "query" && std::string(argv[2]) == "--explain") {
    explain = true;
    file_arg = 3;
    if (argc < 4) return Usage();
  }
  if (cmd == "stats") {
    if (std::string(argv[2]) == "--json") {
      json = true;
      file_arg = 3;
    } else if (std::string(argv[2]) == "--prom") {
      prom = true;
      file_arg = 3;
    }
    if (argc != file_arg + 1) return Usage();
  }
  // A directory argument is a durable database (data_dir with the
  // default name): open it, replaying the WAL if the last process
  // crashed. Updates then commit through the WAL instead of being
  // thrown away with the process.
  std::unique_ptr<pxq::Database> db;
  if (std::filesystem::is_directory(argv[file_arg])) {
    pxq::Database::Options opt;
    opt.data_dir = argv[file_arg];
    // The database name is whatever <name>.snapshot lives there.
    for (const auto& e : std::filesystem::directory_iterator(opt.data_dir)) {
      if (e.path().extension() == ".snapshot") {
        opt.name = e.path().stem().string();
        break;
      }
    }
    auto db_or = pxq::Database::Open(opt);
    if (!db_or.ok()) {
      std::fprintf(stderr, "cannot open database %s: %s\n", argv[file_arg],
                   db_or.status().ToString().c_str());
      return 1;
    }
    db = std::move(db_or).value();
  } else {
    std::string xml;
    if (!ReadFile(argv[file_arg], &xml)) {
      std::fprintf(stderr, "cannot read %s\n", argv[file_arg]);
      return 1;
    }
    auto db_or = pxq::Database::CreateFromXml(xml);
    if (!db_or.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   db_or.status().ToString().c_str());
      return 1;
    }
    db = std::move(db_or).value();
  }

  if (cmd == "query" || cmd == "count") {
    if (argc != file_arg + 2) return Usage();
    const char* xpath = argv[file_arg + 1];
    auto nodes = db->Query(xpath);
    if (!nodes.ok()) {
      std::fprintf(stderr, "%s\n", nodes.status().ToString().c_str());
      return 1;
    }
    if (explain) {
      // After the query above, the plan is cached: the explain shows
      // the warm path (cache: hit) and the strategies actually taken.
      auto e = db->Explain(xpath);
      if (e.ok()) std::fprintf(stderr, "%s", e.value().c_str());
    }
    if (cmd == "count") {
      std::printf("%zu\n", nodes->size());
      return 0;
    }
    for (pxq::PreId p : nodes.value()) {
      auto s = db->Serialize(p);
      if (s.ok()) std::printf("%s\n", s.value().c_str());
    }
    return 0;
  }
  if (cmd == "explain") {
    if (argc != 4) return Usage();
    auto e = db->Explain(argv[3]);
    if (!e.ok()) {
      std::fprintf(stderr, "%s\n", e.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", e.value().c_str());
    return 0;
  }
  if (cmd == "values") {
    if (argc != 4) return Usage();
    auto vals = db->QueryStrings(argv[3]);
    if (!vals.ok()) {
      std::fprintf(stderr, "%s\n", vals.status().ToString().c_str());
      return 1;
    }
    for (const auto& v : vals.value()) std::printf("%s\n", v.c_str());
    return 0;
  }
  if (cmd == "profile") {
    if (argc != 4) return Usage();
    auto p = db->Profile(argv[3]);
    if (!p.ok()) {
      std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", p.value().c_str());
    return 0;
  }
  if (cmd == "update") {
    if (argc != 4) return Usage();
    std::string up;
    if (!ReadFile(argv[3], &up)) {
      std::fprintf(stderr, "cannot read %s\n", argv[3]);
      return 1;
    }
    auto stats = db->Update(up);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "targets=%lld inserted=%lld deleted=%lld value-updates=%lld\n",
                 static_cast<long long>(stats->targets),
                 static_cast<long long>(stats->nodes_inserted),
                 static_cast<long long>(stats->nodes_deleted),
                 static_cast<long long>(stats->value_updates));
    std::printf("%s\n", db->Serialize(pxq::kNullPre, true).value().c_str());
    return 0;
  }
  if (cmd == "stats") {
    if (json) {
      std::printf("%s\n", db->StatsJson().c_str());
      return 0;
    }
    if (prom) {
      std::printf("%s", db->MetricsText().c_str());
      return 0;
    }
    auto& s = db->store();
    std::printf("nodes:          %lld\n",
                static_cast<long long>(s.used_count()));
    std::printf("view slots:     %lld\n",
                static_cast<long long>(s.view_size()));
    std::printf("logical pages:  %lld (x %d tuples)\n",
                static_cast<long long>(s.logical_page_count()),
                s.page_tuples());
    std::printf("attributes:     %lld\n",
                static_cast<long long>(s.attrs().live_count()));
    std::printf("node table:     %lld bytes\n",
                static_cast<long long>(s.NodeTableBytes()));
    std::printf("string pools:   %lld bytes\n",
                static_cast<long long>(s.pools().ByteSize()));
    auto ix = db->IndexStats();
    std::printf("index:          %lld qname keys, %lld path keys, "
                "%lld value keys, %lld attr keys, %lld bytes\n",
                static_cast<long long>(ix.qname_keys),
                static_cast<long long>(ix.path_keys),
                static_cast<long long>(ix.value_keys),
                static_cast<long long>(ix.attr_value_keys),
                static_cast<long long>(ix.bytes));
    std::printf("index epochs:   publish %lld, structure %lld\n",
                static_cast<long long>(ix.publish_epoch),
                static_cast<long long>(ix.structure_epoch));
    std::printf("memo:           %lld entries, %lld bytes, "
                "%lld/%lld hits/misses, %lld/%lld value hits/misses\n",
                static_cast<long long>(ix.memo_entries),
                static_cast<long long>(ix.memo_bytes),
                static_cast<long long>(ix.memo_hits),
                static_cast<long long>(ix.memo_misses),
                static_cast<long long>(ix.memo_value_hits),
                static_cast<long long>(ix.memo_value_misses));
    std::printf("plan cache:     %lld hits, %lld misses, %lld evictions\n",
                static_cast<long long>(ix.plan_hits),
                static_cast<long long>(ix.plan_misses),
                static_cast<long long>(ix.plan_evictions));
    auto lk = db->LockStats();
    std::printf("global lock:    readers %lld acquires / %lld waits, "
                "writers %lld acquires / %lld waits\n",
                static_cast<long long>(lk.reader_acquires),
                static_cast<long long>(lk.reader_waits),
                static_cast<long long>(lk.writer_acquires),
                static_cast<long long>(lk.writer_waits));
    std::printf("reader slots:   %lld slots, %lld collisions, "
                "%lld drain notifies\n",
                static_cast<long long>(lk.reader_slots),
                static_cast<long long>(lk.slot_collisions),
                static_cast<long long>(lk.drain_notifies));
    const auto m = db->Metrics();
    const pxq::obs::Histogram::Snapshot* qh = m.HistOf("pxq_query_latency_ns");
    std::printf("queries:        %lld run, %lld failed, p50 %.1f us, "
                "p99 %.1f us\n",
                static_cast<long long>(qh != nullptr ? qh->count : 0),
                static_cast<long long>(m.ValueOf("pxq_query_errors_total")),
                qh != nullptr ? qh->p50() / 1e3 : 0.0,
                qh != nullptr ? qh->p99() / 1e3 : 0.0);
    std::printf("updates:        %lld retries, %lld gave up after "
                "retrying, selects %lld on base / %lld on clone\n",
                static_cast<long long>(m.ValueOf("pxq_update_retries_total")),
                static_cast<long long>(
                    m.ValueOf("pxq_update_failures_total")),
                static_cast<long long>(
                    m.ValueOf("pxq_update_selects_base_total")),
                static_cast<long long>(
                    m.ValueOf("pxq_update_selects_clone_total")));
    if (db->durable()) {
      auto& tm = db->txn_manager();
      std::printf("durability:     WAL on, %lld commits in log, "
                  "%lld replayed at open, %lld checkpoints "
                  "(each a full read+write stall)\n",
                  static_cast<long long>(tm.wal_commits()),
                  static_cast<long long>(db->recovered_commits()),
                  static_cast<long long>(tm.checkpoint_hist().Count()));
    } else {
      std::printf("durability:     off (in-memory only; pass a data "
                  "dir to enable WAL + snapshots)\n");
    }
    return 0;
  }
  return Usage();
}
