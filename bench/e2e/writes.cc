// The XUpdate edit mix and the two ways of committing an edit: through
// Database::Update, or split into the txn/xupdate layer calls.
#include <algorithm>

#include "bench_e2e.h"
#include "common/strings.h"
#include "xpath/evaluator.h"
#include "xupdate/parser.h"

namespace pxq::e2e {
namespace {

using storage::PagedStore;

constexpr const char* kRegions[] = {"africa",   "asia",     "australia",
                                    "europe",   "namerica", "samerica"};

std::string Modifications(const std::string& body) {
  return "<xupdate:modifications version=\"1.0\" "
         "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">" +
         body + "</xupdate:modifications>";
}

xupdate::ApplyStats Expect(int64_t inserted, int64_t deleted,
                           int64_t value_updates) {
  xupdate::ApplyStats s;
  s.targets = 1;
  s.nodes_inserted = inserted;
  s.nodes_deleted = deleted;
  s.value_updates = value_updates;
  return s;
}

Status CheckStats(const Edit& edit, const xupdate::ApplyStats& got) {
  const xupdate::ApplyStats& want = edit.expect;
  if (got.targets == want.targets && got.nodes_inserted == want.nodes_inserted &&
      got.nodes_deleted == want.nodes_deleted &&
      got.value_updates == want.value_updates) {
    return Status::OK();
  }
  return Status::Corruption(StrFormat(
      "%s: ApplyStats targets=%lld inserted=%lld deleted=%lld values=%lld, "
      "expected %lld/%lld/%lld/%lld",
      edit.kind, static_cast<long long>(got.targets),
      static_cast<long long>(got.nodes_inserted),
      static_cast<long long>(got.nodes_deleted),
      static_cast<long long>(got.value_updates),
      static_cast<long long>(want.targets),
      static_cast<long long>(want.nodes_inserted),
      static_cast<long long>(want.nodes_deleted),
      static_cast<long long>(want.value_updates)));
}

}  // namespace

// ---------------------------------------------------------------- EditMix

EditMix::EditMix(uint64_t seed, std::string span_prefix)
    : rng_(seed), prefix_(std::move(span_prefix)) {}

StatusOr<std::unique_ptr<EditMix>> EditMix::Create(Database* db,
                                                   uint64_t seed,
                                                   std::string span_prefix) {
  std::unique_ptr<EditMix> mix(new EditMix(seed, std::move(span_prefix)));
  Status st = db->txn_manager().Read([&](const PagedStore& s) -> Status {
    xpath::Evaluator<PagedStore> ev(s);
    xpath::NodeTest id;
    id.kind = xpath::NodeTest::Kind::kName;
    id.name = "id";
    PXQ_ASSIGN_OR_RETURN(xpath::Path bidder, xpath::ParsePath("bidder"));
    PXQ_ASSIGN_OR_RETURN(std::vector<PreId> auctions,
                         ev.Eval("/site/open_auctions/open_auction"));
    for (PreId a : auctions) {
      PXQ_ASSIGN_OR_RETURN(std::vector<PreId> bids, ev.Eval(bidder, {a}));
      mix->slot_.push_back(mix->with_bidders_.size());
      if (!bids.empty()) mix->with_bidders_.push_back(mix->auction_ids_.size());
      mix->auction_ids_.push_back(ev.AttrValue(a, id).value_or(""));
      mix->bidders_.push_back(static_cast<int64_t>(bids.size()));
    }
    PXQ_ASSIGN_OR_RETURN(std::vector<PreId> profiled,
                         ev.Eval("/site/people/person[profile]"));
    for (PreId p : profiled) {
      mix->profile_ids_.push_back(ev.AttrValue(p, id).value_or(""));
    }
    PXQ_ASSIGN_OR_RETURN(std::vector<PreId> closed,
                         ev.Eval("/site/closed_auctions/closed_auction"));
    PXQ_ASSIGN_OR_RETURN(std::vector<PreId> persons,
                         ev.Eval("/site/people/person"));
    PXQ_ASSIGN_OR_RETURN(std::vector<PreId> categories,
                         ev.Eval("/site/categories/category"));
    mix->closed_auctions_ = static_cast<int64_t>(closed.size());
    mix->persons_ = static_cast<int64_t>(persons.size());
    mix->categories_ = static_cast<int64_t>(categories.size());
    return Status::OK();
  });
  PXQ_RETURN_IF_ERROR(st);
  if (mix->auction_ids_.empty() || mix->profile_ids_.empty() ||
      mix->closed_auctions_ == 0 || mix->persons_ == 0 ||
      mix->categories_ == 0) {
    return Status::InvalidArgument("document too small for the edit mix");
  }
  return mix;
}

Edit EditMix::Next() {
  Edit e;
  const uint64_t roll = rng_.Uniform(100);
  const auto price = [&] {
    return StrFormat("%.2f", 1.0 + rng_.NextDouble() * 260.0);
  };
  if (roll >= 40 && roll < 60 && !with_bidders_.empty()) {
    // First-bid remove: every bidder subtree has 8 nodes (bidder, date,
    // time, personref, increase and the three text children).
    const size_t a = with_bidders_[rng_.Uniform(with_bidders_.size())];
    e.kind = "bid_remove";
    e.doc = Modifications(
        "<xupdate:remove select=\"/site/open_auctions/open_auction[@id='" +
        auction_ids_[a] + "']/bidder[1]\"/>");
    e.expect = Expect(0, 8, 0);
    if (--bidders_[a] == 0) {
      const size_t last = with_bidders_.back();
      with_bidders_[slot_[a]] = last;
      slot_[last] = slot_[a];
      with_bidders_.pop_back();
    }
  } else if (roll < 60) {
    const size_t a = rng_.Uniform(auction_ids_.size());
    e.kind = "bid_append";
    e.doc = Modifications(StrFormat(
        "<xupdate:append select=\"/site/open_auctions/open_auction[@id='%s']"
        "\"><bidder><date>%02d/%02d/2001</date><time>%02d:%02d:00</time>"
        "<personref person=\"person%lld\"/><increase>%s</increase></bidder>"
        "</xupdate:append>",
        auction_ids_[a].c_str(), static_cast<int>(rng_.Range(1, 12)),
        static_cast<int>(rng_.Range(1, 28)),
        static_cast<int>(rng_.Range(0, 23)),
        static_cast<int>(rng_.Range(0, 59)),
        static_cast<long long>(
            rng_.Uniform(static_cast<uint64_t>(persons_))),
        price().c_str()));
    e.expect = Expect(8, 0, 0);
    if (bidders_[a]++ == 0) {
      slot_[a] = with_bidders_.size();
      with_bidders_.push_back(a);
    }
  } else if (roll < 80) {
    e.kind = "price_update";
    e.doc = Modifications(StrFormat(
        "<xupdate:update select=\"/site/closed_auctions/closed_auction[%lld]"
        "/price/text()\">%s</xupdate:update>",
        static_cast<long long>(
            1 + rng_.Uniform(static_cast<uint64_t>(closed_auctions_))),
        price().c_str()));
    e.expect = Expect(0, 0, 1);
  } else if (roll < 90) {
    // 15 nodes: item, six children with their text, the description's
    // text element and its text, and incategory.
    e.kind = "item_append";
    e.doc = Modifications(StrFormat(
        "<xupdate:append select=\"/site/regions/%s\"><item id=\"newitem%lld\">"
        "<location>United States</location><quantity>1</quantity>"
        "<name>fresh listing</name><payment>Cash</payment>"
        "<description><text>brand new lot</text></description>"
        "<shipping>Buyer pays fixed shipping</shipping>"
        "<incategory category=\"category%lld\"/></item></xupdate:append>",
        kRegions[rng_.Uniform(6)], static_cast<long long>(next_item_++),
        static_cast<long long>(
            rng_.Uniform(static_cast<uint64_t>(categories_)))));
    e.expect = Expect(15, 0, 0);
  } else {
    e.kind = "income_update";
    e.doc = Modifications(StrFormat(
        "<xupdate:update select=\"/site/people/person[@id='%s']/profile/"
        "@income\">%.2f</xupdate:update>",
        profile_ids_[rng_.Uniform(profile_ids_.size())].c_str(),
        4000.0 + rng_.NextDouble() * 96000.0));
    e.expect = Expect(0, 0, 1);
  }
  e.root_span = prefix_ + "." + e.kind;
  return e;
}

// --------------------------------------------------------------- TxnMeter

TxnMeter::TxnMeter(Database* db) : db_(db) {
  db->txn_manager().RegisterMetrics(&reg_);
}

TxnMeter::Reading TxnMeter::Read() const {
  const obs::MetricsSnapshot snap = reg_.Snapshot();
  const auto sum = [&](const char* name) -> int64_t {
    const obs::Histogram::Snapshot* h = snap.HistOf(name);
    return h != nullptr ? h->sum : 0;
  };
  Reading r;
  r.window_ns = sum("pxq_commit_window_ns");
  r.wal_ns = sum("pxq_wal_append_ns");
  r.writer_wait_ns = sum("pxq_lock_writer_wait_ns");
  r.wal_bytes = snap.ValueOf("pxq_wal_appended_bytes_total");
  r.reader_waits = snap.ValueOf("pxq_lock_reader_waits");
  if (db_->index_manager() != nullptr) {
    r.apply_dirty_ns = db_->index_manager()->apply_dirty_hist().Sum();
  }
  return r;
}

// ------------------------------------------------------------ run an edit

Status RunEdit(Database* db, const Edit& edit) {
  PXQ_ASSIGN_OR_RETURN(xupdate::ApplyStats got, db->Update(edit.doc));
  return CheckStats(edit, got);
}

Status RunEditTraced(Database* db, const Edit& edit, const TxnMeter& meter,
                     Tracer* tracer, WriteCounts* counts) {
  tracer->BeginOp();
  const TxnMeter::Reading before = meter.Read();
  const int64_t t0 = NowNs();
  const int64_t root = tracer->Open(edit.root_span, 0, t0);
  const auto finish = [&](Status s) {
    tracer->Close(root, NowNs());
    tracer->EndOp();
    return s;
  };
  auto txn = db->txn_manager().Begin();
  const int64_t t1 = NowNs();
  tracer->Add("txn.begin", root, t0, t1);
  if (!txn.ok()) return finish(txn.status());
  storage::PagedStore* store = txn.value()->store();
  auto updates = xupdate::ParseXUpdate(edit.doc, &store->pools());
  const int64_t t2 = NowNs();
  tracer->Add("xupdate.parse", root, t1, t2);
  if (!updates.ok()) return finish(updates.status());
  const storage::PagedStoreStats s0 = store->stats();
  auto applied = xupdate::ApplyUpdates(store, updates.value());
  const int64_t t3 = NowNs();
  tracer->Add("xupdate.apply", root, t2, t3);
  if (!applied.ok()) return finish(applied.status());
  const storage::PagedStoreStats s1 = store->stats();
  Status committed = txn.value()->Commit();
  const int64_t t4 = NowNs();
  const int64_t commit = tracer->Add("txn.commit", root, t3, t4);
  const TxnMeter::Reading after = meter.Read();
  // The library times the exclusive window, the WAL append and ApplyDirty
  // itself; their spans are placed where they run inside Commit(): the
  // lock wait right before the window, the window at the end of the call,
  // the WAL append at the window's start and ApplyDirty at its end.
  const int64_t window = after.window_ns - before.window_ns;
  const int64_t win_start = std::max(t3, t4 - window);
  const int64_t wait = after.writer_wait_ns - before.writer_wait_ns;
  if (wait > 0) {
    tracer->Add("txn.writer_lock_wait", commit,
                std::max(t3, win_start - wait), win_start);
  }
  const int64_t win = tracer->Add("txn.commit_window", commit, win_start, t4);
  tracer->Add("txn.wal_append", win, win_start,
              std::min(t4, win_start + after.wal_ns - before.wal_ns));
  tracer->Add("index.apply_dirty", win,
              std::max(win_start,
                       t4 - (after.apply_dirty_ns - before.apply_dirty_ns)),
              t4);
  counts->tuples_moved += s1.tuples_moved - s0.tuples_moved;
  counts->pages_appended += s1.pages_appended - s0.pages_appended;
  if (!committed.ok()) return finish(committed);
  return finish(CheckStats(edit, applied.value()));
}

}  // namespace pxq::e2e
