// Public-facade tests: Database create/open, query/update round trips,
// transaction control, durability, checkpointing, retry-on-conflict.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "database.h"
#include "xmark/generator.h"
#include "xml/parser.h"

namespace pxq {
namespace {

constexpr const char* kDoc =
    "<shop><items><item sku='a1'><price>10</price></item>"
    "<item sku='b2'><price>55</price></item></items>"
    "<orders/></shop>";

TEST(DatabaseTest, QueryAndStrings) {
  auto db = std::move(Database::CreateFromXml(kDoc).value());
  EXPECT_EQ(db->Query("/shop/items/item").value().size(), 2u);
  EXPECT_EQ(db->QueryStrings("/shop/items/item/price").value(),
            (std::vector<std::string>{"10", "55"}));
  EXPECT_EQ(db->QueryStrings("/shop/items/item/@sku").value(),
            (std::vector<std::string>{"a1", "b2"}));
  EXPECT_EQ(db->Query("/shop/items/item[price>20]").value().size(), 1u);
  // Bad path surfaces a parse error, not a crash.
  EXPECT_TRUE(db->Query("/shop[").status().IsParseError());
}

std::string Nested(const char* tag, int levels) {
  std::string xml;
  for (int i = 0; i < levels; ++i) xml += std::string("<") + tag + ">";
  for (int i = 0; i < levels; ++i) xml += std::string("</") + tag + ">";
  return xml;
}

// Hostile nesting depth surfaces as a ParseError, never a stack
// overflow — both at load time and through an XUpdate insert, which
// leaves the database exactly as it was.
TEST(DatabaseTest, OverDeepInputIsParseError) {
  for (int levels : {xml::kMaxNestingDepth + 1, 100000}) {
    auto created = Database::CreateFromXml(Nested("e", levels));
    EXPECT_TRUE(created.status().IsParseError())
        << levels << ": " << created.status().ToString();
  }

  auto db = std::move(Database::CreateFromXml(kDoc).value());
  const std::string before = db->Serialize().value();
  const int64_t commits = db->IndexStats().applied_commits;
  for (int levels : {xml::kMaxNestingDepth, 100000}) {
    auto stats = db->Update(
        "<xupdate:modifications version=\"1.0\" "
        "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
        "<xupdate:append select=\"/shop/orders\">" +
        Nested("order", levels) +
        "</xupdate:append></xupdate:modifications>");
    EXPECT_TRUE(stats.status().IsParseError())
        << levels << ": " << stats.status().ToString();
  }
  EXPECT_EQ(db->Serialize().value(), before);
  EXPECT_EQ(db->IndexStats().applied_commits, commits);
  EXPECT_EQ(db->Query("/shop/orders/order").value().size(), 0u);
}

TEST(DatabaseTest, AutoCommitUpdate) {
  auto db = std::move(Database::CreateFromXml(kDoc).value());
  auto stats = db->Update(R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/shop/orders">
        <order id="o1"><ref sku="a1"/></order>
      </xupdate:append>
      <xupdate:update select="/shop/items/item[@sku='a1']/price">12</xupdate:update>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(db->QueryStrings("/shop/items/item[@sku='a1']/price").value(),
            (std::vector<std::string>{"12"}));
  EXPECT_EQ(db->Query("/shop/orders/order").value().size(), 1u);
}

TEST(DatabaseTest, ExplicitTransactionAbort) {
  auto db = std::move(Database::CreateFromXml(kDoc).value());
  auto txn = std::move(db->Begin().value());
  ASSERT_TRUE(txn->Update(R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:remove select="/shop/items"/>
    </xupdate:modifications>)").ok());
  // Visible inside the transaction...
  EXPECT_EQ(txn->Query("/shop/items").value().size(), 0u);
  // ...not outside.
  EXPECT_EQ(db->Query("/shop/items").value().size(), 1u);
  ASSERT_TRUE(txn->Abort().ok());
  EXPECT_EQ(db->Query("/shop/items").value().size(), 1u);
}

TEST(DatabaseTest, DurableCreateOpenCycle) {
  std::string dir =
      (std::filesystem::temp_directory_path() /
       ("pxq_dbtest_" + std::to_string(::getpid())))
          .string();
  std::filesystem::create_directories(dir);
  std::filesystem::remove(dir + "/shop.snapshot");
  std::filesystem::remove(dir + "/shop.wal");
  Database::Options opts;
  opts.data_dir = dir;
  opts.name = "shop";

  std::string expected;
  {
    auto db = std::move(Database::CreateFromXml(kDoc, opts).value());
    ASSERT_TRUE(db->Update(R"(
      <xupdate:modifications version="1.0"
          xmlns:xupdate="http://www.xmldb.org/xupdate">
        <xupdate:append select="/shop/orders"><order id="o9"/></xupdate:append>
      </xupdate:modifications>)").ok());
    expected = db->Serialize().value();
    // drop without checkpoint: WAL must carry the order
  }
  auto db2_or = Database::Open(opts);
  ASSERT_TRUE(db2_or.ok()) << db2_or.status().ToString();
  auto db2 = std::move(db2_or).value();
  EXPECT_EQ(db2->Serialize().value(), expected);
  EXPECT_EQ(db2->Query("/shop/orders/order").value().size(), 1u);

  // The reopened database keeps working and checkpoints.
  ASSERT_TRUE(db2->Update(R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/shop/orders"><order id="o10"/></xupdate:append>
    </xupdate:modifications>)").ok());
  ASSERT_TRUE(db2->Checkpoint().ok());
  expected = db2->Serialize().value();
  db2.reset();

  auto db3 = std::move(Database::Open(opts).value());
  EXPECT_EQ(db3->Serialize().value(), expected);
  std::filesystem::remove_all(dir);
}

// Update() counts its retries and its give-ups: a page lock held by an
// explicit transaction makes every attempt time out.
TEST(DatabaseTest, UpdateCountsRetriesAndFailures) {
  Database::Options opts;
  opts.txn.lock_timeout = std::chrono::milliseconds(20);
  auto db = std::move(
      Database::CreateFromXml("<site><people><person/></people></site>", opts)
          .value());
  const std::string append =
      "<xupdate:modifications version=\"1.0\" "
      "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
      "<xupdate:append select=\"/site/people\"><person/></xupdate:append>"
      "</xupdate:modifications>";
  auto counters = [&db] {
    const auto m = db->Metrics();
    return std::make_pair(m.ValueOf("pxq_update_retries_total"),
                          m.ValueOf("pxq_update_failures_total"));
  };
  EXPECT_EQ(counters(), std::make_pair(int64_t{0}, int64_t{0}));

  auto holder = std::move(db->Begin().value());
  ASSERT_TRUE(holder->Update(append).ok());
  auto blocked = db->Update(append, /*retries=*/1);
  ASSERT_TRUE(blocked.status().IsAborted()) << blocked.status().ToString();
  EXPECT_NE(blocked.status().ToString().find("after 2 attempts"),
            std::string::npos)
      << blocked.status().ToString();
  EXPECT_EQ(counters(), std::make_pair(int64_t{1}, int64_t{1}));

  ASSERT_TRUE(holder->Commit().ok());
  ASSERT_TRUE(db->Update(append).ok());
  EXPECT_EQ(counters(), std::make_pair(int64_t{1}, int64_t{1}));
  EXPECT_EQ(db->Query("/site/people/person").value().size(), 3u);
}

std::string Modifications(const std::string& body) {
  return "<xupdate:modifications version=\"1.0\" "
         "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">" +
         body + "</xupdate:modifications>";
}

std::string SmallXMark() {
  xmark::GeneratorOptions gen;
  gen.factor = 0.005;
  gen.seed = 3;
  return xmark::Generate(gen);
}

// Database::Update resolves its first select on the indexed base;
// DbTransaction::Update scans the clone for every select. Both must
// edit the same nodes: each kind of the benchmark's edit mix, plus
// documents whose later selects only match what an earlier command
// inserted, renamed or removed.
TEST(DatabaseTest, BaseResolvedSelectMatchesCloneScan) {
  const std::string xml = SmallXMark();
  auto base_db = std::move(Database::CreateFromXml(xml).value());
  auto clone_db = std::move(Database::CreateFromXml(xml).value());
  // Auctions with three bidders, so every remove below finds one.
  const std::vector<std::string> auctions =
      base_db
          ->QueryStrings("/site/open_auctions/open_auction[bidder[3]]/@id")
          .value();
  const std::vector<std::string> persons =
      base_db->QueryStrings("/site/people/person[profile]/@id").value();
  ASSERT_GE(auctions.size(), 2u);
  ASSERT_GE(persons.size(), 2u);
  const std::string auction0 =
      "/site/open_auctions/open_auction[@id='" + auctions[0] + "']";
  const std::string auction1 =
      "/site/open_auctions/open_auction[@id='" + auctions[1] + "']";
  const std::string bidder =
      "<bidder><date>01/02/2001</date><time>10:00:00</time>"
      "<personref person=\"person1\"/><increase>4.50</increase></bidder>";
  const std::vector<std::string> docs = {
      // The edit mix, one command each.
      "<xupdate:append select=\"" + auction0 + "\">" + bidder +
          "</xupdate:append>",
      "<xupdate:remove select=\"" + auction0 + "/bidder[1]\"/>",
      "<xupdate:update select=\"/site/closed_auctions/closed_auction[3]"
      "/price/text()\">99.00</xupdate:update>",
      "<xupdate:append select=\"/site/regions/europe\"><item id=\"new0\">"
      "<name>lot</name><incategory category=\"category1\"/></item>"
      "</xupdate:append>",
      "<xupdate:update select=\"/site/people/person[@id='" + persons[0] +
          "']/profile/@income\">51234.00</xupdate:update>",
      // Later selects that match only after the earlier commands.
      "<xupdate:append select=\"/site/regions/asia\"><item id=\"new1\">"
      "<name>first</name></item></xupdate:append>"
      "<xupdate:update select=\"/site/regions/asia/item[@id='new1']/name\">"
      "second</xupdate:update>",
      "<xupdate:rename select=\"" + auction1 + "\">closed_soon"
      "</xupdate:rename>"
      "<xupdate:append select=\"/site/open_auctions/closed_soon\">" +
          bidder + "</xupdate:append>",
      "<xupdate:remove select=\"" + auction0 + "/bidder[1]\"/>"
      "<xupdate:remove select=\"" + auction0 + "/bidder[1]\"/>",
      "<xupdate:update select=\"/site/people/person[@id='" + persons[1] +
          "']/profile/@income\">7.00</xupdate:update>"
          "<xupdate:remove select=\"/site/people/person[profile/"
          "@income='7.00']\"/>",
  };
  for (const std::string& body : docs) {
    const std::string doc = Modifications(body);
    auto via_base = base_db->Update(doc);
    ASSERT_TRUE(via_base.ok()) << via_base.status().ToString() << "\n" << doc;
    auto txn = std::move(clone_db->Begin().value());
    auto via_clone = txn->Update(doc);
    ASSERT_TRUE(via_clone.ok()) << via_clone.status().ToString();
    ASSERT_TRUE(txn->Commit().ok());
    const xupdate::ApplyStats& a = via_base.value();
    const xupdate::ApplyStats& b = via_clone.value();
    // Every select names exactly one node.
    size_t selects = 0;
    for (size_t at = doc.find("select="); at != std::string::npos;
         at = doc.find("select=", at + 1)) {
      ++selects;
    }
    EXPECT_EQ(a.targets, static_cast<int64_t>(selects)) << doc;
    EXPECT_EQ(a.targets, b.targets) << doc;
    EXPECT_EQ(a.nodes_inserted, b.nodes_inserted) << doc;
    EXPECT_EQ(a.nodes_deleted, b.nodes_deleted) << doc;
    EXPECT_EQ(a.value_updates, b.value_updates) << doc;
    ASSERT_EQ(base_db->Serialize().value(), clone_db->Serialize().value())
        << doc;
  }
  EXPECT_EQ(base_db->Query("/site/regions/asia/item[name='second']")
                .value()
                .size(),
            1u);
}

// Each Update() attempt resolves one select on the base and the rest
// of its commands on the clone.
TEST(DatabaseTest, UpdateCountsSelectsByStore) {
  auto db = std::move(Database::CreateFromXml(kDoc).value());
  auto counters = [&db] {
    const auto m = db->Metrics();
    return std::make_pair(m.ValueOf("pxq_update_selects_base_total"),
                          m.ValueOf("pxq_update_selects_clone_total"));
  };
  EXPECT_EQ(counters(), std::make_pair(int64_t{0}, int64_t{0}));
  ASSERT_TRUE(db->Update(Modifications(
                             "<xupdate:append select=\"/shop/orders\">"
                             "<order/></xupdate:append>"))
                  .ok());
  EXPECT_EQ(counters(), std::make_pair(int64_t{1}, int64_t{0}));
  ASSERT_TRUE(db->Update(Modifications(
                             "<xupdate:append select=\"/shop/orders\">"
                             "<order/></xupdate:append>"
                             "<xupdate:remove select=\"/shop/orders/"
                             "order[1]\"/>"))
                  .ok());
  EXPECT_EQ(counters(), std::make_pair(int64_t{2}, int64_t{1}));
}

// Two writers race Update() on one page while a reader watches. Each
// writer's document appends a note and then, in a second command,
// fills in the note the first one created, so every commit carries one
// base-resolved select and one clone select. The reader must never see
// a note without its text, and each writer's notes appear in order.
TEST(DatabaseConcurrencyTest, TwoWritersAndReaderSeeWholeCommits) {
  auto db = std::move(Database::CreateFromXml(SmallXMark()).value());
  const std::vector<std::string> auctions =
      db->QueryStrings("/site/open_auctions/open_auction/@id").value();
  ASSERT_GE(auctions.size(), 2u);
  constexpr int kNotes = 25;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  const auto writer = [&](int w) {
    const std::string auction =
        "/site/open_auctions/open_auction[@id='" + auctions[w] + "']";
    for (int i = 0; i < kNotes; ++i) {
      const std::string doc = Modifications(StrFormat(
          "<xupdate:append select=\"%s\"><note n=\"%d\"/></xupdate:append>"
          "<xupdate:update select=\"%s/note[@n='%d']\">w%d</xupdate:update>",
          auction.c_str(), i, auction.c_str(), i, w));
      StatusOr<xupdate::ApplyStats> applied = db->Update(doc);
      // Give-ups under contention are allowed; the note is retried.
      while (applied.status().IsAborted()) applied = db->Update(doc);
      if (!applied.ok() || applied.value().targets != 2) ++failures;
    }
  };
  std::thread reader([&] {
    while (!done.load()) {
      auto texts = db->QueryStrings("//note");
      if (!texts.ok()) {
        ++failures;
        continue;
      }
      for (const std::string& t : texts.value()) {
        if (t != "w0" && t != "w1") ++failures;
      }
      for (int w = 0; w < 2; ++w) {
        auto ns = db->QueryStrings("/site/open_auctions/open_auction[@id='" +
                                   auctions[w] + "']/note/@n");
        if (!ns.ok()) {
          ++failures;
          continue;
        }
        for (size_t i = 0; i < ns.value().size(); ++i) {
          if (ns.value()[i] != std::to_string(i)) ++failures;
        }
      }
    }
  });
  std::thread w0(writer, 0);
  std::thread w1(writer, 1);
  w0.join();
  w1.join();
  done.store(true);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  for (int w = 0; w < 2; ++w) {
    EXPECT_EQ(db->QueryStrings("/site/open_auctions/open_auction[@id='" +
                               auctions[w] + "']/note")
                  .value(),
              std::vector<std::string>(kNotes, "w" + std::to_string(w)));
  }
  EXPECT_TRUE(db->store().CheckInvariants().ok());
}

TEST(DatabaseTest, SerializeSubtreeAndPretty) {
  auto db = std::move(Database::CreateFromXml("<a><b>t</b></a>").value());
  auto b = db->Query("/a/b").value();
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(db->Serialize(b[0]).value(), "<b>t</b>");
  EXPECT_NE(db->Serialize(kNullPre, /*pretty=*/true).value().find('\n'),
            std::string::npos);
}

}  // namespace
}  // namespace pxq
