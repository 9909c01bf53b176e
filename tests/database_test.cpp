// Public-facade tests: Database create/open, query/update round trips,
// transaction control, durability, checkpointing, retry-on-conflict.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <utility>

#include "database.h"
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
