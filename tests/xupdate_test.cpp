// XUpdate language tests: the Section 2.1 commands end to end (parse,
// apply, serialize) against the paged store, including the paper's own
// append example.
#include <gtest/gtest.h>

#include "storage/paged_store.h"
#include "storage/shredder.h"
#include "storage/store_serializer.h"
#include "xml/parser.h"
#include "xupdate/apply.h"

namespace pxq {
namespace {

constexpr const char* kFig2Doc =
    "<a><b><c><d></d><e></e></c></b>"
    "<f><g></g><h><i></i><j></j></h></f></a>";

std::unique_ptr<storage::PagedStore> BuildStore(
    const char* xml = kFig2Doc, int32_t page_tuples = 8,
    double fill = 0.875) {
  auto dense = storage::ShredXml(xml);
  EXPECT_TRUE(dense.ok()) << dense.status().ToString();
  storage::PagedStore::Config cfg;
  cfg.page_tuples = page_tuples;
  cfg.shred_fill = fill;
  auto store = storage::PagedStore::Build(std::move(dense).value(), cfg);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

std::string Serialized(const storage::PagedStore& store) {
  auto xml = storage::SerializeSubtree(store, store.Root());
  EXPECT_TRUE(xml.ok()) << xml.status().ToString();
  return xml.value();
}

void ExpectOk(const storage::PagedStore& store) {
  Status s = store.CheckInvariants();
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(XUpdateTest, PaperAppendExample) {
  auto store = BuildStore();
  auto stats = xupdate::ApplyXUpdate(store.get(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/a/f/g">
        <k><l/><m/></k>
      </xupdate:append>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->targets, 1);
  EXPECT_EQ(stats->nodes_inserted, 3);
  ExpectOk(*store);
  EXPECT_EQ(Serialized(*store),
            "<a><b><c><d/><e/></c></b>"
            "<f><g><k><l/><m/></k></g><h><i/><j/></h></f></a>");
}

// A fragment nested past the XML parser's limit is refused with a
// ParseError before anything is applied: the store is unchanged. The
// fragment sits two levels below the modifications root, so depth
// kMaxNestingDepth - 2 is the deepest that fits.
TEST(XUpdateTest, OverDeepFragmentIsParseErrorAndStoreUnchanged) {
  auto store = BuildStore();
  const std::string before = Serialized(*store);
  auto append = [](int levels) {
    std::string doc =
        "<xupdate:modifications version=\"1.0\" "
        "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
        "<xupdate:append select=\"/a/f/g\">";
    for (int i = 0; i < levels; ++i) doc += "<k>";
    for (int i = 0; i < levels; ++i) doc += "</k>";
    return doc + "</xupdate:append></xupdate:modifications>";
  };
  for (int levels : {xml::kMaxNestingDepth - 1, 100000}) {
    auto stats = xupdate::ApplyXUpdate(store.get(), append(levels));
    EXPECT_TRUE(stats.status().IsParseError())
        << levels << ": " << stats.status().ToString();
    EXPECT_EQ(Serialized(*store), before);
    ExpectOk(*store);
  }
  // The deepest fragment that fits still applies.
  auto fits = xupdate::ApplyXUpdate(store.get(),
                                    append(xml::kMaxNestingDepth - 2));
  ASSERT_TRUE(fits.ok()) << fits.status().ToString();
  EXPECT_EQ(fits->nodes_inserted, xml::kMaxNestingDepth - 2);
  ExpectOk(*store);
}

TEST(XUpdateTest, RemoveSubtree) {
  auto store = BuildStore();
  auto stats = xupdate::ApplyXUpdate(store.get(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:remove select="/a/b/c"/>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->nodes_deleted, 3);
  ExpectOk(*store);
  EXPECT_EQ(Serialized(*store), "<a><b/><f><g/><h><i/><j/></h></f></a>");
}

TEST(XUpdateTest, InsertBeforeAndAfter) {
  auto store = BuildStore();
  auto stats = xupdate::ApplyXUpdate(store.get(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:insert-before select="/a/f/h">
        <xupdate:element name="x"/>
      </xupdate:insert-before>
      <xupdate:insert-after select="/a/b">
        <y attr="v">text</y>
      </xupdate:insert-after>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectOk(*store);
  EXPECT_EQ(Serialized(*store),
            "<a><b><c><d/><e/></c></b><y attr=\"v\">text</y>"
            "<f><g/><x/><h><i/><j/></h></f></a>");
}

TEST(XUpdateTest, AppendAtChildPosition) {
  auto store = BuildStore();
  auto stats = xupdate::ApplyXUpdate(store.get(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/a/f/h" child="2">
        <xupdate:element name="mid"/>
      </xupdate:append>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectOk(*store);
  EXPECT_EQ(Serialized(*store),
            "<a><b><c><d/><e/></c></b>"
            "<f><g/><h><i/><mid/><j/></h></f></a>");
}

TEST(XUpdateTest, ElementConstructorWithAttribute) {
  auto store = BuildStore();
  auto stats = xupdate::ApplyXUpdate(store.get(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:append select="/a/b">
        <xupdate:element name="bidder">
          <xupdate:attribute name="id">b7</xupdate:attribute>
          <increase>3.00</increase>
        </xupdate:element>
      </xupdate:append>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectOk(*store);
  EXPECT_EQ(Serialized(*store),
            "<a><b><c><d/><e/></c>"
            "<bidder id=\"b7\"><increase>3.00</increase></bidder></b>"
            "<f><g/><h><i/><j/></h></f></a>");
}

TEST(XUpdateTest, ValueUpdateAndRename) {
  auto store = BuildStore("<r><p>old</p><q name='n1'/></r>");
  auto stats = xupdate::ApplyXUpdate(store.get(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:update select="/r/p">new</xupdate:update>
      <xupdate:update select="/r/q/@name">n2</xupdate:update>
      <xupdate:rename select="/r/q">z</xupdate:rename>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ExpectOk(*store);
  EXPECT_EQ(Serialized(*store), "<r><p>new</p><z name=\"n2\"/></r>");
}

TEST(XUpdateTest, RemoveAllMatchesOfASelect) {
  auto store = BuildStore("<r><x/><y/><x/><y/><x/></r>");
  auto stats = xupdate::ApplyXUpdate(store.get(), R"(
    <xupdate:modifications version="1.0"
        xmlns:xupdate="http://www.xmldb.org/xupdate">
      <xupdate:remove select="/r/x"/>
    </xupdate:modifications>)");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->targets, 3);
  EXPECT_EQ(stats->nodes_deleted, 3);
  ExpectOk(*store);
  EXPECT_EQ(Serialized(*store), "<r><y/><y/></r>");
}

}  // namespace
}  // namespace pxq
