// XML parser and serializer unit tests: entities, CDATA, comments, PIs,
// prolog/DOCTYPE handling, malformed-input rejection, round-tripping.
#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace pxq::xml {
namespace {

/// Records events as a compact trace string for assertions.
class TraceHandler : public EventHandler {
 public:
  Status OnStartElement(std::string_view name,
                        const std::vector<Attribute>& attrs) override {
    trace += "<" + std::string(name);
    for (const auto& a : attrs) trace += " " + a.name + "=" + a.value;
    trace += ">";
    return Status::OK();
  }
  Status OnEndElement(std::string_view name) override {
    trace += "</" + std::string(name) + ">";
    return Status::OK();
  }
  Status OnText(std::string_view text) override {
    trace += "[" + std::string(text) + "]";
    return Status::OK();
  }
  Status OnComment(std::string_view text) override {
    trace += "(!" + std::string(text) + ")";
    return Status::OK();
  }
  Status OnPi(std::string_view target, std::string_view data) override {
    trace += "(?" + std::string(target) + " " + std::string(data) + ")";
    return Status::OK();
  }
  std::string trace;
};

std::string ParseTrace(std::string_view xml, bool expect_ok = true,
                       ParseOptions opts = {}) {
  TraceHandler h;
  Status s = Parse(xml, &h, opts);
  EXPECT_EQ(s.ok(), expect_ok) << s.ToString() << " for: " << xml;
  return h.trace;
}

TEST(XmlParserTest, Basics) {
  EXPECT_EQ(ParseTrace("<a><b>hi</b></a>"), "<a><b>[hi]</b></a>");
  EXPECT_EQ(ParseTrace("<a x='1' y=\"2\"/>"), "<a x=1 y=2></a>");
  EXPECT_EQ(ParseTrace("<a><b/><c/></a>"), "<a><b></b><c></c></a>");
}

TEST(XmlParserTest, EntitiesAndCharRefs) {
  EXPECT_EQ(ParseTrace("<a>&lt;&gt;&amp;&quot;&apos;</a>"),
            "<a>[<>&\"']</a>");
  EXPECT_EQ(ParseTrace("<a>&#65;&#x42;</a>"), "<a>[AB]</a>");
  EXPECT_EQ(ParseTrace("<a k='&amp;&#48;'/>"), "<a k=&0></a>");
  ParseTrace("<a>&bogus;</a>", /*expect_ok=*/false);
  ParseTrace("<a>&#xZZ;</a>", /*expect_ok=*/false);
}

TEST(XmlParserTest, CdataMergesWithText) {
  EXPECT_EQ(ParseTrace("<a>x<![CDATA[<raw>&amp;]]>y</a>"),
            "<a>[x<raw>&amp;y]</a>");
}

TEST(XmlParserTest, CommentsAndPis) {
  EXPECT_EQ(ParseTrace("<a><!-- note --><?php echo?></a>"),
            "<a>(! note )(?php echo)</a>");
}

TEST(XmlParserTest, PrologAndDoctypeSkipped) {
  EXPECT_EQ(ParseTrace("<?xml version=\"1.0\"?>\n"
                       "<!DOCTYPE a [<!ELEMENT a ANY>]>\n"
                       "<a/>"),
            "<a></a>");
}

TEST(XmlParserTest, WhitespaceHandling) {
  EXPECT_EQ(ParseTrace("<a>\n  <b/>\n</a>"), "<a><b></b></a>");
  ParseOptions keep;
  keep.skip_whitespace_text = false;
  EXPECT_EQ(ParseTrace("<a> <b/> </a>", true, keep),
            "<a>[ ]<b></b>[ ]</a>");
}

TEST(XmlParserTest, MalformedInputsRejected) {
  for (const char* bad :
       {"<a>", "<a></b>", "<a", "text", "<a attr></a>", "<a x='1' x='2'/>",
        "<a><b></a></b>", "", "<a/><b/>", "<a>&unterminated</a>",
        "<a v='<'/>"}) {
    TraceHandler h;
    EXPECT_FALSE(Parse(bad, &h).ok()) << "accepted: " << bad;
  }
}

std::string Nested(int levels) {
  std::string xml;
  for (int i = 0; i < levels; ++i) xml += "<e>";
  for (int i = 0; i < levels; ++i) xml += "</e>";
  return xml;
}

TEST(XmlParserTest, NestingAtTheLimitParses) {
  TraceHandler h;
  Status s = Parse(Nested(kMaxNestingDepth), &h);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

// One level past the limit is a ParseError naming the byte offset of
// the refused start tag, not a stack overflow.
TEST(XmlParserTest, NestingPastTheLimitIsParseError) {
  TraceHandler h;
  Status s = Parse(Nested(kMaxNestingDepth + 1), &h);
  ASSERT_TRUE(s.IsParseError()) << s.ToString();
  const std::string offset =
      "at byte " + std::to_string(3 * kMaxNestingDepth);
  EXPECT_NE(s.ToString().find(offset), std::string::npos) << s.ToString();
  // Far past the limit (deep enough to overflow an unbounded recursive
  // descent) fails the same way.
  EXPECT_TRUE(Parse(Nested(100000), &h).IsParseError());
}

TEST(XmlSerializerTest, EscapesAndSelfCloses) {
  Serializer out;
  out.StartElement("r", {{"k", "a<b\"c"}});
  out.Text("x & y < z");
  out.StartElement("empty");
  out.EndElement();
  out.Comment("c");
  out.Pi("t", "d");
  out.EndElement();
  auto s = out.Finish();
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value(),
            "<r k=\"a&lt;b&quot;c\">x &amp; y &lt; z<empty/>"
            "<!--c--><?t d?></r>");
}

TEST(XmlSerializerTest, UnbalancedIsError) {
  Serializer out;
  out.StartElement("r");
  EXPECT_FALSE(out.Finish().ok());
}

TEST(XmlRoundTripTest, ParseSerializeFixpoint) {
  const char* docs[] = {
      "<a><b>hi</b><c k=\"v\">t<d/>u</c></a>",
      "<r><!--c--><?pi data?><x/>text</r>",
      "<a>&lt;escaped&gt;&amp;</a>",
  };
  for (const char* doc : docs) {
    Serializer out;
    SerializingHandler h(&out);
    ASSERT_TRUE(Parse(doc, &h).ok()) << doc;
    auto once = out.Finish();
    ASSERT_TRUE(once.ok());
    // Parse the output again: fixpoint.
    Serializer out2;
    SerializingHandler h2(&out2);
    ASSERT_TRUE(Parse(once.value(), &h2).ok());
    EXPECT_EQ(out2.Finish().value(), once.value()) << doc;
  }
}

}  // namespace
}  // namespace pxq::xml
