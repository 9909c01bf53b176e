// Secondary index subsystem tests: value-comparison semantics shared
// with the scan path, IndexManager build/probe/maintenance units, and
// the maintenance property test — random XUpdate workloads (including
// aborted transactions and a crash-recovery reopen) with every query
// answered three ways: index probe, scan path (cross-check mode runs
// both and fails on divergence), and the brute-force reference
// evaluator.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "database.h"
#include "index/cardinality.h"
#include "index/index_manager.h"
#include "storage/paged_store.h"
#include "storage/shredder.h"
#include "xmark/generator.h"
#include "xpath/evaluator.h"
#include "xpath/reference_eval.h"
#include "xpath/value_compare.h"

namespace pxq {
namespace {

using xpath::CmpOp;
using xpath::detail::CompareValues;
using xpath::detail::ParseNumber;

// ---------------------------------------------------------------------------
// Satellite regressions: strict number grammar + lexicographic fallback
// ---------------------------------------------------------------------------

TEST(ParseNumberTest, AcceptsStrictDecimals) {
  const std::pair<const char*, double> cases[] = {
      {"0", 0},        {"42", 42},      {"-3.5", -3.5}, {"+7", 7},
      {".5", 0.5},     {"-.25", -0.25}, {"10.", 10},    {"1e3", 1000},
      {"1.5E-2", .015}, {"2e+2", 200},
  };
  for (const auto& [s, want] : cases) {
    double got = -1;
    EXPECT_TRUE(ParseNumber(s, &got)) << s;
    EXPECT_DOUBLE_EQ(got, want) << s;
  }
}

// Satellite audit: std::from_chars rejects an explicitly positive sign,
// so ParseNumber must strip it (for the significand AND keep accepting
// it in the exponent, where from_chars allows it) before converting —
// otherwise "+42" silently falls back to lexicographic comparison on
// every path. Locked down for each grammar position of '+'.
TEST(ParseNumberTest, AcceptsExplicitPositiveSign) {
  const std::pair<const char*, double> cases[] = {
      {"+42", 42},    {"+0", 0},     {"+.5", 0.5},  {"+42.", 42},
      {"+1e3", 1000}, {"1e+3", 1000}, {"+1e+3", 1000}, {"+0.25", 0.25},
  };
  for (const auto& [s, want] : cases) {
    double got = -1;
    EXPECT_TRUE(ParseNumber(s, &got)) << s;
    EXPECT_DOUBLE_EQ(got, want) << s;
  }
  // A '+'-signed value must compare numerically, not lexicographically:
  // as strings "+42" < "9" (' +' < '9'), as numbers 42 > 9.
  EXPECT_TRUE(CompareValues("+42", CmpOp::kGt, "9"));
  EXPECT_TRUE(CompareValues("+17", CmpOp::kEq, "17.0"));
}

TEST(ParseNumberTest, RejectsWhitespaceInfNanHex) {
  for (const char* bad :
       {"", " 3", "3 ", "\t3", "3\n", "inf", "-inf", "INF", "nan", "NaN",
        "0x10", "1e", "e5", ".", "+", "-", "1.2.3", "12a",
        // The sign is optional but singular, and still needs digits.
        "++1", "+-1", "-+1", "+e3", "+.", "+ 1", "+inf"}) {
    double out;
    EXPECT_FALSE(ParseNumber(bad, &out)) << "accepted: '" << bad << "'";
  }
}

// Satellite regression: out-of-range magnitudes must convert the same
// way on the scan, reference, and index paths — overflow to ±inf,
// underflow to ±0 — and the conversion must not consult the process
// locale (std::from_chars, never strtod).
TEST(ParseNumberTest, OverflowAndUnderflowAreDeterministic) {
  const double kInf = std::numeric_limits<double>::infinity();
  const struct {
    const char* s;
    double want;
  } cases[] = {
      {"1e400", kInf},        {"-1e400", -kInf},
      {"+2e308", kInf},       {"123456789e400", kInf},
      {".5e400", kInf},       {"00012e308", kInf},
      {"+1e400", kInf},       {"+.5e400", kInf},
      {"1e-400", 0.0},        {"-1e-400", -0.0},
      {"+1e-400", 0.0},
      {"0.0000001e-320", 0.0}, {"0e99999", 0.0},
      {"1e308", 1e308},       {"1e-308", 1e-308},
      {"17", 17.0},
  };
  for (const auto& [s, want] : cases) {
    double got = -42;
    ASSERT_TRUE(ParseNumber(s, &got)) << s;
    EXPECT_EQ(got, want) << s;
    if (want == 0.0) {
      EXPECT_EQ(std::signbit(got), std::signbit(want)) << s;
    }
  }
  // The three evaluation paths share ParseNumber, so overflowed values
  // compare consistently everywhere: two overflows are equal (+inf).
  EXPECT_TRUE(CompareValues("1e400", CmpOp::kEq, "2e400"));
  EXPECT_TRUE(CompareValues("1e400", CmpOp::kGt, "1e308"));
  EXPECT_TRUE(CompareValues("-1e400", CmpOp::kLt, "1e-400"));
}

TEST(CompareValuesTest, NumericWhenBothParse) {
  EXPECT_TRUE(CompareValues("10", CmpOp::kGt, "9"));
  EXPECT_TRUE(CompareValues("1.0", CmpOp::kEq, "1"));
  EXPECT_TRUE(CompareValues("-2", CmpOp::kLt, "1e1"));
  EXPECT_FALSE(CompareValues("10", CmpOp::kLt, "9"));
}

// Regression: ordered comparisons of non-numeric strings used to return
// false unconditionally, silently dropping matches.
TEST(CompareValuesTest, OrderedFallsBackToLexicographic) {
  EXPECT_TRUE(CompareValues("apple", CmpOp::kLt, "banana"));
  EXPECT_TRUE(CompareValues("banana", CmpOp::kGe, "banana"));
  EXPECT_FALSE(CompareValues("banana", CmpOp::kLt, "apple"));
  // Mixed numeric/non-numeric pairs compare as strings too.
  EXPECT_TRUE(CompareValues("abc", CmpOp::kGt, "100"));
  EXPECT_TRUE(CompareValues(" 5", CmpOp::kLt, "5"));  // ' ' < '5'
}

// ---------------------------------------------------------------------------
// IndexManager units
// ---------------------------------------------------------------------------

constexpr const char* kDoc =
    "<r>"
    "<a id=\"a1\"><n>5</n><n>abc</n></a>"
    "<a id=\"a2\"><n>17</n></a>"
    "<b><c p=\"1\">x</c><c p=\"2\">y</c><c p=\"10\">17</c></b>"
    "</r>";

std::unique_ptr<storage::PagedStore> BuildStore(const std::string& xml) {
  storage::PagedStore::Config cfg;
  cfg.page_tuples = 16;
  cfg.shred_fill = 0.75;
  auto dense = storage::ShredXml(xml);
  EXPECT_TRUE(dense.ok()) << dense.status().ToString();
  auto store = storage::PagedStore::Build(std::move(dense).value(), cfg);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

TEST(IndexManagerTest, QnamePostingsMatchScan) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);

  for (const char* tag : {"a", "n", "c", "b", "r"}) {
    QnameId qn = store->pools().FindQname(tag);
    ASSERT_GE(qn, 0) << tag;
    auto pres = idx.ElementsByQname(*store, qn, store->used_count());
    ASSERT_TRUE(pres != nullptr) << tag;
    auto want = xpath::EvaluatePath(*store, std::string("//") + tag);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(*pres, want.value()) << tag;
  }
  EXPECT_EQ(idx.TagStats(store->pools().FindQname("n")).count, 3);
  EXPECT_EQ(idx.TagStats(store->pools().FindQname("id")).count, 0);
}

TEST(IndexManagerTest, ValueProbesEqualityAndRange) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId n = store->pools().FindQname("n");
  const int64_t big = 1 << 20;

  std::vector<PreId> simple, complex_rest;
  // Equality, numeric: "17" and "17.0" hit the same sidecar entry.
  ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kEq, "17.0", big,
                                  &simple, &complex_rest));
  EXPECT_EQ(simple.size(), 1u);
  EXPECT_TRUE(complex_rest.empty());  // every <n> is simple content
  // Range: n > 4 matches 5 and 17 numerically AND "abc"
  // lexicographically (mixed pairs compare as strings, 'a' > '4').
  ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kGt, "4", big, &simple,
                                  &complex_rest));
  EXPECT_EQ(simple.size(), 3u);
  // With a large numeric bound only the lexicographic match survives.
  ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kGt, "99", big, &simple,
                                  &complex_rest));
  EXPECT_EQ(simple.size(), 1u);  // "abc" ('a' > '9')
  // Non-numeric literal: everything compares lexicographically.
  ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kGe, "abc", big,
                                  &simple, &complex_rest));
  EXPECT_EQ(simple.size(), 1u);  // only "abc"
  // != is declined.
  EXPECT_FALSE(idx.ChildValueProbe(*store, n, CmpOp::kNe, "5", big,
                                   &simple, &complex_rest));
}

TEST(IndexManagerTest, ComplexElementsAreHandedBack) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId a = store->pools().FindQname("a");
  std::vector<PreId> simple, complex_rest;
  ASSERT_TRUE(idx.ChildValueProbe(*store, a, CmpOp::kEq, "x", 1 << 20,
                                  &simple, &complex_rest));
  EXPECT_TRUE(simple.empty());         // <a> has element children
  EXPECT_EQ(complex_rest.size(), 2u);  // both <a> elements
}

TEST(IndexManagerTest, AttrProbes) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const int64_t big = 1 << 20;

  QnameId id = store->pools().FindQname("id");
  auto owners = idx.AttrOwners(*store, id, big);
  ASSERT_TRUE(owners.has_value());
  EXPECT_EQ(owners->size(), 2u);

  auto eq = idx.AttrValueProbe(*store, id, CmpOp::kEq, "a2", big);
  ASSERT_TRUE(eq.has_value());
  EXPECT_EQ(eq->size(), 1u);

  QnameId p = store->pools().FindQname("p");
  auto range = idx.AttrValueProbe(*store, p, CmpOp::kGe, "2", big);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->size(), 2u);  // p=2, p=10 (numeric, not lexicographic)
}

TEST(IndexManagerTest, PathPairProbeMatchesScan) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const int64_t big = 1 << 20;
  QnameId r = store->pools().FindQname("r");
  QnameId a = store->pools().FindQname("a");
  QnameId n = store->pools().FindQname("n");
  QnameId b = store->pools().FindQname("b");

  // (a, n): every <n> sits under an <a>.
  auto pres = idx.PathPairProbe(*store, a, n, big);
  ASSERT_NE(pres, nullptr);
  auto want = xpath::EvaluatePath(*store, "/r/a/n");
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*pres, want.value());

  // Root pair: parent qname -1 selects the root element.
  auto root = idx.PathPairProbe(*store, -1, r, big);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(*root, std::vector<PreId>{store->Root()});

  // A pair that never occurs is exactly empty.
  auto none = idx.PathPairProbe(*store, b, n, big);
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->empty());

  auto s = idx.Stats();
  EXPECT_EQ(s.path_probes, 3);
  EXPECT_EQ(s.path_hits, 3);
  EXPECT_GT(s.path_keys, 0);
}

// Regression (review finding): a rename's dirty set holds only the
// renamed node — the transaction's clone cannot know the children a
// rival commit inserted first. ApplyDirty must detect the qname change
// and re-key the children it finds in the MERGED base, or a stale
// (old parent qname, child qname) path entry survives.
TEST(IndexManagerTest, RenameRekeysChildrenFromMergedBase) {
  auto store = BuildStore("<r><e><c>1</c><c>2</c></e></r>");
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId r = store->pools().FindQname("r");
  QnameId e = store->pools().FindQname("e");
  QnameId c = store->pools().FindQname("c");
  const int64_t big = 1 << 20;
  ASSERT_EQ(idx.PathPairProbe(*store, e, c, big)->size(), 2u);

  // Rename <e> to <r> on the base, with a dirty set that (like a real
  // transaction's) holds ONLY the renamed node.
  auto e_pre = xpath::EvaluatePath(*store, "//e");
  ASSERT_TRUE(e_pre.ok());
  NodeId e_node = store->NodeAt(e_pre.value()[0]);
  ASSERT_TRUE(store->SetRef(e_pre.value()[0], r).ok());
  index::DeltaIndex delta;
  delta.MarkDirty(e_node);
  idx.ApplyDirty(*store, delta);

  // The children's path keys must have moved from (e, c) to (r, c).
  ASSERT_EQ(idx.PathPairProbe(*store, e, c, big)->size(), 0u);
  auto moved = idx.PathPairProbe(*store, r, c, big);
  ASSERT_NE(moved, nullptr);
  auto want = xpath::EvaluatePath(*store, "/r/r/c");
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(*moved, want.value());
}

// Review regression: a transaction that renames an element AND
// value-edits one of its element children dirties that child itself,
// and the rename expansion re-enqueues it once more. Both re-derives
// must leave the child under its new (parent, self) pair with its new
// value — renames never bump the structure epoch to flush a stale
// posting.
TEST(IndexManagerTest, RenameRekeysValueDirtyChildren) {
  auto store = BuildStore("<r><e><c>1</c><c>2</c></e></r>");
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId e = store->pools().FindQname("e");
  QnameId c = store->pools().FindQname("c");
  const int64_t big = 1 << 20;
  ASSERT_EQ(idx.PathPairProbe(*store, e, c, big)->size(), 2u);

  index::DeltaIndex delta;
  store->AttachIndexDelta(&delta);
  // Text-edit the first <c> ("1" -> "9"): dirties its <c> only (a text
  // node holds no index entries).
  auto c_pres = xpath::EvaluatePath(*store, "//c");
  ASSERT_TRUE(c_pres.ok());
  PreId text = store->SkipHoles(c_pres.value()[0] + 1);
  ASSERT_EQ(store->KindAt(text), NodeKind::kText);
  ASSERT_TRUE(store->SetRef(text, store->pools().AddText("9")).ok());
  EXPECT_EQ(delta.dirty(),
            (std::vector<NodeId>{store->NodeAt(c_pres.value()[0])}));
  // Rename <e> -> <f> in the same transaction.
  auto e_pre = xpath::EvaluatePath(*store, "//e");
  ASSERT_TRUE(e_pre.ok());
  QnameId f = store->pools().InternQname("f");
  ASSERT_TRUE(store->SetRef(e_pre.value()[0], f).ok());
  idx.ApplyDirty(*store, delta);
  store->AttachIndexDelta(nullptr);

  // BOTH children moved from (e, c) to (f, c) — including the one the
  // transaction had only value-dirtied.
  EXPECT_EQ(idx.PathPairProbe(*store, e, c, big)->size(), 0u);
  auto moved = idx.PathPairProbe(*store, f, c, big);
  ASSERT_NE(moved, nullptr);
  auto want = xpath::EvaluatePath(*store, "/r/f/c");
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want.value().size(), 2u);
  EXPECT_EQ(*moved, want.value());
  // The value edit itself is reflected too.
  std::vector<PreId> simple, rest;
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "9", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
}

// ---------------------------------------------------------------------------
// Pair cascades over deep paths, and the rename re-key of children
// ---------------------------------------------------------------------------

// A depth-5 document: /site/a/b/c/d with fanout at every level.
constexpr const char* kDeepDoc =
    "<site>"
    "<a><b><c><d>1</d><d>2</d></c><c><d>3</d></c></b>"
    "<b><c><d>4</d></c></b></a>"
    "<a><b><c><d>5</d></c></b></a>"
    "<x><b><c><d>99</d></c></b></x>"  // same (b,c,d) tail, other root arm
    "</site>";

// A depth-d absolute path is answered in d-1 pair probes, one per
// level below the root.
TEST(IndexManagerTest, DeepPathCascadeProbeCount) {
  auto store = BuildStore(kDeepDoc);
  auto want = xpath::EvaluatePath(*store, "/site/a/b/c/d");
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want.value().size(), 5u);  // the <x> arm is excluded

  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  auto res = xpath::EvaluatePath(*store, "/site/a/b/c/d", &idx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.value(), want.value());
  auto s = idx.Stats();
  EXPECT_EQ(s.path_probes, 4);  // one per level
  EXPECT_EQ(s.path_hits, 4);
}

// Renaming an element re-keys the pairs of exactly its direct element
// children — from the MERGED base, with a dirty set holding only the
// renamed node. The children are re-derived whole, so their own value
// bucket re-stamps; a tag the rename does not reach keeps its warm memo.
TEST(IndexManagerTest, RenameRekeysChildPairsKeepsOtherValueMemos) {
  auto store = BuildStore("<r><g><c>1</c><c>2</c></g><u>5</u></r>");
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const int64_t big = 1 << 20;
  QnameId g = store->pools().FindQname("g");
  QnameId c = store->pools().FindQname("c");
  QnameId u = store->pools().FindQname("u");

  ASSERT_EQ(idx.PathPairProbe(*store, g, c, big)->size(), 2u);
  // Warm a value probe over the children and one over <u>.
  std::vector<PreId> simple, rest;
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "1", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  ASSERT_TRUE(idx.ChildValueProbe(*store, u, CmpOp::kEq, "5", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  const auto warm = idx.Stats();

  // Rename <g> to <h> with a dirty set holding ONLY the renamed node.
  auto g_pre = xpath::EvaluatePath(*store, "//g");
  ASSERT_TRUE(g_pre.ok());
  NodeId g_node = store->NodeAt(g_pre.value()[0]);
  QnameId h = store->pools().InternQname("h");
  ASSERT_TRUE(store->SetRef(g_pre.value()[0], h).ok());
  index::DeltaIndex delta;
  delta.MarkDirty(g_node);
  idx.ApplyDirty(*store, delta);

  // The children's pair keys moved.
  EXPECT_EQ(idx.PathPairProbe(*store, g, c, big)->size(), 0u);
  EXPECT_EQ(idx.PathPairProbe(*store, h, c, big)->size(), 2u);

  // The children's value probe re-derives exactly; <u>'s stays warm.
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "1", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  ASSERT_TRUE(idx.ChildValueProbe(*store, u, CmpOp::kEq, "5", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  auto s = idx.Stats();
  EXPECT_EQ(s.memo_value_misses, warm.memo_value_misses + 1);
  EXPECT_EQ(s.memo_value_hits, warm.memo_value_hits + 1);
  EXPECT_EQ(s.structure_epoch, warm.structure_epoch);  // rename: no shift

  // End-to-end: the pair cascade sees the renamed path.
  EXPECT_EQ(xpath::EvaluatePath(*store, "/r/h/c", &idx).value().size(), 2u);
}

// The rename fan-out stops at the direct children: a grandchild's pair
// (its parent's tag, its own tag) did not change, so its bucket keeps
// its generation and the warm path memo keeps serving it.
TEST(IndexManagerTest, RenameLeavesGrandchildPathMemoWarm) {
  auto store = BuildStore("<r><g><p><c>1</c><c>2</c></p></g></r>");
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const int64_t big = 1 << 20;
  QnameId p = store->pools().FindQname("p");
  QnameId c = store->pools().FindQname("c");

  const std::vector<PreId>* warm_ptr = idx.PathPairProbe(*store, p, c, big);
  ASSERT_NE(warm_ptr, nullptr);
  ASSERT_EQ(warm_ptr->size(), 2u);
  const auto warm = idx.Stats();

  auto g_pre = xpath::EvaluatePath(*store, "//g");
  ASSERT_TRUE(g_pre.ok());
  NodeId g_node = store->NodeAt(g_pre.value()[0]);
  ASSERT_TRUE(
      store->SetRef(g_pre.value()[0], store->pools().InternQname("h")).ok());
  index::DeltaIndex delta;
  delta.MarkDirty(g_node);
  idx.ApplyDirty(*store, delta);

  // Exactly two work items: <g> itself and its one element child <p>.
  EXPECT_EQ(idx.Stats().maintenance_ops, 2);
  // The grandchildren's (p, c) materialization is still the warm one.
  EXPECT_EQ(idx.PathPairProbe(*store, p, c, big), warm_ptr);
  EXPECT_EQ(idx.Stats().memo_misses, warm.memo_misses);
}

// Path-memo per-bucket invalidation: a warm pair materialization
// survives value-only commits on other keys, and invalidates exactly
// when ITS bucket is re-keyed.
TEST(IndexManagerTest, PathMemoPerBucketInvalidation) {
  auto store = BuildStore("<r><g><p><c>1</c></p></g><u>5</u></r>");
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const int64_t big = 1 << 20;
  QnameId g = store->pools().FindQname("g");
  QnameId p = store->pools().FindQname("p");

  const std::vector<PreId>* warm_ptr = idx.PathPairProbe(*store, g, p, big);
  ASSERT_NE(warm_ptr, nullptr);
  ASSERT_EQ(warm_ptr->size(), 1u);
  // Repeat: served from memo, same pointer.
  EXPECT_EQ(idx.PathPairProbe(*store, g, p, big), warm_ptr);
  const auto warm = idx.Stats();
  EXPECT_GE(warm.memo_hits, 1);

  // Value-only commit on an unrelated tag (<u>'s text): the pair bucket
  // and the structure epoch are untouched, so the memoized
  // materialization stays warm (same pointer).
  {
    index::DeltaIndex delta;
    store->AttachIndexDelta(&delta);
    auto u_pre = xpath::EvaluatePath(*store, "//u");
    ASSERT_TRUE(u_pre.ok());
    PreId text = store->SkipHoles(u_pre.value()[0] + 1);
    ASSERT_TRUE(store->SetRef(text, store->pools().AddText("6")).ok());
    EXPECT_FALSE(delta.structural());
    idx.ApplyDirty(*store, delta);
    store->AttachIndexDelta(nullptr);
  }
  EXPECT_EQ(idx.PathPairProbe(*store, g, p, big), warm_ptr);
  EXPECT_EQ(idx.Stats().memo_misses, warm.memo_misses);

  // Rename <g> -> <h>: the (g, p) bucket vanishes and (h, p) appears
  // under a fresh generation — the stale materialization must not
  // serve either probe.
  {
    index::DeltaIndex delta;
    store->AttachIndexDelta(&delta);
    auto g_pre = xpath::EvaluatePath(*store, "//g");
    ASSERT_TRUE(g_pre.ok());
    QnameId h = store->pools().InternQname("h");
    ASSERT_TRUE(store->SetRef(g_pre.value()[0], h).ok());
    idx.ApplyDirty(*store, delta);
    store->AttachIndexDelta(nullptr);
    EXPECT_EQ(idx.PathPairProbe(*store, g, p, big)->size(), 0u);
    EXPECT_EQ(idx.PathPairProbe(*store, h, p, big)->size(), 1u);
  }
}

// The value-key admission cap: a read-only flood of distinct literals
// stops growing the memo at 256 value keys (qname/path keys do not
// count), literals past the cap still answer exactly but unmemoized,
// and one value-only commit clears the full memo so new literals are
// admitted again. A materialized entry re-gates off its cached count.
TEST(IndexManagerTest, ValueMemoCapBoundsDistinctLiterals) {
  std::string xml = "<r>";
  for (int i = 0; i < 300; ++i) {
    xml += "<e id=\"i" + std::to_string(i) + "\"/>";
  }
  xml += "</r>";
  auto store = BuildStore(xml);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId e = store->pools().FindQname("e");
  QnameId id = store->pools().FindQname("id");
  const int64_t big = 1 << 20;
  auto scan = xpath::EvaluatePath(*store, "//e");
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan.value().size(), 300u);
  auto probe = [&](int i, int64_t scan_cost) {
    std::string literal = "i";
    literal += std::to_string(i);
    return idx.AttrValueProbe(*store, id, CmpOp::kEq, literal, scan_cost);
  };

  ASSERT_NE(idx.ElementsByQname(*store, e, big), nullptr);  // 1 qname key
  for (int i = 0; i < 300; ++i) {
    auto owners = probe(i, big);
    ASSERT_TRUE(owners.has_value());
    EXPECT_EQ(*owners, std::vector<PreId>{scan.value()[i]}) << i;
  }
  auto s = idx.Stats();
  EXPECT_EQ(s.memo_entries, 256 + 1);
  // One pre per admitted literal plus the 300 of the qname entry.
  EXPECT_GE(s.memo_bytes,
            static_cast<int64_t>((256 + 300) * sizeof(PreId)));
  EXPECT_EQ(s.memo_value_misses, 300);
  EXPECT_EQ(s.memo_value_hits, 0);

  // Past the cap: exact, and a miss again. Under it: a warm hit.
  auto late = probe(299, big);
  ASSERT_TRUE(late.has_value());
  EXPECT_EQ(*late, std::vector<PreId>{scan.value()[299]});
  EXPECT_EQ(idx.Stats().memo_value_misses, 301);
  ASSERT_TRUE(probe(0, big).has_value());
  EXPECT_EQ(idx.Stats().memo_value_hits, 1);

  // Warm re-gate: the materialized "i0" entry holds 1 candidate, which
  // a scan estimate of 1 declines (1 > 0.5 * 1) — without a miss.
  const auto warm = idx.Stats();
  EXPECT_FALSE(probe(0, 1).has_value());
  s = idx.Stats();
  EXPECT_EQ(s.memo_value_misses, warm.memo_value_misses);
  EXPECT_EQ(s.memo_value_hits, warm.memo_value_hits);
  EXPECT_EQ(s.probe_hits, warm.probe_hits);
  EXPECT_EQ(s.probes, warm.probes + 1);

  // One value-only commit (rewrite the first @id) clears the full memo.
  index::DeltaIndex delta;
  store->AttachIndexDelta(&delta);
  store->SetAttrNamed(store->NodeAt(scan.value()[0]), id,
                      store->pools().AddProp("j0"));
  EXPECT_FALSE(delta.structural());
  idx.ApplyDirty(*store, delta);
  store->AttachIndexDelta(nullptr);
  EXPECT_EQ(idx.Stats().memo_entries, 0);

  // The literal the cap refused is admitted now: miss, then hit.
  const auto before = idx.Stats();
  for (int i = 0; i < 2; ++i) {
    auto owners = probe(299, big);
    ASSERT_TRUE(owners.has_value());
    EXPECT_EQ(*owners, std::vector<PreId>{scan.value()[299]});
  }
  s = idx.Stats();
  EXPECT_EQ(s.memo_value_misses, before.memo_value_misses + 1);
  EXPECT_EQ(s.memo_value_hits, before.memo_value_hits + 1);
  EXPECT_EQ(s.memo_entries, 1);
}

TEST(IndexManagerTest, MemoServesRepeatedProbes) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId n = store->pools().FindQname("n");
  auto p1 = idx.ElementsByQname(*store, n, 1 << 20);
  auto p2 = idx.ElementsByQname(*store, n, 1 << 20);
  ASSERT_NE(p1, nullptr);
  // The second probe must share the memoized materialization.
  EXPECT_EQ(p1, p2);
  auto s = idx.Stats();
  EXPECT_EQ(s.memo_misses, 1);
  EXPECT_EQ(s.memo_hits, 1);
}

// Value and attribute probes are memoized like qname/path
// materializations. Repeats with no intervening commit are served from
// the memo; the key holds the literal as written, so two spellings of
// the same number take two entries, each exact.
TEST(IndexManagerTest, ValueMemoServesRepeatedProbes) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId n = store->pools().FindQname("n");
  QnameId id = store->pools().FindQname("id");
  QnameId p = store->pools().FindQname("p");
  const int64_t big = 1 << 20;

  std::vector<PreId> simple, rest;
  ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kEq, "17", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  // "17.0" parses to the same number and matches the same element,
  // under a memo key of its own.
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kEq, "17.0", big,
                                    &simple, &rest));
    EXPECT_EQ(simple.size(), 1u);
  }
  {
    auto s = idx.Stats();
    EXPECT_EQ(s.memo_value_misses, 2);
    EXPECT_EQ(s.memo_value_hits, 1);
  }

  // Range probes memoize on the raw literal (their dictionary range is
  // lexicographic in the spelling).
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kGt, "4", big,
                                    &simple, &rest));
    EXPECT_EQ(simple.size(), 3u);
  }
  // Attribute owners and attribute values memoize too.
  for (int i = 0; i < 2; ++i) {
    auto owners = idx.AttrOwners(*store, id, big);
    ASSERT_TRUE(owners.has_value());
    EXPECT_EQ(owners->size(), 2u);
    auto range = idx.AttrValueProbe(*store, p, CmpOp::kGe, "2", big);
    ASSERT_TRUE(range.has_value());
    EXPECT_EQ(range->size(), 2u);
  }
  auto s = idx.Stats();
  EXPECT_EQ(s.memo_value_misses, 5);  // one per distinct probe
  EXPECT_EQ(s.memo_value_hits, 4);    // one per repeat
}

// A value-only commit invalidates ONLY the buckets it touched: every
// entry over the edited tag re-derives (exactly), while other tags'
// value entries and postings materializations stay warm.
TEST(IndexManagerTest, ValueMemoInvalidatesPerTouchedBucket) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId n = store->pools().FindQname("n");
  QnameId c = store->pools().FindQname("c");
  const int64_t big = 1 << 20;

  std::vector<PreId> simple, rest;
  // Warm: numeric-eq under <n>, string-eq "x" and "y" under <c>, and
  // the qname materialization of <n>.
  ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kEq, "17", big, &simple,
                                  &rest));
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "x", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "y", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  const std::vector<PreId>* n_pres =
      idx.ElementsByQname(*store, n, big);
  ASSERT_NE(n_pres, nullptr);
  const auto warm = idx.Stats();

  // Value-only commit: rewrite the first <c>'s text "x" -> "q" through
  // the store primitive, exactly as a transaction would.
  index::DeltaIndex delta;
  store->AttachIndexDelta(&delta);
  auto c_pres = xpath::EvaluatePath(*store, "//c");
  ASSERT_TRUE(c_pres.ok());
  PreId text = store->SkipHoles(c_pres.value()[0] + 1);
  ASSERT_EQ(store->KindAt(text), NodeKind::kText);
  ASSERT_TRUE(store->SetRef(text, store->pools().AddText("q")).ok());
  EXPECT_FALSE(delta.structural());
  idx.ApplyDirty(*store, delta);
  store->AttachIndexDelta(nullptr);

  // The other tag is still warm: numeric-eq under <n> and the <n>
  // postings materialization (same pointer — its bucket and the
  // structure epoch are unchanged). "y" under <c> shares the edited
  // bucket, so it re-derives, to the same answer.
  ASSERT_TRUE(idx.ChildValueProbe(*store, n, CmpOp::kEq, "17", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  EXPECT_EQ(idx.ElementsByQname(*store, n, big), n_pres);
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "y", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  {
    auto s = idx.Stats();
    EXPECT_EQ(s.memo_value_misses, warm.memo_value_misses + 1);
    EXPECT_EQ(s.memo_value_hits, warm.memo_value_hits + 1);
    EXPECT_EQ(s.memo_misses, warm.memo_misses);
    EXPECT_EQ(s.structure_epoch, warm.structure_epoch);
  }
  // The touched keys re-derive: "x" is gone, "q" is found.
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "x", big, &simple,
                                  &rest));
  EXPECT_TRUE(simple.empty());
  ASSERT_TRUE(idx.ChildValueProbe(*store, c, CmpOp::kEq, "q", big, &simple,
                                  &rest));
  EXPECT_EQ(simple.size(), 1u);
  EXPECT_GT(idx.Stats().memo_value_misses, warm.memo_value_misses);
}

// Replacing an attribute's value must invalidate every memo entry over
// that attribute's bucket — the old value, the new one, sibling values
// and the owner list all re-derive exactly — while another attribute's
// entries stay warm.
TEST(IndexManagerTest, AttrReplaceInvalidatesItsBucketOnly) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId id = store->pools().FindQname("id");
  QnameId p = store->pools().FindQname("p");
  const int64_t big = 1 << 20;

  // Warm the old value, the future value (exact empty), a sibling key,
  // the owner list, and a range probe over another attribute.
  EXPECT_EQ(idx.AttrValueProbe(*store, id, CmpOp::kEq, "a1", big)->size(),
            1u);
  EXPECT_EQ(idx.AttrValueProbe(*store, id, CmpOp::kEq, "zz", big)->size(),
            0u);
  EXPECT_EQ(idx.AttrValueProbe(*store, id, CmpOp::kEq, "a2", big)->size(),
            1u);
  EXPECT_EQ(idx.AttrOwners(*store, id, big)->size(), 2u);
  EXPECT_EQ(idx.AttrValueProbe(*store, p, CmpOp::kGe, "2", big)->size(), 2u);
  const auto warm = idx.Stats();

  // Replace @id on the first <a>: "a1" -> "zz", through the store
  // primitive, which dirties the owner.
  index::DeltaIndex delta;
  store->AttachIndexDelta(&delta);
  auto a_pres = xpath::EvaluatePath(*store, "//a");
  ASSERT_TRUE(a_pres.ok());
  NodeId owner = store->NodeAt(a_pres.value()[0]);
  store->SetAttrNamed(owner, id, store->pools().AddProp("zz"));
  EXPECT_EQ(delta.dirty(), std::vector<NodeId>{owner});
  idx.ApplyDirty(*store, delta);
  store->AttachIndexDelta(nullptr);

  // Probing the OLD value after commit must see the removal, and the
  // new value must be found; the sibling key and the owner list keep
  // their answers.
  EXPECT_EQ(idx.AttrValueProbe(*store, id, CmpOp::kEq, "a1", big)->size(),
            0u);
  EXPECT_EQ(idx.AttrValueProbe(*store, id, CmpOp::kEq, "zz", big)->size(),
            1u);
  EXPECT_EQ(idx.AttrValueProbe(*store, id, CmpOp::kEq, "a2", big)->size(),
            1u);
  EXPECT_EQ(idx.AttrOwners(*store, id, big)->size(), 2u);
  // @p's bucket was not touched: its entry is still warm.
  EXPECT_EQ(idx.AttrValueProbe(*store, p, CmpOp::kGe, "2", big)->size(), 2u);
  auto s = idx.Stats();
  EXPECT_EQ(s.memo_value_hits, warm.memo_value_hits + 1);
  EXPECT_EQ(s.memo_value_misses, warm.memo_value_misses + 4);
  EXPECT_EQ(s.structure_epoch, warm.structure_epoch);
}

TEST(IndexManagerTest, CostGateDeclinesUnselectiveProbes) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId n = store->pools().FindQname("n");
  // 3 postings vs. a claimed scan of 4 tuples: 3 > 0.5*4 -> decline.
  EXPECT_EQ(idx.ElementsByQname(*store, n, 4), nullptr);
  // Generous scan estimate -> accept.
  EXPECT_NE(idx.ElementsByQname(*store, n, 1000), nullptr);
  auto stats = idx.Stats();
  EXPECT_EQ(stats.probes, 2);
  EXPECT_EQ(stats.probe_hits, 1);
}

TEST(IndexManagerTest, StatsReportStructure) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  auto s = idx.Stats();
  EXPECT_EQ(s.qname_keys, 5);         // r a n b c
  EXPECT_EQ(s.postings_entries, 10);  // every element once
  EXPECT_GT(s.value_keys, 0);
  EXPECT_GT(s.attr_value_keys, 0);
  EXPECT_EQ(s.path_keys, 5);          // (-,r) (r,a) (a,n) (r,b) (b,c)
  EXPECT_EQ(s.node_states, 10);
  EXPECT_GT(s.bytes, 0);
  EXPECT_GE(s.build_micros, 0);
  EXPECT_EQ(s.publish_epoch, 1);      // the Rebuild publication
}

// ---------------------------------------------------------------------------
// Cardinality statistics (selectivity-driven planning)
// ---------------------------------------------------------------------------

TEST(IndexManagerTest, CardinalityStatsExactOnBuild) {
  auto store = BuildStore(kDoc);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId r = store->pools().FindQname("r");
  QnameId a = store->pools().FindQname("a");
  QnameId n = store->pools().FindQname("n");
  QnameId b = store->pools().FindQname("b");
  QnameId c = store->pools().FindQname("c");
  QnameId id = store->pools().FindQname("id");
  QnameId p = store->pools().FindQname("p");

  // Tag and pair stats are EXACT bucket sizes, keyed like the probes.
  auto ts = idx.TagStats(n);
  EXPECT_TRUE(ts.known);
  EXPECT_TRUE(ts.exact);
  EXPECT_EQ(ts.count, 3);
  EXPECT_EQ(idx.PairStats(a, n).count, 3);
  EXPECT_EQ(idx.PairStats(r, a).count, 2);
  EXPECT_EQ(idx.PairStats(b, c).count, 3);
  EXPECT_EQ(idx.PairStats(-1, r).count, 1);  // the root has no parent
  EXPECT_EQ(idx.PairStats(a, c).count, 0);  // no such pair, exactly
  EXPECT_FALSE(idx.PairStats(a, -1).known);  // unresolved self tag

  // String equality reads the dictionary posting length: exact.
  auto vs = idx.ValueStats(n, CmpOp::kEq, "abc");
  EXPECT_TRUE(vs.known);
  EXPECT_TRUE(vs.exact);
  EXPECT_EQ(vs.count, 1);
  // Numeric equality goes through the equi-width histogram, with the
  // operand canonicalized to the parsed double: "17" and "17.0" are the
  // same bucket lookup, yielding the same estimate.
  auto v17 = idx.ValueStats(n, CmpOp::kEq, "17");
  auto v170 = idx.ValueStats(n, CmpOp::kEq, "17.0");
  EXPECT_TRUE(v17.known);
  EXPECT_EQ(v17.count, v170.count);
  EXPECT_GE(v17.count, 1);   // the bucket holds at least the match
  EXPECT_FALSE(v17.exact);   // bucket count is an upper bound
  // A tag nothing carries: zero, exactly.
  auto vz = idx.ValueStats(store->pools().FindQname("id"), CmpOp::kEq, "q");
  EXPECT_TRUE(vz.known);
  EXPECT_TRUE(vz.exact);
  EXPECT_EQ(vz.count, 0);

  // Attribute stats: existence is the exact owner count; value lookups
  // share the dictionary/histogram logic.
  auto as = idx.AttrStats(id, /*any_value=*/true, CmpOp::kEq, "");
  EXPECT_TRUE(as.exact);
  EXPECT_EQ(as.count, 2);
  auto ap = idx.AttrStats(p, /*any_value=*/false, CmpOp::kEq, "1");
  EXPECT_TRUE(ap.known);
  EXPECT_GE(ap.count, 1);

  auto s = idx.Stats();
  // stat_keys: 5 qname postings + 5 pair keys + value dicts (n: 3,
  // c: 3) + attr dicts with their owner sets (id: 2+1, p: 3+1).
  EXPECT_EQ(s.stat_keys, 23);
  // Non-empty equi-width buckets: n {5,17} -> 2, c {"17"} -> 1,
  // p {1,2,10} -> 3 (id values are non-numeric: no histogram).
  EXPECT_EQ(s.histogram_buckets, 6);
  EXPECT_GT(s.estimator_probes, 0);  // the TagStats/... calls above
}

TEST(IndexManagerTest, CardinalityStatsFollowRenameFanOut) {
  auto store = BuildStore("<r><e><c>1</c><c>2</c></e></r>");
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  QnameId r = store->pools().FindQname("r");
  QnameId e = store->pools().FindQname("e");
  QnameId c = store->pools().FindQname("c");
  ASSERT_EQ(idx.PairStats(e, c).count, 2);
  ASSERT_EQ(idx.PairStats(r, e).count, 1);

  // Rename <e> -> <f> on the base with a one-node dirty set; the
  // children's pair keys must fan out to the new tag and the stats
  // must follow exactly.
  auto e_pre = xpath::EvaluatePath(*store, "//e");
  ASSERT_TRUE(e_pre.ok());
  QnameId f = store->pools().InternQname("f");
  NodeId e_node = store->NodeAt(e_pre.value()[0]);
  ASSERT_TRUE(store->SetRef(e_pre.value()[0], f).ok());
  index::DeltaIndex delta;
  delta.MarkDirty(e_node);
  idx.ApplyDirty(*store, delta);

  EXPECT_EQ(idx.PairStats(e, c).count, 0);
  EXPECT_EQ(idx.PairStats(f, c).count, 2);
  EXPECT_EQ(idx.PairStats(r, f).count, 1);
  EXPECT_EQ(idx.TagStats(e).count, 0);
  EXPECT_EQ(idx.TagStats(f).count, 1);
  // The children's values are untouched by the rename.
  EXPECT_GE(idx.ValueStats(c, CmpOp::kEq, "1").count, 1);
  // Stats moved with the publication: estimate-stamped plans see a new
  // epoch and recompile.
  EXPECT_EQ(idx.stats_epoch(), 2u);
}

TEST(IndexedQueryTest, CardinalityStatsStayExactThroughCommitAbort) {
  auto db_or = Database::CreateFromXml(kDoc);
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();
  index::IndexManager* idx = db->index_manager();
  ASSERT_NE(idx, nullptr);
  QnameId n = db->txn_manager().Read(
      [](const storage::PagedStore& s) { return s.pools().FindQname("n"); });
  ASSERT_EQ(idx->TagStats(n).count, 3);
  const uint64_t epoch0 = idx->stats_epoch();

  // An ABORTED transaction must not move the stats (or the epoch).
  {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE(
        txn.value()
            ->Update("<xupdate:modifications version=\"1.0\" "
                     "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
                     "<xupdate:append select=\"//a\"><n>23</n>"
                     "</xupdate:append></xupdate:modifications>")
            .ok());
    ASSERT_TRUE(txn.value()->Abort().ok());
  }
  EXPECT_EQ(idx->TagStats(n).count, 3);
  EXPECT_EQ(idx->stats_epoch(), epoch0);

  // A COMMITTED append is reflected exactly: one more <n> posting, one
  // more numeric histogram entry.
  const auto before = db->IndexStats();
  ASSERT_TRUE(
      db->Update("<xupdate:modifications version=\"1.0\" "
                 "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
                 "<xupdate:append select=\"//a\"><n>23</n>"
                 "</xupdate:append></xupdate:modifications>")
          .ok());
  EXPECT_EQ(idx->TagStats(n).count, 5);  // //a matches both <a> owners
  EXPECT_GT(idx->stats_epoch(), epoch0);
  const auto after = db->IndexStats();
  EXPECT_GT(after.histogram_buckets, 0);
  EXPECT_GE(after.stat_keys, before.stat_keys);
  // Estimate via the public estimator facade too: point <= upper, and
  // the pessimistic upper bound equals the tag's posting length.
  index::CardinalityEstimator est(idx);
  ASSERT_TRUE(est.active());
  auto ce = est.Tag(n);
  EXPECT_TRUE(ce.known);
  EXPECT_EQ(ce.upper, 5);
  EXPECT_LE(ce.point, static_cast<double>(ce.upper));
}

// ---------------------------------------------------------------------------
// Index-aware evaluation through the Database API
// ---------------------------------------------------------------------------

Database::Options CrossCheckedOptions() {
  Database::Options opt;
  opt.store.page_tuples = 16;
  opt.store.shred_fill = 0.75;
  opt.index.cross_check = true;  // every probe verified against the scan
  return opt;
}

TEST(IndexedQueryTest, MatchesReferenceOnXmark) {
  xmark::GeneratorOptions gopt;
  gopt.factor = 0.002;
  auto db_or =
      Database::CreateFromXml(xmark::Generate(gopt), CrossCheckedOptions());
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(db_or).value();

  const char* queries[] = {
      "//item",
      "//person",
      "/site/people/person[@id='person0']",
      "/site/people/person[@id]",
      "/site/open_auctions/open_auction[reserve>30]",
      "//person[emailaddress]",
      // Multi-step chains (path-index prefix plan) and child steps.
      "/site/people/person",
      "/site/regions/europe/item",
      "/site/open_auctions/open_auction/bidder/increase",
      "//regions/europe",
  };
  for (const char* q : queries) {
    auto res = db->Query(q);
    ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
    auto ref = db->txn_manager().Read([&](const storage::PagedStore& s) {
      xpath::ReferenceEvaluator<storage::PagedStore> rev(s);
      return rev.Eval(xpath::ParsePath(q).value());
    });
    ASSERT_TRUE(ref.ok()) << q;
    EXPECT_EQ(res.value(), ref.value()) << q;
  }
  auto stats = db->IndexStats();
  EXPECT_GT(stats.probe_hits, 0);
  EXPECT_GT(stats.path_hits, 0);        // chain prefixes answered
  EXPECT_GT(stats.child_step_hits, 0);  // child-axis steps answered
  EXPECT_EQ(stats.cross_check_mismatches, 0);
}

// Satellite regression through the full Database stack: replace an
// attribute value, then probe the OLD value after commit with
// cross-check on — a stale old-value dictionary key (or a stale memo
// entry for it) would diverge from the scan and fail the query.
TEST(IndexedQueryTest, AttrReplacementOldValueProbeStaysExact) {
  auto db_or = Database::CreateFromXml(kDoc, CrossCheckedOptions());
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();

  // Warm both value keys' memo entries before the replacement.
  ASSERT_EQ(db->Query("//a[@id='a1']").value().size(), 1u);
  ASSERT_EQ(db->Query("//a[@id='zz']").value().size(), 0u);

  ASSERT_TRUE(db->Update(
                    "<xupdate:modifications version=\"1.0\" "
                    "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
                    "<xupdate:update select=\"//a[1]/@id\">zz"
                    "</xupdate:update></xupdate:modifications>")
                  .ok());

  EXPECT_EQ(db->Query("//a[@id='a1']").value().size(), 0u);
  EXPECT_EQ(db->Query("//a[@id='zz']").value().size(), 1u);
  EXPECT_EQ(db->IndexStats().cross_check_mismatches, 0);
}

// Cross-check failures must say WHICH step diverged and which node ids
// only one side produced. Forced here by mutating the store behind the
// index's back (no DeltaIndex attached — deliberately stale index).
TEST(IndexedQueryTest, CrossCheckReportsDivergenceDetails) {
  auto store = BuildStore(kDoc);
  index::IndexConfig cfg;
  cfg.cross_check = true;
  index::IndexManager idx(cfg);
  idx.Rebuild(*store);

  // Rename the <b> element to <a>: the scan now sees three <a>s, the
  // stale index still two.
  auto b = xpath::EvaluatePath(*store, "//b");
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(b.value().size(), 1u);
  QnameId a_qn = store->pools().FindQname("a");
  ASSERT_TRUE(store->SetRef(b.value()[0], a_qn).ok());

  auto res = xpath::EvaluatePath(*store, "//a", &idx);
  ASSERT_FALSE(res.ok());
  const std::string msg = res.status().ToString();
  EXPECT_NE(msg.find("divergence"), std::string::npos) << msg;
  EXPECT_NE(msg.find("descendant::a"), std::string::npos) << msg;
  EXPECT_NE(msg.find("scan-only=[pre"), std::string::npos) << msg;
  EXPECT_NE(msg.find("node"), std::string::npos) << msg;
  EXPECT_GT(idx.Stats().cross_check_mismatches, 0);
}

// Satellite: aborts — including mid-commit conflict aborts — must drop
// the DeltaIndex overlay without publishing anything: index epochs,
// reverse-map size, and footprint stay exactly where they were, no
// matter how many transactions abort.
TEST(IndexAbortTest, AbortStormKeepsEpochAndMemoryBounded) {
  auto db_or = Database::CreateFromXml(kDoc, CrossCheckedOptions());
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();

  const std::string doc =
      "<xupdate:modifications version=\"1.0\" "
      "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
      "<xupdate:append select=\"//b\"><c p=\"9\">z</c></xupdate:append>"
      "<xupdate:update select=\"//a[1]/@id\">zz</xupdate:update>"
      "</xupdate:modifications>";

  // One committed update to establish a non-trivial baseline.
  ASSERT_TRUE(db->Update(doc).ok());
  const auto base = db->IndexStats();
  ASSERT_GT(base.publish_epoch, 1);

  for (int i = 0; i < 100; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto stats = txn.value()->Update(doc);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(txn.value()->Abort().ok());
  }
  {
    // Explicit aborts published nothing: every epoch and memory figure
    // is exactly the baseline.
    const auto after = db->IndexStats();
    EXPECT_EQ(after.publish_epoch, base.publish_epoch);
    EXPECT_EQ(after.structure_epoch, base.structure_epoch);
    EXPECT_EQ(after.maintenance_ops, base.maintenance_ops);
    EXPECT_EQ(after.applied_commits, base.applied_commits);
    EXPECT_EQ(after.node_states, base.node_states);
    EXPECT_EQ(after.bytes, base.bytes);
  }

  // Mid-commit failure: t2 snapshots, a rival commit bumps the page
  // versions, then t2's own update poisons it (first-updater-wins) with
  // its overlay already populated — Commit() must fail and publish
  // nothing for t2.
  const auto before_conflicts = db->IndexStats();
  const int kConflictRounds = 10;
  for (int i = 0; i < kConflictRounds; ++i) {
    auto t2 = db->Begin();
    ASSERT_TRUE(t2.ok());
    ASSERT_TRUE(db->Update(doc).ok());  // rival auto-commit
    (void)t2.value()->Update(doc);      // poisons t2 on the page hook
    EXPECT_FALSE(t2.value()->Commit().ok());
  }
  const auto after = db->IndexStats();
  // Only the rival commits published (one each).
  EXPECT_EQ(after.publish_epoch - before_conflicts.publish_epoch,
            kConflictRounds);
  EXPECT_EQ(after.applied_commits - before_conflicts.applied_commits,
            kConflictRounds);
  // ...and queries remain exact (cross-check runs inside Query).
  for (const char* q : {"//c", "//a[@id='zz']", "/r/b/c", "//b[c='z']"}) {
    auto res = db->Query(q);
    ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
    auto ref = db->txn_manager().Read([&](const storage::PagedStore& s) {
      xpath::ReferenceEvaluator<storage::PagedStore> rev(s);
      return rev.Eval(xpath::ParsePath(q).value());
    });
    ASSERT_TRUE(ref.ok());
    EXPECT_EQ(res.value(), ref.value()) << q;
  }
  EXPECT_EQ(db->IndexStats().cross_check_mismatches, 0);

  // Memory bound: the reverse map tracks live elements only — an abort
  // storm must not grow it. (Element count changed only by the
  // successful t2 commits: one <c> append each.)
  auto count_elems = [&] {
    auto r = db->Query("//*");
    EXPECT_TRUE(r.ok());
    return static_cast<int64_t>(r.value().size());
  };
  EXPECT_EQ(after.node_states, count_elems());

  // Satellite: aborted transactions that staged VALUE mutations must
  // leave warm value-probe memo entries intact and correct — nothing
  // published means nothing invalidated.
  const char* warm_queries[] = {"//a[@id='zz']", "//b[c='z']",
                                "//c[@p>='2']"};
  for (const char* q : warm_queries) ASSERT_TRUE(db->Query(q).ok());
  const auto warmed = db->IndexStats();
  for (int i = 0; i < 25; ++i) {
    auto txn = db->Begin();
    ASSERT_TRUE(txn.ok());
    auto stats = txn.value()->Update(doc);  // attr rewrite + append
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_TRUE(txn.value()->Abort().ok());
  }
  for (const char* q : warm_queries) {
    auto res = db->Query(q);  // cross-check mode verifies correctness
    ASSERT_TRUE(res.ok()) << q << ": " << res.status().ToString();
  }
  const auto rewarmed = db->IndexStats();
  EXPECT_EQ(rewarmed.publish_epoch, warmed.publish_epoch);
  // Every value probe was served from the still-valid memo: hits grew,
  // misses did not.
  EXPECT_EQ(rewarmed.memo_value_misses, warmed.memo_value_misses);
  EXPECT_GT(rewarmed.memo_value_hits, warmed.memo_value_hits);
  EXPECT_EQ(rewarmed.cross_check_mismatches, 0);
}

// A scan-vs-index smoke check with a deliberately enormous margin: a
// handful of needles in a ~40k-node haystack. The real numbers live in
// bench_micro; this only guards against the index path silently
// regressing to a scan.
TEST(IndexedQueryTest, IndexBeatsScanOnSelectiveStep) {
  std::string xml = "<r>";
  for (int i = 0; i < 20000; ++i) {
    xml += "<e>";
    xml += std::to_string(i);
    xml += "</e>";
    if (i % 2000 == 0) xml += "<f>needle</f>";
  }
  xml += "</r>";
  auto store = BuildStore(xml);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);

  xpath::Evaluator<storage::PagedStore> indexed(*store, &idx);
  xpath::Evaluator<storage::PagedStore> scan(*store);
  auto path = xpath::ParsePath("//f").value();
  auto want = scan.Eval(path);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(want.value().size(), 10u);

  const int reps = 50;
  auto time_us = [&](auto& ev) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      auto r = ev.Eval(path);
      EXPECT_TRUE(r.ok());
      EXPECT_EQ(r.value(), want.value());
    }
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };
  int64_t scan_us = time_us(scan);
  int64_t idx_us = time_us(indexed);
  EXPECT_LT(idx_us * 3, scan_us)
      << "indexed " << idx_us << "us vs scan " << scan_us << "us";
}

// ---------------------------------------------------------------------------
// Maintenance property test (satellite): random XUpdate workloads with
// aborted transactions, verified against the reference evaluator after
// every batch, then once more after crash recovery via Open().
// ---------------------------------------------------------------------------

class IndexMaintenanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pxq_index_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(IndexMaintenanceTest, RandomUpdatesKeepIndexExact) {
  Database::Options opt = CrossCheckedOptions();
  opt.data_dir = dir_.string();

  auto db_or = Database::CreateFromXml(kDoc, opt);
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  auto db = std::move(db_or).value();

  Random rng(20260729);
  auto rand_value = [&]() -> std::string {
    switch (rng.Uniform(4)) {
      case 0: return std::to_string(rng.Range(-50, 50));
      case 1:
        return std::to_string(rng.Range(0, 100)) + "." +
               std::to_string(rng.Uniform(100));
      case 2: return std::string("w") + std::to_string(rng.Uniform(8));
      default: return "";  // empty text values too
    }
  };
  auto make_update = [&]() -> std::string {
    std::string v = rand_value();
    switch (rng.Uniform(10)) {
      case 0:
        return "<xupdate:append select=\"//a\"><n>" + v +
               "</n></xupdate:append>";
      case 1:
        return "<xupdate:append select=\"/r/b\"><c p=\"" + v + "\">" + v +
               "</c></xupdate:append>";
      case 2:
        return "<xupdate:remove select=\"//n[" +
               std::to_string(rng.Range(1, 3)) + "]\"/>";
      case 3:
        return "<xupdate:remove select=\"//c[" +
               std::to_string(rng.Range(1, 3)) + "]\"/>";
      case 4:
        return "<xupdate:update select=\"//c[1]\">" + v +
               "</xupdate:update>";
      case 5:
        return "<xupdate:update select=\"//a[1]/@id\">" + v +
               "</xupdate:update>";
      case 6:
        // Alternate renaming a leaf and an element WITH element
        // children (<d>): the latter re-keys its children's
        // (parent, self) path-index entries.
        return rng.Bernoulli(0.5)
                   ? "<xupdate:rename select=\"//n[1]\">m</xupdate:rename>"
                   : "<xupdate:rename select=\"//d[1]\">dd</xupdate:rename>";
      case 7:
        return "<xupdate:insert-before select=\"//c[2]\"><c p=\"" + v +
               "\">z</c></xupdate:insert-before>";
      case 8:
        return "<xupdate:append select=\"//b\"><d><n>" + v +
               "</n><n>9</n></d></xupdate:append>";
      default:
        return "<xupdate:insert-after select=\"//a[2]\"><a id=\"" + v +
               "\"><n>3</n></a></xupdate:insert-after>";
    }
  };

  const char* queries[] = {
      "//n",
      "//m",
      "//c",
      "//a[n]",
      "//a[@id]",
      "//b[c>1]",
      "//a[n='abc']",
      "//a[n<=17]",
      "//b[c='z']",
      "//a[n>'w1']",
      "//c[@p>1]",
      "//c[@p='1']",
      "//b[d]",
      "//d[n=9]",
      // Path-index chains and child steps, maintained under the same
      // churn (renames re-key, inserts/deletes shift pres).
      "/r/a/n",
      "/r/b/c",
      "/r/b/d/n",
      "/r/b/dd/n",
      "//b/c[@p>=2]",
      "//a/n",
      // Equality on the attribute values case 5 rewrites, and two
      // spellings of one number, which take two memo keys.
      "//a[@id='w1']",
      "//a[n=3]",
      "//a[n=3.0]",
  };

  auto verify_all = [&](const std::string& when) {
    for (const char* q : queries) {
      auto res = db->Query(q);  // cross-check mode: index vs scan inside
      ASSERT_TRUE(res.ok())
          << when << " " << q << ": " << res.status().ToString();
      auto ref = db->txn_manager().Read([&](const storage::PagedStore& s) {
        xpath::ReferenceEvaluator<storage::PagedStore> rev(s);
        return rev.Eval(xpath::ParsePath(q).value());
      });
      ASSERT_TRUE(ref.ok()) << when << " " << q;
      ASSERT_EQ(res.value(), ref.value()) << when << " " << q;
    }
  };

  for (int round = 0; round < 60; ++round) {
    std::string body;
    const int ops = static_cast<int>(rng.Range(1, 3));
    for (int i = 0; i < ops; ++i) body += make_update();
    std::string doc =
        "<xupdate:modifications version=\"1.0\" "
        "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">" +
        body + "</xupdate:modifications>";

    if (rng.Bernoulli(0.3)) {
      // Aborted transaction: the delta overlay must be discarded.
      auto txn = db->Begin();
      ASSERT_TRUE(txn.ok());
      auto stats = txn.value()->Update(doc);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      ASSERT_TRUE(txn.value()->Abort().ok());
    } else {
      auto stats = db->Update(doc);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
    verify_all("round " + std::to_string(round));
  }

  EXPECT_EQ(db->IndexStats().cross_check_mismatches, 0);
  EXPECT_GT(db->IndexStats().applied_commits, 0);

  // Crash recovery: drop the handle (no checkpoint) and reopen; the
  // index is rebuilt from snapshot + WAL replay.
  db.reset();
  auto reopened = Database::Open(opt);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db = std::move(reopened).value();
  verify_all("after recovery");
  EXPECT_EQ(db->IndexStats().cross_check_mismatches, 0);
}

// Cold memo fills racing on one key: 8 threads released together probe
// the same cold qname, pair and attr-value key on a quiescent index.
// A filler that loses the race must serve the winner's entry, never
// overwrite one another thread already holds. Each thread copies its
// results while the others may still be filling, and reads them again
// after all threads returned; both must equal the scan.
TEST(IndexConcurrencyTest, ColdMemoFillsRaceSafely) {
  std::string xml = "<r><list>";
  for (int i = 0; i < 20000; ++i) {
    xml += "<item k=\"" + std::to_string(i % 3) + "\"><v/></item>";
  }
  xml += "</list></r>";
  auto store = BuildStore(xml);
  index::IndexManager idx(index::IndexConfig{});
  idx.Rebuild(*store);
  const QnameId item = store->pools().FindQname("item");
  const QnameId list = store->pools().FindQname("list");
  const QnameId k = store->pools().FindQname("k");
  const int64_t big = 1 << 30;

  constexpr int kThreads = 8;
  std::barrier start(kThreads);
  std::vector<const std::vector<PreId>*> by_qname(kThreads, nullptr);
  std::vector<const std::vector<PreId>*> by_pair(kThreads, nullptr);
  std::vector<std::optional<std::vector<PreId>>> by_value(kThreads);
  std::vector<std::vector<PreId>> early_qname(kThreads), early_pair(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const size_t i = static_cast<size_t>(t);
      start.arrive_and_wait();
      by_qname[i] = idx.ElementsByQname(*store, item, big);
      if (by_qname[i] != nullptr) early_qname[i] = *by_qname[i];
      by_pair[i] = idx.PathPairProbe(*store, list, item, big);
      if (by_pair[i] != nullptr) early_pair[i] = *by_pair[i];
      by_value[i] = idx.AttrValueProbe(*store, k, CmpOp::kEq, "1", big);
    });
  }
  for (auto& th : threads) th.join();

  auto items = xpath::EvaluatePath(*store, "//item");
  auto ones = xpath::EvaluatePath(*store, "//item[@k='1']");
  ASSERT_TRUE(items.ok());
  ASSERT_TRUE(ones.ok());
  ASSERT_EQ(items.value().size(), 20000u);
  for (size_t i = 0; i < kThreads; ++i) {
    ASSERT_NE(by_qname[i], nullptr);
    ASSERT_NE(by_pair[i], nullptr);
    ASSERT_TRUE(by_value[i].has_value());
    EXPECT_EQ(*by_qname[i], items.value()) << "thread " << i;
    EXPECT_EQ(*by_pair[i], items.value()) << "thread " << i;
    EXPECT_EQ(early_qname[i], items.value()) << "thread " << i;
    EXPECT_EQ(early_pair[i], items.value()) << "thread " << i;
    EXPECT_EQ(*by_value[i], ones.value()) << "thread " << i;
  }

  const auto cold = idx.Stats();
  EXPECT_EQ(cold.memo_hits + cold.memo_misses, 2 * kThreads);
  ASSERT_NE(idx.ElementsByQname(*store, item, big), nullptr);
  ASSERT_TRUE(idx.AttrValueProbe(*store, k, CmpOp::kEq, "1", big).has_value());
  const auto warm = idx.Stats();
  EXPECT_EQ(warm.memo_hits, cold.memo_hits + 1);
  EXPECT_EQ(warm.memo_misses, cold.memo_misses);
  EXPECT_EQ(warm.memo_value_hits, cold.memo_value_hits + 1);
  EXPECT_EQ(warm.memo_value_misses, cold.memo_value_misses);
}

// Concurrent writers + cross-checked readers: commits merge their
// delta overlays under the exclusive lock while readers probe under
// the shared lock; any index/store divergence fails a query.
TEST(IndexConcurrencyTest, ConcurrentUpdatesStayConsistent) {
  auto db_or = Database::CreateFromXml(kDoc, CrossCheckedOptions());
  ASSERT_TRUE(db_or.ok());
  auto db = std::move(db_or).value();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 3; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 40; ++i) {
        std::string doc =
            "<xupdate:modifications version=\"1.0\" "
            "xmlns:xupdate=\"http://www.xmldb.org/xupdate\">"
            "<xupdate:append select=\"//b\"><c p=\"" +
            std::to_string(w * 100 + i) + "\">t" + std::to_string(w) +
            "</c></xupdate:append></xupdate:modifications>";
        auto s = db->Update(doc, /*retries=*/20);
        if (!s.ok()) ++failures;
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      for (const char* q : {"//c", "//b[c]", "//c[@p>'50']"}) {
        auto r = db->Query(q);
        if (!r.ok()) ++failures;
      }
    }
  });
  for (int w = 0; w < 3; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true);
  threads.back().join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(db->IndexStats().cross_check_mismatches, 0);
  auto c = db->Query("//c");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value().size(), 3u + 120u);
}

}  // namespace
}  // namespace pxq
