// The xpath_read mix: twelve templates through Database::QueryStrings (or
// Database::Query for count-only ones), plus the traced variant that
// splits each read into the layer calls it makes.
#include <algorithm>

#include "bench_e2e.h"
#include "xmark/generator.h"
#include "xpath/evaluator.h"

namespace pxq::e2e {
namespace {

using storage::PagedStore;
using P = Template::Param;

// Weights: the point lookups (first three) are two thirds of reads; the
// heavy fixed templates are rare enough that none takes a quarter of the
// read time (measured on the traced run at factor 0.25).
const std::vector<Template> kTemplates = {
    {"person_name", "/site/people/person[@id='person{N}']/name", P::kPerson,
     false, 30},
    {"auction_bids",
     "/site/open_auctions/open_auction[@id='open_auction{N}']/bidder/"
     "increase",
     P::kAuction, false, 20},
    {"category_items",
     "/site/regions//item[incategory/@category='category{N}']/name",
     P::kCategory, false, 10},
    {"first_increase",
     "/site/open_auctions/open_auction/bidder[1]/increase", P::kNone, false,
     2},
    {"sold_ge40", "/site/closed_auctions/closed_auction[price>=40]/price",
     P::kNone, false, 4},
    {"region_items", "/site/regions//item", P::kNone, true, 6},
    {"prose", "//description", P::kNone, true, 4},
    {"buyers", "/site/closed_auctions/closed_auction/buyer/@person",
     P::kNone, false, 3},
    {"rich_names", "/site/people/person[profile/@income>50000]/name",
     P::kNone, false, 3},
    {"australia_desc", "/site/regions/australia/item/description", P::kNone,
     false, 3},
    {"keywords",
     "/site/closed_auctions/closed_auction/annotation/description/parlist/"
     "listitem/parlist/listitem/text/emph/keyword/text()",
     P::kNone, false, 2},
    {"keyword_sellers",
     "/site/closed_auctions/closed_auction[annotation/description/parlist/"
     "listitem/parlist/listitem/text/emph/keyword]/seller/@person",
     P::kNone, false, 2},
};

/// Span name per plan operator kind (xpath::OpKind order).
constexpr std::string_view kOpSpans[] = {
    "xpath.op.root_seed",        "xpath.op.chain_probe",
    "xpath.op.qname_postings",   "xpath.op.child_step",
    "xpath.op.descendant_staircase", "xpath.op.axis_scan",
    "xpath.op.value_probe_gate", "xpath.op.position_filter",
    "xpath.op.exists_filter",    "xpath.op.fused_probe",
};

/// A template text split into the node path and an optional trailing
/// attribute step (EvalTraced evaluates node paths only).
struct SplitText {
  std::string nodes;
  std::string attr;  // empty: no attribute step
};

SplitText Split(const std::string& text) {
  const size_t at = text.rfind("/@");
  if (at == std::string::npos ||
      text.find_first_of("[]/", at + 2) != std::string::npos) {
    return {text, ""};  // no attribute step, or one inside a predicate
  }
  return {text.substr(0, at), text.substr(at + 2)};
}

}  // namespace

uint64_t ReadResult::Hash() const {
  uint64_t h = Fnv(std::string_view(reinterpret_cast<const char*>(nodes.data()),
                                    nodes.size() * sizeof(PreId)));
  for (const std::string& v : values) h = Fnv(v, Fnv("|", h));
  return h;
}

const std::vector<Template>& Templates() { return kTemplates; }

ReadMix::ReadMix(uint64_t seed, double factor) : rng_(seed) {
  const xmark::EntityCounts c = xmark::CountsForFactor(factor);
  persons_ = c.persons;
  auctions_ = c.open_auctions;
  categories_ = c.categories;
  for (const Template& t : Templates()) total_weight_ += t.weight;
}

int64_t ReadMix::Range(Template::Param p) const {
  switch (p) {
    case P::kPerson: return persons_;
    case P::kAuction: return auctions_;
    case P::kCategory: return categories_;
    case P::kNone: break;
  }
  return 1;
}

std::string ReadMix::Text(const Template& t, int64_t n) {
  std::string s = t.pattern;
  const size_t at = s.find("{N}");
  if (at != std::string::npos) s.replace(at, 3, std::to_string(n));
  return s;
}

ReadOp ReadMix::Next() {
  auto pick = static_cast<int>(rng_.Uniform(static_cast<uint64_t>(
      total_weight_)));
  for (const Template& t : Templates()) {
    if (pick < t.weight) {
      const auto n = static_cast<int64_t>(
          rng_.Uniform(static_cast<uint64_t>(Range(t.param))));
      return {&t, Text(t, n)};
    }
    pick -= t.weight;
  }
  return {&Templates().front(), Text(Templates().front(), 0)};
}

std::vector<int64_t> ReadMix::GateParams(const Template& t) const {
  if (t.param == P::kNone) return {0};
  const int64_t r = Range(t.param);
  std::vector<int64_t> out = {0, r / 2, r - 1};
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

StatusOr<ReadResult> RunRead(Database* db, const ReadOp& op) {
  ReadResult r;
  if (op.tpl->count_only) {
    PXQ_ASSIGN_OR_RETURN(r.nodes, db->Query(op.text));
  } else {
    PXQ_ASSIGN_OR_RETURN(r.values, db->QueryStrings(op.text));
  }
  return r;
}

StatusOr<ReadResult> RunReadTraced(Database* db, const ReadOp& op,
                                   Tracer* tracer) {
  tracer->BeginOp();
  const SplitText split = Split(op.text);
  const int64_t t0 = NowNs();
  const int64_t root =
      tracer->Open(std::string("read.") + op.tpl->name, 0, t0);
  auto result = db->txn_manager().Read(
      [&](const PagedStore& s) -> StatusOr<ReadResult> {
        const int64_t t1 = NowNs();
        tracer->Add("txn.read_lock", root, t0, t1);
        xpath::Evaluator<PagedStore> ev(s, db->index_manager(),
                                        &db->plan_cache());
        auto traced = ev.EvalTraced(split.nodes);
        const int64_t t2 = NowNs();
        const int64_t eval = tracer->Add("xpath.eval", root, t1, t2);
        if (!traced.ok()) return traced.status();
        auto& tr = traced.value();
        if (tr.compile_ns > 0) {
          tracer->Add("xpath.compile", eval, t1, t1 + tr.compile_ns);
        }
        // The executor reports each operator's wall time; operators run
        // back to back after the plan lookup, so they are laid out to end
        // where EvalTraced returned.
        int64_t ops_ns = 0;
        for (const xpath::OpTrace& t : tr.trace) ops_ns += t.wall_ns;
        int64_t cursor = std::max(t1 + tr.compile_ns, t2 - ops_ns);
        for (const xpath::OpTrace& t : tr.trace) {
          const auto kind = static_cast<size_t>(tr.plan->ops[t.op].kind);
          tracer->Add(kOpSpans[kind], eval, cursor, cursor + t.wall_ns);
          cursor += t.wall_ns;
        }
        ReadResult r;
        if (op.tpl->count_only) {
          r.nodes = std::move(tr.nodes);
          return r;
        }
        r.values.reserve(tr.nodes.size());
        xpath::NodeTest attr;
        attr.kind = xpath::NodeTest::Kind::kName;
        attr.name = split.attr;
        for (PreId p : tr.nodes) {
          if (split.attr.empty()) {
            r.values.push_back(ev.StringValue(p));
          } else if (auto v = ev.AttrValue(p, attr)) {
            r.values.push_back(std::move(*v));
          }
        }
        tracer->Add("xpath.materialize", root, t2, NowNs());
        return r;
      });
  tracer->Close(root, NowNs());
  tracer->EndOp();
  return result;
}

void CheckReadsAgainstScan(Database* db, double factor, Report* report) {
  const ReadMix params(0, factor);
  for (const Template& t : Templates()) {
    bool any_result = false;
    for (int64_t n : params.GateParams(t)) {
      const std::string text = ReadMix::Text(t, n);
      bool equal = false;
      if (t.count_only) {
        auto indexed = db->Query(text);
        auto scan = db->txn_manager().Read([&](const PagedStore& s) {
          return xpath::Evaluator<PagedStore>(s).Eval(text);
        });
        equal = indexed.ok() && scan.ok() && *indexed == *scan;
        any_result |= indexed.ok() && !indexed->empty();
      } else {
        auto indexed = db->QueryStrings(text);
        auto scan = db->txn_manager().Read([&](const PagedStore& s) {
          return xpath::Evaluator<PagedStore>(s).EvalStrings(text);
        });
        equal = indexed.ok() && scan.ok() && *indexed == *scan;
        any_result |= indexed.ok() && !indexed->empty();
      }
      if (!equal) report->Fail("index and scan disagree on " + text);
    }
    if (!any_result) {
      report->Fail(std::string("template returns nothing: ") + t.name);
    }
  }
}

}  // namespace pxq::e2e
