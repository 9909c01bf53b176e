#include "xmark/queries.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/paged_store.h"
#include "storage/read_only_store.h"
#include "storage/store_serializer.h"
#include "xpath/evaluator.h"

namespace pxq::xmark {
namespace {

uint64_t HashStr(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

double Num(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

/// Shared per-query plumbing bound to one store.
template <typename Store>
class Plans {
 public:
  explicit Plans(const Store& store)
      : store_(store), ev_(store, nullptr, &cache_) {}

  using Nodes = std::vector<PreId>;

  // Both overloads compile each path text once per query: the relative
  // ones run inside per-node loops.
  StatusOr<Nodes> P(const char* path) { return ev_.Eval(path); }
  StatusOr<Nodes> P(const char* path, Nodes ctx) {
    return ev_.Eval(path, std::move(ctx));
  }

  std::string Str(PreId p) const { return ev_.StringValue(p); }

  std::string Attr(PreId p, const char* name) const {
    xpath::NodeTest t;
    t.kind = xpath::NodeTest::Kind::kName;
    t.name = name;
    auto v = ev_.AttrValue(p, t);
    return v ? *v : std::string();
  }

  // ---- individual queries -------------------------------------------

  // Q1: the name of the person with id person0 (exact-match point query).
  StatusOr<QueryResult> Q1() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(
        Nodes n, P("/site/people/person[@id='person0']/name"));
    for (PreId p : n) r.Add(1, HashStr(Str(p)));
    return r;
  }

  // Q2: initial increase of all open auctions (positional access).
  StatusOr<QueryResult> Q2() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(
        Nodes n, P("/site/open_auctions/open_auction/bidder[1]/increase"));
    for (PreId p : n) r.Add(1, HashStr(Str(p)));
    return r;
  }

  // Q3: auctions whose first bid doubled by the end (first vs last).
  StatusOr<QueryResult> Q3() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes auctions,
                         P("/site/open_auctions/open_auction"));
    for (PreId a : auctions) {
      PXQ_ASSIGN_OR_RETURN(Nodes incs, P("bidder/increase", {a}));
      if (incs.size() < 2) continue;
      if (Num(Str(incs.front())) * 2 <= Num(Str(incs.back()))) {
        r.Add(1, HashStr(Attr(a, "id")));
      }
    }
    return r;
  }

  // Q4: auctions where a bid by person1 precedes a bid by person2
  // (document-order sensitivity).
  StatusOr<QueryResult> Q4() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes auctions,
                         P("/site/open_auctions/open_auction"));
    for (PreId a : auctions) {
      PXQ_ASSIGN_OR_RETURN(Nodes refs, P("bidder/personref", {a}));
      PreId first_p1 = -1, last_p2 = -1;
      for (PreId pr : refs) {
        std::string person = Attr(pr, "person");
        if (person == "person1" && first_p1 < 0) first_p1 = pr;
        if (person == "person2") last_p2 = pr;
      }
      if (first_p1 >= 0 && last_p2 > first_p1) r.Add(1, HashStr("hit"));
    }
    return r;
  }

  // Q5: how many sold items cost more than 40.
  StatusOr<QueryResult> Q5() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(
        Nodes prices, P("/site/closed_auctions/closed_auction/price"));
    int64_t count = 0;
    for (PreId p : prices) {
      if (Num(Str(p)) >= 40.0) ++count;
    }
    r.Add(count, static_cast<uint64_t>(count));
    return r;
  }

  // Q6: how many items are listed on all continents.
  StatusOr<QueryResult> Q6() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes items, P("/site/regions//item"));
    r.Add(static_cast<int64_t>(items.size()),
          static_cast<uint64_t>(items.size()));
    return r;
  }

  // Q7: how many pieces of prose are in the database.
  StatusOr<QueryResult> Q7() {
    QueryResult r;
    int64_t total = 0;
    for (const char* path :
         {"//description", "//annotation", "//emailaddress"}) {
      PXQ_ASSIGN_OR_RETURN(Nodes n, P(path));
      total += static_cast<int64_t>(n.size());
    }
    r.Add(total, static_cast<uint64_t>(total));
    return r;
  }

  // Q8: for each person, the number of items they bought (hash join on
  // buyer/@person = person/@id).
  StatusOr<QueryResult> Q8() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(
        Nodes buyers, P("/site/closed_auctions/closed_auction/buyer"));
    std::unordered_map<std::string, int64_t> bought;
    for (PreId b : buyers) bought[Attr(b, "person")]++;
    PXQ_ASSIGN_OR_RETURN(Nodes persons, P("/site/people/person"));
    for (PreId p : persons) {
      auto it = bought.find(Attr(p, "id"));
      int64_t n = it == bought.end() ? 0 : it->second;
      PXQ_ASSIGN_OR_RETURN(Nodes name, P("name", {p}));
      r.Add(1, HashStr(name.empty() ? "" : Str(name[0])) ^
                   static_cast<uint64_t>(n));
    }
    return r;
  }

  // Q9: Q8 plus a second join to the item sold (person-auction-item).
  StatusOr<QueryResult> Q9() {
    QueryResult r;
    // item id -> name
    std::unordered_map<std::string, std::string> item_name;
    PXQ_ASSIGN_OR_RETURN(Nodes items, P("/site/regions//item"));
    for (PreId i : items) {
      PXQ_ASSIGN_OR_RETURN(Nodes name, P("name", {i}));
      item_name[Attr(i, "id")] = name.empty() ? "" : Str(name[0]);
    }
    // buyer person -> item names bought
    std::unordered_map<std::string, std::vector<std::string>> bought;
    PXQ_ASSIGN_OR_RETURN(Nodes closed,
                         P("/site/closed_auctions/closed_auction"));
    for (PreId c : closed) {
      PXQ_ASSIGN_OR_RETURN(Nodes buyer, P("buyer", {c}));
      PXQ_ASSIGN_OR_RETURN(Nodes itemref, P("itemref", {c}));
      if (buyer.empty() || itemref.empty()) continue;
      bought[Attr(buyer[0], "person")].push_back(
          item_name[Attr(itemref[0], "item")]);
    }
    PXQ_ASSIGN_OR_RETURN(Nodes persons, P("/site/people/person"));
    for (PreId p : persons) {
      auto it = bought.find(Attr(p, "id"));
      if (it == bought.end()) {
        r.Add(1, 0);
        continue;
      }
      uint64_t h = 0;
      for (const auto& nm : it->second) h ^= HashStr(nm);
      r.Add(1, h);
    }
    return r;
  }

  // Q10: group people by interest category and reconstruct their profile
  // (the expensive construction query).
  StatusOr<QueryResult> Q10() {
    QueryResult r;
    std::unordered_map<std::string, std::vector<std::string>> by_cat;
    PXQ_ASSIGN_OR_RETURN(Nodes persons, P("/site/people/person"));
    for (PreId p : persons) {
      PXQ_ASSIGN_OR_RETURN(Nodes interests, P("profile/interest", {p}));
      if (interests.empty()) continue;
      std::string record;
      for (const char* field :
           {"profile/gender", "profile/age", "profile/education",
            "profile/business", "name", "emailaddress", "homepage",
            "creditcard", "address/city", "address/country"}) {
        PXQ_ASSIGN_OR_RETURN(Nodes f, P(field, {p}));
        if (!f.empty()) record += Str(f[0]);
        record += '|';
      }
      PXQ_ASSIGN_OR_RETURN(Nodes prof, P("profile", {p}));
      if (!prof.empty()) record += Attr(prof[0], "income");
      for (PreId i : interests) {
        by_cat[Attr(i, "category")].push_back(record);
      }
    }
    for (auto& [cat, records] : by_cat) {
      uint64_t h = HashStr(cat);
      for (const auto& rec : records) h ^= HashStr(rec);
      r.Add(static_cast<int64_t>(records.size()), h);
    }
    return r;
  }

  // Q11/Q12: value join person income vs 5000 * auction initial; sort one
  // side once and count by binary search, as an optimizer would.
  StatusOr<QueryResult> ValueJoin(bool rich_only) {
    QueryResult r;
    std::vector<double> initials;
    PXQ_ASSIGN_OR_RETURN(
        Nodes init, P("/site/open_auctions/open_auction/initial"));
    initials.reserve(init.size());
    for (PreId i : init) initials.push_back(5000.0 * Num(Str(i)));
    std::sort(initials.begin(), initials.end());
    PXQ_ASSIGN_OR_RETURN(Nodes profiles,
                         P("/site/people/person/profile"));
    for (PreId p : profiles) {
      std::string income_s = Attr(p, "income");
      if (income_s.empty()) continue;
      double income = Num(income_s);
      if (rich_only && income <= 50000.0) continue;
      auto n = std::upper_bound(initials.begin(), initials.end(), income) -
               initials.begin();
      r.Add(1, static_cast<uint64_t>(n));
    }
    return r;
  }
  StatusOr<QueryResult> Q11() { return ValueJoin(false); }
  StatusOr<QueryResult> Q12() { return ValueJoin(true); }

  // Q13: names + full description reconstruction of australian items.
  StatusOr<QueryResult> Q13() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes items, P("/site/regions/australia/item"));
    for (PreId i : items) {
      PXQ_ASSIGN_OR_RETURN(Nodes desc, P("description", {i}));
      uint64_t h = 0;
      if (!desc.empty()) {
        auto xml = storage::SerializeSubtree(store_, desc[0]);
        PXQ_RETURN_IF_ERROR(xml.status());
        h = HashStr(xml.value());
      }
      r.Add(1, h);
    }
    return r;
  }

  // Q14: full-text scan — items whose description mentions "gold".
  StatusOr<QueryResult> Q14() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes items, P("//item"));
    for (PreId i : items) {
      PXQ_ASSIGN_OR_RETURN(Nodes desc, P("description", {i}));
      if (desc.empty()) continue;
      if (Str(desc[0]).find("gold") == std::string::npos) continue;
      PXQ_ASSIGN_OR_RETURN(Nodes name, P("name", {i}));
      r.Add(1, HashStr(name.empty() ? "" : Str(name[0])));
    }
    return r;
  }

  static constexpr const char* kQ15Path =
      "/site/closed_auctions/closed_auction/annotation/description/"
      "parlist/listitem/parlist/listitem/text/emph/keyword/text()";

  // Q15: a very long path.
  StatusOr<QueryResult> Q15() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes texts, P(kQ15Path));
    for (PreId t : texts) r.Add(1, HashStr(Str(t)));
    return r;
  }

  // Q16: Q15's path as an existence predicate; return the seller.
  StatusOr<QueryResult> Q16() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(
        Nodes auctions,
        P("/site/closed_auctions/closed_auction[annotation/description/"
          "parlist/listitem/parlist/listitem/text/emph/keyword]"));
    for (PreId a : auctions) {
      PXQ_ASSIGN_OR_RETURN(Nodes seller, P("seller", {a}));
      if (!seller.empty()) r.Add(1, HashStr(Attr(seller[0], "person")));
    }
    return r;
  }

  // Q17: people without a homepage (negation).
  StatusOr<QueryResult> Q17() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes persons, P("/site/people/person"));
    for (PreId p : persons) {
      PXQ_ASSIGN_OR_RETURN(Nodes hp, P("homepage", {p}));
      if (!hp.empty()) continue;
      PXQ_ASSIGN_OR_RETURN(Nodes name, P("name", {p}));
      r.Add(1, HashStr(name.empty() ? "" : Str(name[0])));
    }
    return r;
  }

  // Q18: user-defined function: currency-convert all reserves.
  StatusOr<QueryResult> Q18() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(
        Nodes reserves, P("/site/open_auctions/open_auction/reserve"));
    double sum = 0;
    for (PreId p : reserves) sum += Num(Str(p)) * 2.20371;
    r.Add(static_cast<int64_t>(reserves.size()),
          static_cast<uint64_t>(sum));
    return r;
  }

  // Q19: order all items by location (global sort).
  StatusOr<QueryResult> Q19() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes items, P("/site/regions//item"));
    std::vector<std::pair<std::string, std::string>> rows;
    rows.reserve(items.size());
    for (PreId i : items) {
      PXQ_ASSIGN_OR_RETURN(Nodes loc, P("location", {i}));
      PXQ_ASSIGN_OR_RETURN(Nodes name, P("name", {i}));
      rows.emplace_back(loc.empty() ? "" : Str(loc[0]),
                        name.empty() ? "" : Str(name[0]));
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    uint64_t h = 0;
    for (const auto& [loc, name] : rows) {
      h = h * 31 + HashStr(loc) + HashStr(name);
    }
    r.Add(static_cast<int64_t>(rows.size()), h);
    return r;
  }

  // Q20: income bracket aggregation.
  StatusOr<QueryResult> Q20() {
    QueryResult r;
    PXQ_ASSIGN_OR_RETURN(Nodes persons, P("/site/people/person"));
    int64_t high = 0, mid = 0, low = 0, none = 0;
    for (PreId p : persons) {
      PXQ_ASSIGN_OR_RETURN(Nodes prof, P("profile", {p}));
      if (prof.empty()) {
        ++none;
        continue;
      }
      std::string income_s = Attr(prof[0], "income");
      if (income_s.empty()) {
        ++none;
        continue;
      }
      double income = Num(income_s);
      if (income >= 100000.0) ++high;
      else if (income >= 30000.0) ++mid;
      else ++low;
    }
    r.Add(4, static_cast<uint64_t>(high) * 1000003 +
                 static_cast<uint64_t>(mid) * 1009 +
                 static_cast<uint64_t>(low) * 31 +
                 static_cast<uint64_t>(none));
    return r;
  }

  StatusOr<QueryResult> Run(int q) {
    switch (q) {
      case 1: return Q1();
      case 2: return Q2();
      case 3: return Q3();
      case 4: return Q4();
      case 5: return Q5();
      case 6: return Q6();
      case 7: return Q7();
      case 8: return Q8();
      case 9: return Q9();
      case 10: return Q10();
      case 11: return Q11();
      case 12: return Q12();
      case 13: return Q13();
      case 14: return Q14();
      case 15: return Q15();
      case 16: return Q16();
      case 17: return Q17();
      case 18: return Q18();
      case 19: return Q19();
      case 20: return Q20();
      default:
        return Status::InvalidArgument("query number out of range");
    }
  }

 private:
  const Store& store_;
  xpath::PlanCache cache_;
  xpath::Evaluator<Store> ev_;
};

}  // namespace

const char* QueryDescription(int q) {
  static constexpr const char* kDesc[kNumQueries] = {
      "exact match: person0's name",
      "bidder[1]/increase of each open auction",
      "auctions whose first bid doubled (first vs last)",
      "order-sensitive bidder sequence test",
      "count sold items with price >= 40",
      "count items under /site/regions",
      "count prose elements (3 descendant scans)",
      "hash join: items bought per person",
      "3-way join: person -> auction -> item",
      "group persons by interest category (construction)",
      "value join: income vs 5000*initial",
      "Q11 restricted to income > 50000",
      "australian item descriptions (reconstruction)",
      "full-text: descriptions mentioning 'gold'",
      "very long path to nested keywords",
      "long path as predicate; return seller",
      "persons without homepage (negation)",
      "currency conversion over reserves (UDF)",
      "order items by location (sort)",
      "income bracket aggregation",
  };
  return (q >= 1 && q <= kNumQueries) ? kDesc[q - 1] : "?";
}

template <typename Store>
StatusOr<QueryResult> RunQuery(const Store& store, int q) {
  Plans<Store> plans(store);
  return plans.Run(q);
}

template StatusOr<QueryResult> RunQuery<storage::ReadOnlyStore>(
    const storage::ReadOnlyStore&, int);
template StatusOr<QueryResult> RunQuery<storage::PagedStore>(
    const storage::PagedStore&, int);

}  // namespace pxq::xmark
