#include "xpath/parser.h"

#include "common/strings.h"

namespace pxq::xpath {
namespace {

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  StatusOr<Path> Run() {
    Path path;
    SkipSpace();
    if (Consume("//")) {
      path.absolute = true;
      PXQ_RETURN_IF_ERROR(ParseStepInto(&path, /*descendant=*/true));
    } else if (Consume("/")) {
      path.absolute = true;
      if (AtEnd()) {
        return Status::ParseError(
            StrFormat("path has no steps at offset %zu", pos_));
      }
      PXQ_RETURN_IF_ERROR(ParseStepInto(&path, /*descendant=*/false));
    } else {
      PXQ_RETURN_IF_ERROR(ParseStepInto(&path, /*descendant=*/false));
    }
    for (;;) {
      SkipSpace();
      if (Consume("//")) {
        PXQ_RETURN_IF_ERROR(ParseStepInto(&path, /*descendant=*/true));
      } else if (Consume("/")) {
        PXQ_RETURN_IF_ERROR(ParseStepInto(&path, /*descendant=*/false));
      } else {
        break;
      }
    }
    SkipSpace();
    if (!AtEnd()) {
      return Status::ParseError(
          StrFormat("unexpected '%c' at offset %zu in path", Peek(), pos_));
    }
    return path;
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return AtEnd() ? '\0' : in_[pos_]; }
  char PeekAt(size_t k) const {
    return pos_ + k < in_.size() ? in_[pos_ + k] : '\0';
  }
  bool Consume(std::string_view tok) {
    if (in_.substr(pos_, tok.size()) == tok) {
      pos_ += tok.size();
      return true;
    }
    return false;
  }
  void SkipSpace() {
    while (!AtEnd() && (Peek() == ' ' || Peek() == '\t')) ++pos_;
  }

  StatusOr<std::string> ParseName() {
    SkipSpace();
    if (!IsNameStart(Peek())) {
      return Status::ParseError(
          StrFormat("expected name at offset %zu", pos_));
    }
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    // Qname prefix: a single ':' (never '::', which separates the axis).
    if (Peek() == ':' && PeekAt(1) != ':' && IsNameStart(PeekAt(1))) {
      ++pos_;
      while (!AtEnd() && IsNameChar(Peek())) ++pos_;
    }
    return std::string(in_.substr(start, pos_ - start));
  }

  Status ParseStepInto(Path* path, bool descendant) {
    PXQ_ASSIGN_OR_RETURN(Step step, ParseStep());
    if (descendant) {
      // '//x' => descendant::x ; '//@x' and '//..' keep an explicit
      // descendant-or-self::node() hop.
      if (step.axis == Axis::kChild) {
        step.axis = Axis::kDescendant;
      } else {
        Step hop;
        hop.axis = Axis::kDescendantOrSelf;
        hop.test.kind = NodeTest::Kind::kAnyNode;
        path->steps.push_back(hop);
      }
    }
    path->steps.push_back(std::move(step));
    return Status::OK();
  }

  StatusOr<Step> ParseStep() {
    SkipSpace();
    Step step;
    if (Consume("..")) {
      step.axis = Axis::kParent;
      step.test.kind = NodeTest::Kind::kAnyNode;
      return step;
    }
    if (Peek() == '.' && PeekAt(1) != '.') {
      ++pos_;
      step.axis = Axis::kSelf;
      step.test.kind = NodeTest::Kind::kAnyNode;
      return step;
    }
    if (Consume("@")) {
      step.axis = Axis::kAttribute;
      PXQ_RETURN_IF_ERROR(ParseNodeTest(&step.test));
      PXQ_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
      return step;
    }
    // axis::test ?
    size_t save = pos_;
    if (IsNameStart(Peek())) {
      auto name_or = ParseName();
      if (name_or.ok() && Consume("::")) {
        PXQ_ASSIGN_OR_RETURN(step.axis,
                             AxisFromName(name_or.value(), save));
        PXQ_RETURN_IF_ERROR(ParseNodeTest(&step.test));
        PXQ_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
        return step;
      }
      pos_ = save;
    }
    step.axis = Axis::kChild;
    PXQ_RETURN_IF_ERROR(ParseNodeTest(&step.test));
    PXQ_RETURN_IF_ERROR(ParsePredicates(&step.predicates));
    return step;
  }

  StatusOr<Axis> AxisFromName(const std::string& n, size_t at) {
    if (n == "child") return Axis::kChild;
    if (n == "descendant") return Axis::kDescendant;
    if (n == "descendant-or-self") return Axis::kDescendantOrSelf;
    if (n == "self") return Axis::kSelf;
    if (n == "parent") return Axis::kParent;
    if (n == "ancestor") return Axis::kAncestor;
    if (n == "ancestor-or-self") return Axis::kAncestorOrSelf;
    if (n == "following") return Axis::kFollowing;
    if (n == "preceding") return Axis::kPreceding;
    if (n == "following-sibling") return Axis::kFollowingSibling;
    if (n == "preceding-sibling") return Axis::kPrecedingSibling;
    if (n == "attribute") return Axis::kAttribute;
    return Status::ParseError(
        StrFormat("unknown axis '%s' at offset %zu", n.c_str(), at));
  }

  Status ParseNodeTest(NodeTest* test) {
    SkipSpace();
    if (Consume("*")) {
      test->kind = NodeTest::Kind::kAnyName;
      return Status::OK();
    }
    const size_t at = pos_;
    PXQ_ASSIGN_OR_RETURN(std::string name, ParseName());
    if (Consume("()")) {
      if (name == "text") {
        test->kind = NodeTest::Kind::kText;
      } else if (name == "comment") {
        test->kind = NodeTest::Kind::kComment;
      } else if (name == "node") {
        test->kind = NodeTest::Kind::kAnyNode;
      } else {
        return Status::ParseError(
            StrFormat("unknown node test '%s()' at offset %zu",
                      name.c_str(), at));
      }
      return Status::OK();
    }
    test->kind = NodeTest::Kind::kName;
    test->name = std::move(name);
    return Status::OK();
  }

  Status ParsePredicates(std::vector<Predicate>* preds) {
    for (;;) {
      SkipSpace();
      if (!Consume("[")) return Status::OK();
      PXQ_ASSIGN_OR_RETURN(Predicate p, ParsePredicate());
      SkipSpace();
      if (!Consume("]")) {
        return Status::ParseError(
            StrFormat("expected ']' at offset %zu", pos_));
      }
      preds->push_back(std::move(p));
    }
  }

  StatusOr<Predicate> ParsePredicate() {
    SkipSpace();
    Predicate p;
    // [3]
    if (Peek() >= '0' && Peek() <= '9') {
      size_t start = pos_;
      while (Peek() >= '0' && Peek() <= '9') ++pos_;
      uint64_t v = 0;
      if (!ParseUint(in_.substr(start, pos_ - start), &v) || v == 0) {
        return Status::ParseError(
            StrFormat("bad positional predicate at offset %zu", start));
      }
      p.kind = Predicate::Kind::kPosition;
      p.position = static_cast<int64_t>(v);
      return p;
    }
    // [last()]
    if (Consume("last()")) {
      p.kind = Predicate::Kind::kLast;
      return p;
    }
    // relative path, optionally compared to a literal
    PXQ_RETURN_IF_ERROR(ParseRelSteps(&p.rel));
    SkipSpace();
    CmpOp op;
    if (Consume("!=")) op = CmpOp::kNe;
    else if (Consume("<=")) op = CmpOp::kLe;
    else if (Consume(">=")) op = CmpOp::kGe;
    else if (Consume("<")) op = CmpOp::kLt;
    else if (Consume(">")) op = CmpOp::kGt;
    else if (Consume("=")) op = CmpOp::kEq;
    else {
      p.kind = Predicate::Kind::kExists;
      return p;
    }
    p.kind = Predicate::Kind::kCompare;
    p.op = op;
    SkipSpace();
    if (Peek() == '\'' || Peek() == '"') {
      char q = Peek();
      const size_t open = pos_;
      ++pos_;
      size_t start = pos_;
      while (!AtEnd() && Peek() != q) ++pos_;
      if (AtEnd()) {
        return Status::ParseError(StrFormat(
            "unterminated string literal starting at offset %zu", open));
      }
      p.value = std::string(in_.substr(start, pos_ - start));
      p.param = next_param_++;
      ++pos_;
    } else {
      size_t start = pos_;
      while (!AtEnd() && (Peek() == '.' || Peek() == '-' ||
                          (Peek() >= '0' && Peek() <= '9'))) {
        ++pos_;
      }
      if (pos_ == start) {
        return Status::ParseError(StrFormat(
            "expected literal in predicate at offset %zu", start));
      }
      p.value = std::string(in_.substr(start, pos_ - start));
    }
    return p;
  }

  Status ParseRelSteps(std::vector<Step>* steps) {
    bool descendant = false;
    if (Consume("//")) descendant = true;
    for (;;) {
      PXQ_ASSIGN_OR_RETURN(Step s, ParseStep());
      if (descendant && s.axis == Axis::kChild) s.axis = Axis::kDescendant;
      steps->push_back(std::move(s));
      SkipSpace();
      if (Consume("//")) {
        descendant = true;
      } else if (Consume("/")) {
        descendant = false;
      } else {
        return Status::OK();
      }
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
  int32_t next_param_ = 0;  // slot of the next quoted literal
};

}  // namespace

StatusOr<Path> ParsePath(std::string_view text) {
  return Parser(text).Run();
}

}  // namespace pxq::xpath
