#include "xpath/ast.h"

#include "common/strings.h"

namespace pxq::xpath {
namespace {

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild: return "child";
    case Axis::kDescendant: return "descendant";
    case Axis::kDescendantOrSelf: return "descendant-or-self";
    case Axis::kSelf: return "self";
    case Axis::kParent: return "parent";
    case Axis::kAncestor: return "ancestor";
    case Axis::kAncestorOrSelf: return "ancestor-or-self";
    case Axis::kFollowing: return "following";
    case Axis::kPreceding: return "preceding";
    case Axis::kFollowingSibling: return "following-sibling";
    case Axis::kPrecedingSibling: return "preceding-sibling";
    case Axis::kAttribute: return "attribute";
  }
  return "?";
}

std::string TestName(const NodeTest& t) {
  switch (t.kind) {
    case NodeTest::Kind::kName: return t.name;
    case NodeTest::Kind::kAnyName: return "*";
    case NodeTest::Kind::kText: return "text()";
    case NodeTest::Kind::kComment: return "comment()";
    case NodeTest::Kind::kAnyNode: return "node()";
  }
  return "?";
}

const char* OpName(CmpOp op) {
  switch (op) {
    case CmpOp::kEq: return "=";
    case CmpOp::kNe: return "!=";
    case CmpOp::kLt: return "<";
    case CmpOp::kLe: return "<=";
    case CmpOp::kGt: return ">";
    case CmpOp::kGe: return ">=";
  }
  return "?";
}

}  // namespace

std::string ToString(const Step& step, Literals bound) {
  std::string out = AxisName(step.axis);
  out += "::";
  out += TestName(step.test);
  for (const Predicate& p : step.predicates) {
    out += '[';
    switch (p.kind) {
      case Predicate::Kind::kPosition:
        out += StrFormat("%lld", static_cast<long long>(p.position));
        break;
      case Predicate::Kind::kLast:
        out += "last()";
        break;
      case Predicate::Kind::kExists:
      case Predicate::Kind::kCompare: {
        for (size_t i = 0; i < p.rel.size(); ++i) {
          if (i) out += '/';
          out += ToString(p.rel[i], bound);
        }
        if (p.kind == Predicate::Kind::kCompare) {
          out += OpName(p.op);
          out += '\'';
          out += LiteralOf(p, bound);
          out += '\'';
        }
        break;
      }
    }
    out += ']';
  }
  return out;
}

std::string ToString(const Path& path, Literals bound) {
  std::string out;
  if (path.absolute) out += '/';
  for (size_t i = 0; i < path.steps.size(); ++i) {
    if (i) out += '/';
    out += ToString(path.steps[i], bound);
  }
  return out;
}

}  // namespace pxq::xpath
