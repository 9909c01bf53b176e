// XPath subset AST. Axes follow XPath 1.0; the subset covers what the
// XMark queries and XUpdate select expressions need (see parser.h).
#ifndef PXQ_XPATH_AST_H_
#define PXQ_XPATH_AST_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pxq::xpath {

enum class Axis : uint8_t {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowing,
  kPreceding,
  kFollowingSibling,
  kPrecedingSibling,
  kAttribute,
};

/// Node test within a step.
struct NodeTest {
  enum class Kind : uint8_t {
    kName,     // element (or attribute) with this qname
    kAnyName,  // *
    kText,     // text()
    kComment,  // comment()
    kAnyNode,  // node()
  };
  Kind kind = Kind::kAnyName;
  std::string name;  // kName only; resolved against the store's qn pool
};

struct Path;  // forward: predicates hold relative paths

/// Comparison operator in value predicates.
enum class CmpOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

struct Predicate {
  enum class Kind : uint8_t {
    kPosition,  // [3]
    kLast,      // [last()]
    kExists,    // [path]           — true if the relative path is non-empty
    kCompare,   // [path op value]  — numeric if both sides parse as numbers
  };
  Kind kind = Kind::kPosition;
  int64_t position = 0;             // kPosition (1-based)
  std::vector<struct Step> rel;     // kExists / kCompare: relative steps
  CmpOp op = CmpOp::kEq;            // kCompare
  std::string value;                // kCompare literal
  /// kCompare with a quoted literal: its parameter slot, the literal's
  /// index among the text's quoted literals in textual order (-1: an
  /// unquoted numeric literal, which is part of the query's shape).
  int32_t param = -1;
};

struct Step {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<Predicate> predicates;
};

/// A location path. Absolute paths start at the document root element.
struct Path {
  bool absolute = false;
  std::vector<Step> steps;
};

/// The literals bound to a query shape's parameter slots for one
/// execution, in slot order. Empty: every predicate tests its own
/// `value`, the literal of the text it was parsed from.
using Literals = std::span<const std::string>;

/// The literal a compare predicate tests against under `bound`.
inline const std::string& LiteralOf(const Predicate& p, Literals bound) {
  return p.param >= 0 && !bound.empty()
             ? bound[static_cast<size_t>(p.param)]
             : p.value;
}

/// Render back to XPath syntax (diagnostics, test output), with the
/// `bound` literals in the parameter slots.
std::string ToString(const Path& path, Literals bound = {});
std::string ToString(const Step& step, Literals bound = {});

}  // namespace pxq::xpath

#endif  // PXQ_XPATH_AST_H_
