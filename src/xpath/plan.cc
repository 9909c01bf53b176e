#include "xpath/plan.h"

#include "common/strings.h"

namespace pxq::xpath {

const char* OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kRootSeed: return "RootSeed";
    case OpKind::kChainProbe: return "ChainProbe";
    case OpKind::kQnamePostings: return "QnamePostings";
    case OpKind::kChildStep: return "ChildStep";
    case OpKind::kDescendantStaircase: return "DescendantStaircase";
    case OpKind::kAxisScan: return "AxisScan";
    case OpKind::kValueProbeGate: return "ValueProbeGate";
    case OpKind::kPositionFilter: return "PositionFilter";
    case OpKind::kExistsFilter: return "ExistsFilter";
    case OpKind::kFusedProbe: return "FusedProbe";
  }
  return "?";
}

std::string PredicateText(const Predicate& p, Literals bound) {
  switch (p.kind) {
    case Predicate::Kind::kPosition:
      return StrFormat("[%lld]", static_cast<long long>(p.position));
    case Predicate::Kind::kLast:
      return "[last()]";
    case Predicate::Kind::kExists:
    case Predicate::Kind::kCompare: {
      std::string s = "[";
      for (size_t i = 0; i < p.rel.size(); ++i) {
        if (i > 0) s += "/";
        s += ToString(p.rel[i], bound);
      }
      if (p.kind == Predicate::Kind::kCompare) {
        s += " op '" + LiteralOf(p, bound) + "'";
      }
      return s + "]";
    }
  }
  return "[?]";
}

std::string Plan::DescribeOp(size_t i, Literals bound) const {
  if (i >= ops.size()) return "?";
  const PlanOp& op = ops[i];
  std::string out = OpKindName(op.kind);
  switch (op.kind) {
    case OpKind::kChainProbe: {
      out += " /";
      for (size_t s = 0; s < op.consumed; ++s) {
        if (s > 0) out += "/";
        out += path.steps[s].test.name;
      }
      out += StrFormat(" (%zu steps, %zu probes)", op.consumed,
                       op.probes.size());
      if (op.missing_name) out += " [name never interned]";
      break;
    }
    case OpKind::kFusedProbe: {
      out += " /";
      for (size_t s = 0; s < op.consumed; ++s) {
        if (s > 0) out += "/";
        out += path.steps[s].test.name;
      }
      out += PredicateText(path.steps[static_cast<size_t>(op.step)]
                               .predicates[static_cast<size_t>(op.pred)],
                           bound);
      out += " (value-first)";
      break;
    }
    case OpKind::kRootSeed:
      if (op.step >= 0) {
        out += ' ';
        out += ToString(path.steps[static_cast<size_t>(op.step)], bound);
      }
      break;
    case OpKind::kQnamePostings:
    case OpKind::kChildStep:
    case OpKind::kDescendantStaircase:
    case OpKind::kAxisScan:
      out += ' ';
      out += ToString(path.steps[static_cast<size_t>(op.step)], bound);
      if (op.from_root) out += " (from root)";
      break;
    case OpKind::kPositionFilter:
      if (op.per_origin) {
        out += ' ';
        out += ToString(path.steps[static_cast<size_t>(op.step)], bound);
        out += " (per-origin)";
      } else {
        out += ' ';
        out += PredicateText(path.steps[static_cast<size_t>(op.step)]
                                 .predicates[static_cast<size_t>(op.pred)],
                             bound);
      }
      break;
    case OpKind::kValueProbeGate:
    case OpKind::kExistsFilter:
      out += ' ';
      out += PredicateText(path.steps[static_cast<size_t>(op.step)]
                               .predicates[static_cast<size_t>(op.pred)],
                           bound);
      break;
  }
  return out;
}

std::string Plan::Describe(Literals bound) const {
  std::string out;
  if (!invalid_reason.empty()) {
    return "invalid plan: " + invalid_reason + "\n";
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    out += StrFormat("%2zu. ", i + 1) + DescribeOp(i, bound) + "\n";
  }
  if (trailing_attr) {
    out += "    (trailing " + ToString(*trailing_attr, bound) + ")\n";
  }
  return out;
}

}  // namespace pxq::xpath
