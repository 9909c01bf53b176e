// Non-validating XML parser producing a SAX-style event stream. This is
// the front half of the document shredder: events are consumed by
// storage::Shredder to build the pre/size/level tables.
//
// Supported: elements, attributes, character data, CDATA sections,
// comments, processing instructions, the five predefined entities plus
// numeric character references, an ignored <?xml?> declaration and an
// ignored (well-bracketed) DOCTYPE. Namespaces are treated lexically
// (qualified names are opaque strings), matching the paper's qn table.
#ifndef PXQ_XML_PARSER_H_
#define PXQ_XML_PARSER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace pxq::xml {

struct Attribute {
  std::string name;
  std::string value;
};

/// Receiver of parse events. Callbacks return Status so the shredder can
/// abort the parse (e.g. on storage errors) without exceptions.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  virtual Status OnStartElement(std::string_view name,
                                const std::vector<Attribute>& attrs) = 0;
  virtual Status OnEndElement(std::string_view name) = 0;
  virtual Status OnText(std::string_view text) = 0;
  virtual Status OnComment(std::string_view text) = 0;
  virtual Status OnPi(std::string_view target, std::string_view data) = 0;
};

struct ParseOptions {
  /// Drop text nodes that consist solely of whitespace (indentation).
  /// Keeps store sizes comparable across pretty-printed inputs.
  bool skip_whitespace_text = true;
};

/// Deepest element nesting Parse accepts (the root element is level 1).
/// The parser recurses once per level, and so do the trees callers
/// build from its events (the XUpdate fragment tree, its destructor),
/// so deeper input is refused before it can exhaust the stack.
/// libxml2's default limit is the same.
inline constexpr int kMaxNestingDepth = 256;

/// Parse a complete document; events are delivered in document order.
/// Returns ParseError with a byte offset on malformed input, including
/// elements nested deeper than kMaxNestingDepth.
Status Parse(std::string_view input, EventHandler* handler,
             const ParseOptions& options = {});

}  // namespace pxq::xml

#endif  // PXQ_XML_PARSER_H_
