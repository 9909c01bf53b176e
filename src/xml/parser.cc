#include "xml/parser.h"

#include <cstdint>

#include "common/strings.h"

namespace pxq::xml {
namespace {

bool IsNameStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}
bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// Cursor-based recursive-descent parser over the input buffer.
class Parser {
 public:
  Parser(std::string_view in, EventHandler* handler,
         const ParseOptions& options)
      : in_(in), handler_(handler), options_(options) {}

  Status Run() {
    PXQ_RETURN_IF_ERROR(SkipProlog());
    if (AtEnd() || Peek() != '<') {
      return Err("expected root element");
    }
    PXQ_RETURN_IF_ERROR(ParseElement());
    SkipMisc();
    if (!AtEnd()) return Err("content after root element");
    return Status::OK();
  }

 private:
  bool AtEnd() const { return pos_ >= in_.size(); }
  char Peek() const { return in_[pos_]; }
  char PeekAt(size_t off) const {
    return pos_ + off < in_.size() ? in_[pos_ + off] : '\0';
  }
  void Advance(size_t n = 1) { pos_ += n; }
  bool Consume(std::string_view token) {
    if (in_.substr(pos_, token.size()) == token) {
      pos_ += token.size();
      return true;
    }
    return false;
  }
  void SkipSpace() {
    while (!AtEnd() && IsSpace(Peek())) Advance();
  }

  Status Err(const std::string& what) const {
    return Status::ParseError(
        StrFormat("%s at byte %zu", what.c_str(), pos_));
  }

  // <?xml ...?>, whitespace, comments, PIs, DOCTYPE before the root.
  Status SkipProlog() {
    SkipSpace();
    if (Consume("<?xml")) {
      size_t end = in_.find("?>", pos_);
      if (end == std::string_view::npos) return Err("unterminated xml decl");
      pos_ = end + 2;
    }
    SkipMisc();
    if (Consume("<!DOCTYPE")) {
      // Skip to the matching '>' honoring an optional [...] internal subset.
      int bracket = 0;
      while (!AtEnd()) {
        char c = Peek();
        Advance();
        if (c == '[') ++bracket;
        else if (c == ']') --bracket;
        else if (c == '>' && bracket == 0) break;
      }
      SkipMisc();
    }
    return Status::OK();
  }

  // Whitespace / comments / PIs allowed outside the root element.
  void SkipMisc() {
    for (;;) {
      SkipSpace();
      if (in_.substr(pos_, 4) == "<!--") {
        size_t end = in_.find("-->", pos_ + 4);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 3;
      } else if (in_.substr(pos_, 2) == "<?") {
        size_t end = in_.find("?>", pos_ + 2);
        pos_ = (end == std::string_view::npos) ? in_.size() : end + 2;
      } else {
        return;
      }
    }
  }

  Status ParseName(std::string* out) {
    if (AtEnd() || !IsNameStart(Peek())) return Err("expected name");
    size_t start = pos_;
    while (!AtEnd() && IsNameChar(Peek())) Advance();
    out->assign(in_.substr(start, pos_ - start));
    return Status::OK();
  }

  // Decode entities in `raw` into *out.
  Status DecodeText(std::string_view raw, std::string* out) {
    out->clear();
    out->reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out->push_back(raw[i]);
        ++i;
        continue;
      }
      size_t semi = raw.find(';', i + 1);
      if (semi == std::string_view::npos) {
        return Status::ParseError("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "amp") *out += '&';
      else if (ent == "lt") *out += '<';
      else if (ent == "gt") *out += '>';
      else if (ent == "quot") *out += '"';
      else if (ent == "apos") *out += '\'';
      else if (!ent.empty() && ent[0] == '#') {
        uint64_t cp = 0;
        bool ok = false;
        if (ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X')) {
          ok = ent.size() > 2;
          for (size_t k = 2; ok && k < ent.size(); ++k) {
            char c = ent[k];
            uint64_t d;
            if (c >= '0' && c <= '9') d = static_cast<uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f') d = static_cast<uint64_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F') d = static_cast<uint64_t>(c - 'A' + 10);
            else { ok = false; break; }
            cp = cp * 16 + d;
          }
        } else {
          ok = ParseUint(ent.substr(1), &cp);
        }
        if (!ok || cp == 0 || cp > 0x10FFFF) {
          return Status::ParseError("bad character reference &" +
                                    std::string(ent) + ";");
        }
        AppendUtf8(static_cast<uint32_t>(cp), out);
      } else {
        return Status::ParseError("unknown entity &" + std::string(ent) + ";");
      }
      i = semi + 1;
    }
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseAttributes(std::vector<Attribute>* attrs, bool* self_closing) {
    attrs->clear();
    *self_closing = false;
    for (;;) {
      SkipSpace();
      if (AtEnd()) return Err("unterminated start tag");
      if (Peek() == '>') {
        Advance();
        return Status::OK();
      }
      if (Peek() == '/' && PeekAt(1) == '>') {
        Advance(2);
        *self_closing = true;
        return Status::OK();
      }
      Attribute a;
      PXQ_RETURN_IF_ERROR(ParseName(&a.name));
      SkipSpace();
      if (AtEnd() || Peek() != '=') return Err("expected '=' in attribute");
      Advance();
      SkipSpace();
      if (AtEnd() || (Peek() != '"' && Peek() != '\'')) {
        return Err("expected quoted attribute value");
      }
      char quote = Peek();
      Advance();
      size_t start = pos_;
      while (!AtEnd() && Peek() != quote) {
        if (Peek() == '<') return Err("'<' in attribute value");
        Advance();
      }
      if (AtEnd()) return Err("unterminated attribute value");
      PXQ_RETURN_IF_ERROR(
          DecodeText(in_.substr(start, pos_ - start), &a.value));
      Advance();  // closing quote
      for (const Attribute& prev : *attrs) {
        if (prev.name == a.name) {
          return Err("duplicate attribute '" + a.name + "'");
        }
      }
      attrs->push_back(std::move(a));
    }
  }

  Status ParseElement() {
    // Caller guarantees Peek() == '<' and this is a start tag.
    if (depth_ == kMaxNestingDepth) {
      return Err(StrFormat("element nesting deeper than %d levels",
                           kMaxNestingDepth));
    }
    Advance();  // '<'
    std::string name;
    PXQ_RETURN_IF_ERROR(ParseName(&name));
    std::vector<Attribute> attrs;
    bool self_closing = false;
    PXQ_RETURN_IF_ERROR(ParseAttributes(&attrs, &self_closing));
    PXQ_RETURN_IF_ERROR(handler_->OnStartElement(name, attrs));
    if (self_closing) return handler_->OnEndElement(name);
    ++depth_;
    PXQ_RETURN_IF_ERROR(ParseContent(name));
    --depth_;
    return Status::OK();
  }

  // Content of an open element up to and including its end tag.
  Status ParseContent(const std::string& open_name) {
    std::string text_buf;
    for (;;) {
      if (AtEnd()) return Err("unterminated element <" + open_name + ">");
      if (Peek() != '<') {
        size_t start = pos_;
        while (!AtEnd() && Peek() != '<') Advance();
        std::string decoded;
        PXQ_RETURN_IF_ERROR(
            DecodeText(in_.substr(start, pos_ - start), &decoded));
        text_buf += decoded;
        continue;
      }
      // Some kind of markup. First flush pending text unless it is
      // droppable whitespace.
      if (Consume("<![CDATA[")) {
        size_t end = in_.find("]]>", pos_);
        if (end == std::string_view::npos) return Err("unterminated CDATA");
        text_buf.append(in_.substr(pos_, end - pos_));
        pos_ = end + 3;
        continue;
      }
      PXQ_RETURN_IF_ERROR(FlushText(&text_buf));
      if (Consume("<!--")) {
        size_t end = in_.find("-->", pos_);
        if (end == std::string_view::npos) return Err("unterminated comment");
        std::string_view body = in_.substr(pos_, end - pos_);
        pos_ = end + 3;
        PXQ_RETURN_IF_ERROR(handler_->OnComment(body));
        continue;
      }
      if (Consume("<?")) {
        std::string target;
        PXQ_RETURN_IF_ERROR(ParseName(&target));
        SkipSpace();
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) return Err("unterminated PI");
        std::string_view data = in_.substr(pos_, end - pos_);
        pos_ = end + 2;
        PXQ_RETURN_IF_ERROR(handler_->OnPi(target, data));
        continue;
      }
      if (Peek() == '<' && PeekAt(1) == '/') {
        Advance(2);
        std::string name;
        PXQ_RETURN_IF_ERROR(ParseName(&name));
        SkipSpace();
        if (AtEnd() || Peek() != '>') return Err("malformed end tag");
        Advance();
        if (name != open_name) {
          return Err("mismatched end tag </" + name + "> for <" + open_name +
                     ">");
        }
        return handler_->OnEndElement(name);
      }
      PXQ_RETURN_IF_ERROR(ParseElement());
    }
  }

  Status FlushText(std::string* buf) {
    if (buf->empty()) return Status::OK();
    bool all_ws = true;
    for (char c : *buf) {
      if (!IsSpace(c)) {
        all_ws = false;
        break;
      }
    }
    Status s = Status::OK();
    if (!all_ws || !options_.skip_whitespace_text) {
      s = handler_->OnText(*buf);
    }
    buf->clear();
    return s;
  }

  std::string_view in_;
  EventHandler* handler_;
  ParseOptions options_;
  size_t pos_ = 0;
  int depth_ = 0;  // elements currently open (ParseElement frames)
};

}  // namespace

Status Parse(std::string_view input, EventHandler* handler,
             const ParseOptions& options) {
  Parser p(input, handler, options);
  return p.Run();
}

}  // namespace pxq::xml
