#include "common/xml_parse.hpp"

#include <cctype>
#include <cstring>

#include "common/strings.hpp"

namespace hermes {

const XmlNode* XmlNode::child(std::string_view child_name) const {
  for (const auto& node : children) {
    if (node->name == child_name) return node.get();
  }
  return nullptr;
}

std::string XmlNode::attr(std::string_view key, std::string_view fallback) const {
  const auto it = attributes.find(std::string(key));
  return it == attributes.end() ? std::string(fallback) : it->second;
}

double XmlNode::attr_double(std::string_view key, double fallback) const {
  const auto it = attributes.find(std::string(key));
  if (it == attributes.end()) return fallback;
  try {
    return std::stod(it->second);
  } catch (...) {
    return fallback;
  }
}

std::int64_t XmlNode::attr_int(std::string_view key, std::int64_t fallback) const {
  const auto it = attributes.find(std::string(key));
  if (it == attributes.end()) return fallback;
  try {
    return std::stoll(it->second);
  } catch (...) {
    return fallback;
  }
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view document) : text_(document) {}

  Result<std::unique_ptr<XmlNode>> run() {
    skip_misc();
    auto root = parse_element(0);
    if (!root.ok()) return root.status();
    if (!root.value()) {
      return Status::Error(ErrorCode::kParseError, "no root element");
    }
    return root.take();
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool starts(std::string_view prefix) const {
    return text_.substr(pos_, prefix.size()) == prefix;
  }

  /// Skips whitespace, comments and processing instructions, iteratively.
  void skip_misc() {
    skip_ws();
    while (starts("<?") || starts("<!--")) {
      const char* terminator = starts("<?") ? "?>" : "-->";
      const std::size_t end = text_.find(terminator, pos_);
      pos_ = end == std::string_view::npos ? text_.size()
                                           : end + std::strlen(terminator);
      skip_ws();
    }
  }

  static std::string unescape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '&') {
        out.push_back(raw[i]);
        continue;
      }
      const std::string_view rest = raw.substr(i);
      if (rest.rfind("&amp;", 0) == 0) { out.push_back('&'); i += 4; }
      else if (rest.rfind("&lt;", 0) == 0) { out.push_back('<'); i += 3; }
      else if (rest.rfind("&gt;", 0) == 0) { out.push_back('>'); i += 3; }
      else if (rest.rfind("&quot;", 0) == 0) { out.push_back('"'); i += 5; }
      else if (rest.rfind("&apos;", 0) == 0) { out.push_back('\''); i += 5; }
      else out.push_back(raw[i]);
    }
    return out;
  }

  std::string parse_name() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '-' || text_[pos_] == ':' ||
            text_[pos_] == '.')) {
      ++pos_;
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  /// Parses one element starting at '<', inside `depth` open elements.
  /// Returns nullptr at a closing tag.
  Result<std::unique_ptr<XmlNode>> parse_element(std::size_t depth) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Status::Error(ErrorCode::kParseError, "expected '<'");
    }
    if (starts("</")) return std::unique_ptr<XmlNode>();  // caller's close tag
    if (depth == kMaxXmlDepth) {
      return Status::Error(
          ErrorCode::kParseError,
          format("elements nested deeper than %zu levels", kMaxXmlDepth));
    }
    ++pos_;  // consume '<'
    auto node = std::make_unique<XmlNode>();
    node->name = parse_name();
    if (node->name.empty()) {
      return Status::Error(ErrorCode::kParseError, "empty element name");
    }

    // Attributes.
    while (true) {
      skip_ws();
      if (pos_ >= text_.size()) {
        return Status::Error(ErrorCode::kParseError, "unterminated tag");
      }
      if (starts("/>")) {
        pos_ += 2;
        return node;
      }
      if (text_[pos_] == '>') {
        ++pos_;
        break;
      }
      const std::string key = parse_name();
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '=') {
        return Status::Error(ErrorCode::kParseError,
                             format("attribute '%s' missing '='", key.c_str()));
      }
      ++pos_;
      skip_ws();
      if (pos_ >= text_.size() || (text_[pos_] != '"' && text_[pos_] != '\'')) {
        return Status::Error(ErrorCode::kParseError, "attribute value not quoted");
      }
      const char quote = text_[pos_++];
      const std::size_t end = text_.find(quote, pos_);
      if (end == std::string_view::npos) {
        return Status::Error(ErrorCode::kParseError, "unterminated attribute");
      }
      node->attributes[key] = unescape(text_.substr(pos_, end - pos_));
      pos_ = end + 1;
    }

    // Children and text until the matching close tag.
    while (true) {
      const std::size_t text_start = pos_;
      const std::size_t next = text_.find('<', pos_);
      if (next == std::string_view::npos) {
        return Status::Error(ErrorCode::kParseError,
                             format("unclosed element <%s>", node->name.c_str()));
      }
      const std::string_view chunk =
          trim(text_.substr(text_start, next - text_start));
      if (!chunk.empty()) {
        if (!node->text.empty()) node->text.push_back(' ');
        node->text += unescape(chunk);
      }
      pos_ = next;
      if (starts("<!--") || starts("<?")) {
        skip_misc();
        continue;
      }
      if (starts("</")) {
        pos_ += 2;
        const std::string close = parse_name();
        if (close != node->name) {
          return Status::Error(
              ErrorCode::kParseError,
              format("mismatched close tag </%s> for <%s>", close.c_str(),
                     node->name.c_str()));
        }
        skip_ws();
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Status::Error(ErrorCode::kParseError, "malformed close tag");
        }
        ++pos_;
        return node;
      }
      auto child = parse_element(depth + 1);
      if (!child.ok()) return child.status();
      if (child.value()) node->children.push_back(child.take());
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<std::unique_ptr<XmlNode>> parse_xml(std::string_view document) {
  return Parser(document).run();
}

}  // namespace hermes
