// Minimal XML reader matching the subset XmlWriter produces: nested elements
// with attributes, text nodes, comments and processing instructions ignored.
// Enough for the Bambu library round-trip (Eucalyptus writes the
// characterization XML; the tech library reads it back at flow start).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace hermes {

struct XmlNode {
  std::string name;
  std::map<std::string, std::string> attributes;
  std::string text;  ///< concatenated text content (trimmed)
  std::vector<std::unique_ptr<XmlNode>> children;

  /// First child with the given element name; nullptr if absent.
  [[nodiscard]] const XmlNode* child(std::string_view child_name) const;
  /// Attribute value or the fallback.
  [[nodiscard]] std::string attr(std::string_view key,
                                 std::string_view fallback = "") const;
  [[nodiscard]] double attr_double(std::string_view key,
                                   double fallback = 0.0) const;
  [[nodiscard]] std::int64_t attr_int(std::string_view key,
                                      std::int64_t fallback = 0) const;
};

/// Deepest element nesting parse_xml accepts (root = level 1): the reader
/// recurses once per level, so deeper input is a kParseError.
inline constexpr std::size_t kMaxXmlDepth = 256;

/// Parses one document; returns the root element.
Result<std::unique_ptr<XmlNode>> parse_xml(std::string_view document);

}  // namespace hermes
