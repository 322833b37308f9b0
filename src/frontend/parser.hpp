// Recursive-descent parser for the HLS C subset.
//
// Notes on the accepted subset (see docs/LANGUAGE.md for the full reference):
//  * pointers are not supported; arrays are passed by reference with an
//    explicit size (they become accelerator memory interfaces);
//  * ++/-- are desugared to `x = x +/- 1` and return the *new* value, so they
//    should be used in statement or for-update position only;
//  * all functions called from the top-level kernel must be defined in the
//    same translation unit (they are inlined during IR lowering).
#pragma once

#include "common/status.hpp"
#include "frontend/ast.hpp"

namespace hermes::fe {

/// Deepest nesting fe::parse accepts. Each statement or block, each
/// expression (parenthesised, an index, a ?: branch), each unary operator or
/// cast, and each operator of an assignment, binary or postfix chain is one
/// level deeper than what encloses it. The parser and the later passes
/// recurse once per level, so deeper input is a kParseError.
inline constexpr std::size_t kMaxParseDepth = 256;

/// Parses a full translation unit.
Result<Program> parse(std::string_view source);

}  // namespace hermes::fe
