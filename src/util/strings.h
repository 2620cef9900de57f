// String helpers shared by the trace parser and report code.
#pragma once

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace rtmp::util {

/// ASCII whitespace: exactly the bytes std::isspace accepts in the "C"
/// locale (space, \t, \n, \v, \f and \r), with no locale lookup.
[[nodiscard]] constexpr bool IsAsciiSpace(char c) noexcept {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Removes leading/trailing ASCII whitespace.
[[nodiscard]] std::string_view Trim(std::string_view text) noexcept;

/// Replaces `tokens` with the pieces of `text` between runs of ASCII
/// whitespace; no empty tokens are produced. The views point into `text`,
/// and reusing one `tokens` buffer across calls allocates nothing once it
/// has grown.
void SplitWhitespace(std::string_view text,
                     std::vector<std::string_view>& tokens);

/// Splits on a single separator character; empty fields are kept.
[[nodiscard]] std::vector<std::string> Split(std::string_view text, char sep);

/// ASCII lower-casing.
[[nodiscard]] std::string ToLower(std::string_view text);

/// True if `text` begins with `prefix`.
[[nodiscard]] bool StartsWith(std::string_view text,
                              std::string_view prefix) noexcept;

/// Single-allocation concatenation. Preferred over chained operator+ for
/// generated names ("v" + std::to_string(i)): one allocation instead of
/// one per +, and immune to GCC 12's -Wrestrict false positive on
/// char* + std::string&& under -O3 (PR 105329).
[[nodiscard]] std::string Concat(std::initializer_list<std::string_view> parts);

}  // namespace rtmp::util
