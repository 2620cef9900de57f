#include "util/strings.h"

#include <cctype>

namespace rtmp::util {

std::string_view Trim(std::string_view text) noexcept {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && IsAsciiSpace(text[begin])) ++begin;
  while (end > begin && IsAsciiSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

void SplitWhitespace(std::string_view text,
                     std::vector<std::string_view>& tokens) {
  tokens.clear();
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && IsAsciiSpace(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !IsAsciiSpace(text[i])) ++i;
    if (i > start) tokens.push_back(text.substr(start, i - start));
  }
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) noexcept {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string Concat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (const std::string_view part : parts) out.append(part);
  return out;
}

}  // namespace rtmp::util
