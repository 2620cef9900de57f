#include "rtmlint/rules.h"

#include <stdexcept>

#include "util/strings.h"

namespace rtmp::rtmlint {

const char* ToString(Severity severity) noexcept {
  return severity == Severity::kError ? "error" : "warning";
}

Severity ParseSeverity(std::string_view text) {
  if (text == "error") return Severity::kError;
  if (text == "warning") return Severity::kWarning;
  throw std::invalid_argument("unknown severity '" + std::string(text) +
                              "'");
}

const char* ToString(Finding::Status status) noexcept {
  switch (status) {
    case Finding::Status::kSuppressed:
      return "suppressed";
    case Finding::Status::kBaselined:
      return "baselined";
    case Finding::Status::kNew:
      break;
  }
  return "new";
}

SourceFile SourceFile::FromString(std::string path,
                                  std::string_view content) {
  SourceFile file;
  file.is_header = path.size() >= 2 &&
                   path.compare(path.size() - 2, 2, ".h") == 0;
  file.path = std::move(path);
  file.lines = util::Split(std::string(content), '\n');
  file.lex = Lex(content);
  file.suppressions = ExtractSuppressions(file.lex.comments);
  return file;
}

std::string SourceFile::LineText(int line) const {
  if (line < 1 || static_cast<std::size_t>(line) > lines.size()) return "";
  return std::string(
      util::Trim(lines[static_cast<std::size_t>(line) - 1]));
}

}  // namespace rtmp::rtmlint
