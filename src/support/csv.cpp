#include "support/csv.hpp"

#include <fstream>

namespace dagpm::support {

std::string csvEscape(const std::string& field) {
  const bool needsQuoting =
      field.find_first_of(",\"\n") != std::string::npos;
  if (!needsQuoting) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

bool writeCsv(const std::string& path, const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows) {
  std::ofstream os(path);
  if (!os) return false;
  auto emit = [&os](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << ',';
      os << csvEscape(row[i]);
    }
    os << '\n';
  };
  emit(header);
  for (const auto& row : rows) emit(row);
  // Close before checking: buffered writes can fail at flush time (e.g. a
  // full disk) and must not be reported as success.
  os.close();
  return !os.fail();
}

}  // namespace dagpm::support
