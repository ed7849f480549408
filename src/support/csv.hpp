#pragma once
// Minimal CSV writer.

#include <string>
#include <vector>

namespace dagpm::support {

/// Escape a CSV field (quotes fields containing commas/quotes/newlines).
std::string csvEscape(const std::string& field);

/// Write rows to a CSV file (overwrites). Returns false on I/O failure.
bool writeCsv(const std::string& path, const std::vector<std::string>& header,
              const std::vector<std::vector<std::string>>& rows);

}  // namespace dagpm::support
