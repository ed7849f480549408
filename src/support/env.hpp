#pragma once
// Environment-driven sizing for the bench suite.
//
// The paper evaluates workflows with up to 30 000 tasks; a full sweep takes
// tens of minutes per figure. The bench binaries therefore default to a
// scaled-down instance set that preserves the small/mid/big size bands and
// can be switched to the paper's exact scale:
//   DAGPM_QUICK=1  : smoke-test sizes (seconds)
//   (default)      : scaled-down sizes (a few minutes for the whole suite)
//   DAGPM_FULL=1   : the paper's sizes, up to 30 000 tasks
//   DAGPM_SWEEP=full|doubling|single : k' sweep strategy override
//   DAGPM_SEEDS=n  : number of instance seeds per configuration

#include <cstdint>
#include <string>
#include <vector>

namespace dagpm::support {

enum class BenchScale { kQuick, kDefault, kFull };

struct BenchEnv {
  BenchScale scale = BenchScale::kDefault;
  std::string sweep;      // empty = bench-specific default
  int seeds = 1;          // instance seeds per configuration

  /// Task-count lists per paper size band, already scaled.
  [[nodiscard]] std::vector<int> smallSizes() const;
  [[nodiscard]] std::vector<int> midSizes() const;
  [[nodiscard]] std::vector<int> bigSizes() const;

  /// Reads DAGPM_* variables once.
  static BenchEnv fromEnvironment();
};

/// Returns env var value or empty string.
std::string getEnvOr(const char* name, const std::string& fallback);

}  // namespace dagpm::support
