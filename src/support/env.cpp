#include "support/env.hpp"

#include <cstdlib>

namespace dagpm::support {

std::string getEnvOr(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? std::string(v) : fallback;
}

BenchEnv BenchEnv::fromEnvironment() {
  BenchEnv env;
  if (getEnvOr("DAGPM_QUICK", "") == "1") env.scale = BenchScale::kQuick;
  if (getEnvOr("DAGPM_FULL", "") == "1") env.scale = BenchScale::kFull;
  env.sweep = getEnvOr("DAGPM_SWEEP", "");
  const std::string seeds = getEnvOr("DAGPM_SEEDS", "");
  if (!seeds.empty()) env.seeds = std::max(1, std::atoi(seeds.c_str()));
  return env;
}

std::vector<int> BenchEnv::smallSizes() const {
  switch (scale) {
    case BenchScale::kQuick: return {60, 150};
    case BenchScale::kDefault: return {200, 1000};
    case BenchScale::kFull: return {200, 1000, 2000, 4000, 8000};
  }
  return {};
}

std::vector<int> BenchEnv::midSizes() const {
  switch (scale) {
    case BenchScale::kQuick: return {300};
    case BenchScale::kDefault: return {3000};
    case BenchScale::kFull: return {10000, 15000, 18000};
  }
  return {};
}

std::vector<int> BenchEnv::bigSizes() const {
  switch (scale) {
    case BenchScale::kQuick: return {500};
    case BenchScale::kDefault: return {6000};
    case BenchScale::kFull: return {20000, 25000, 30000};
  }
  return {};
}

}  // namespace dagpm::support
