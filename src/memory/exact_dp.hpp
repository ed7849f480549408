#pragma once
// Exact minimum-peak traversal for tiny blocks via dynamic programming over
// executed subsets. Exponential; used by the oracle for blocks of at most
// ~12 tasks and by the test suite as the ground-truth optimum against which
// the SP scheduler is validated.

#include <cstdint>
#include <optional>
#include <vector>

#include "memory/simulate.hpp"

namespace dagpm::memory {

inline constexpr std::size_t kExactDpMaxVertices = 20;

struct ExactResult {
  double peak = 0.0;
  std::vector<graph::VertexId> order;
};

/// Exact optimum; std::nullopt if the block has more than kExactDpMaxVertices
/// vertices (state space too large).
std::optional<ExactResult> exactMinPeakOrder(const BlockCosts& costs);

}  // namespace dagpm::memory
