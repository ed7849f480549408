#pragma once
// Exact minimum-peak traversal for tiny blocks via dynamic programming over
// executed subsets. Exponential; used by the oracle for blocks of at most
// ~12 tasks and by the test suite as the ground-truth optimum against which
// the SP scheduler is validated.
//
// Cost: O(2^n + reachable ideals x n) time and two arrays of 2^n doubles
// (the resident and the memo, both indexed by the executed-set bitmask).
// Every point below keeps the peak and order of the plain subset DP (hash
// memo, resident summed per state, every ready task tried) bit for bit:
// - best(S), the minimum peak to finish from executed set S, lives in a
//   flat memo; NaN marks "not computed" (0 is a real peak: a block of
//   zero-cost tasks has peak 0, and no peak is NaN).
// - resident(S) = resident(S - h) + delta[h], h the highest vertex of S:
//   the left-to-right sum of S's deltas in ascending vertex order, hence
//   the same bits as adding them up one by one.
// - The unexecuted tasks are walked with a bitmask and count-trailing-
//   zeros, in ascending vertex order, so ties fall to the lowest vertex.
// - Incumbent cut: v is skipped when resident(S) + footprint[v] is already
//   >= the best peak found from S. Its candidate max(step, future) >= step
//   could not lower the min, so every computed best(S) is exact.
// - The order is rebuilt from the memo: at each state the first ascending
//   v whose max(step, best(S + v)) is within 1e-9 of best(S), computing
//   any state the cut skipped.
// tests/test_memory.cpp (ExactDp.MatchesHashMapReferenceBitForBit) checks
// peak bits and orders against an in-test copy of the plain DP.

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
