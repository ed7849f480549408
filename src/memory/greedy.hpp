#pragma once
// Greedy traversal heuristics for general (non-series-parallel) blocks.
//
// Each heuristic produces a topological order of the block; the oracle keeps
// whichever simulates to the lowest peak. The greedy keys exploit that a
// task's step footprint (m_u + outputs + lazy external inputs) and its
// resident delta (outputs kept minus inputs freed) are static, so ready tasks
// can sit in a priority queue with precomputed keys.

#include <vector>

#include "memory/simulate.hpp"

namespace dagpm::memory {

enum class GreedyRule {
  kMinFootprint,  // smallest step spike first, tie: most memory freed
  kMaxFreed,      // most memory freed first, tie: smallest spike
};

/// Topological order of all of the block's vertices following the rule.
std::vector<graph::VertexId> greedyOrder(const BlockCosts& costs,
                                         GreedyRule rule);

}  // namespace dagpm::memory
