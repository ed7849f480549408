#pragma once
// Peak-memory-minimizing traversal of a series-parallel block: schedules the
// SP tree bottom-up, concatenating series children and interleaving parallel
// branches with the Liu merge on simulated branch profiles.

#include <optional>
#include <vector>

#include "memory/simulate.hpp"
#include "memory/sp_tree.hpp"

namespace dagpm::memory {

/// Computes a traversal (local vertex ids) for an SP block.
/// Returns std::nullopt if the block is not two-terminal series-parallel.
std::optional<std::vector<graph::VertexId>> spOptimalOrder(
    const BlockCosts& costs);

}  // namespace dagpm::memory
