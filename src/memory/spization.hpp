#pragma once
// Layer-barrier SP-ization traversal (portfolio member of the memDag
// oracle).
//
// memDag [18] SP-izes a general DAG before scheduling it. The simplest
// valid SP-ization inserts a synchronization barrier after every
// topological level: the result is a series composition of parallel layers,
// and the only scheduling freedom left is the task order *within* each
// layer. This heuristic orders each layer by the Liu rule (droppers by
// increasing spike, then risers by decreasing spike-minus-delta), which is
// optimal for the SP-ized relaxation and often good on the original graph.
// The oracle simulates the resulting order on the real model and keeps it
// only if it beats the other portfolio members.

#include <vector>

#include "memory/simulate.hpp"

namespace dagpm::memory {

/// Topological order of all of the block's vertices: levels in sequence,
/// each level ordered by the Liu dropper/riser rule on task footprints.
std::vector<graph::VertexId> layeredSpizationOrder(const BlockCosts& costs);

}  // namespace dagpm::memory
