#pragma once
// Step 2 of DagHetPart: BiggestAssign + FitBlock (paper Algorithms 1 and 2).
//
// Blocks from Step 1 are kept in a max-priority queue ordered by their
// memory requirement r_V (computed by the memDag oracle); processors sit in
// a queue sorted by decreasing memory. The largest block is fitted onto the
// largest free processor; blocks that do not fit are split in two by the
// acyclic partitioner (balancing memory footprints) and re-enqueued. Once
// processors run out, remaining blocks are split down to the smallest
// processor's memory without being mapped. The result is a valid *partial*
// assignment: every assigned block fits its processor; unassigned blocks fit
// the smallest memory (unless they are single tasks that fit nowhere, which
// Step 3 will surface as infeasibility).

#include <vector>

#include "memory/oracle.hpp"
#include "partition/partitioner.hpp"
#include "platform/cluster.hpp"

namespace dagpm::scheduler {

struct BlockInfo {
  std::vector<graph::VertexId> vertices;
  double memReq = 0.0;
  platform::ProcessorId proc = platform::kNoProcessor;
};

struct AssignmentConfig {
  std::uint64_t seed = 1;
};

struct AssignmentResult {
  std::vector<BlockInfo> blocks;       // assigned and unassigned blocks
  std::uint32_t splitsPerformed = 0;   // FitBlock partition calls
};

/// Runs BiggestAssign on the Step-1 blocks (given as vertex lists).
AssignmentResult biggestAssign(const graph::Dag& g,
                               const platform::Cluster& cluster,
                               const memory::MemDagOracle& oracle,
                               std::vector<std::vector<graph::VertexId>> blocks,
                               const AssignmentConfig& cfg);

}  // namespace dagpm::scheduler
