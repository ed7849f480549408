#pragma once
// Topological chunking: the trivial acyclic partitioner.
//
// Splitting a single topological order into k contiguous, weight-balanced
// chunks always yields an acyclic quotient (all edges point forward). It is
// the baseline the multilevel partitioner must beat on edge cut --
// paper_figures' `ablation_partitioner` quantifies the gap and its effect
// on DagHetPart's makespan. DagHetMem's streaming blocks are exactly
// chunkings of the memDag traversal, so this also isolates how much of the
// paper's improvement comes from *partition quality* rather than from the
// assignment/merge/swap machinery.

#include "partition/partitioner.hpp"

namespace dagpm::partition {

struct ChunkingConfig {
  std::uint32_t numParts = 2;
  PartitionConfig::BalanceWeight balance =
      PartitionConfig::BalanceWeight::kWork;
};

/// Partitions `g` into at most cfg.numParts contiguous chunks of a
/// topological order, balancing the chosen vertex weight. Both the Kahn
/// order and the depth-first (chain-following) order are chunked; the
/// smaller edge cut wins, Kahn on ties.
PartitionResult chunkTopologically(const graph::Dag& g,
                                   const ChunkingConfig& cfg);

}  // namespace dagpm::partition
