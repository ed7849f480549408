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

enum class ChunkOrder {
  kKahn,      // plain Kahn topological order
  kDfs,       // depth-first flavoured order (follows chains)
  kBestOfBoth // evaluate both, keep the smaller edge cut
};

struct ChunkingConfig {
  std::uint32_t numParts = 2;
  ChunkOrder order = ChunkOrder::kBestOfBoth;
  PartitionConfig::BalanceWeight balance =
      PartitionConfig::BalanceWeight::kWork;
};

/// Partitions `g` into at most cfg.numParts contiguous chunks of a
/// topological order, balancing the chosen vertex weight.
PartitionResult chunkTopologically(const graph::Dag& g,
                                   const ChunkingConfig& cfg);

}  // namespace dagpm::partition
