#pragma once
// Acyclic DAG partitioner, the library's substitute for dagP [16].
//
// Multilevel recursive bisection:
//   * coarsening contracts only edges (u,v) where v is u's sole out-neighbor
//     or u is v's sole in-neighbor on the current cluster graph -- such
//     contractions provably add no reachability, so the coarse graph stays a
//     DAG with no explicit cycle checks;
//   * the initial bisection picks the best prefix of several topological
//     orders (a prefix is a down-set, hence acyclic by construction);
//   * FM refinement moves only vertices whose move preserves the down-set
//     property of part 0 (a part-0 vertex may leave only if it has no
//     successor in part 0, and symmetrically), so every intermediate
//     partition stays acyclic.
// Recursive bisection of a block always splits it into a down-set and its
// complement within the block's induced subgraph; if the current quotient is
// acyclic, the refined quotient is acyclic too (any new cycle would need a
// path re-entering the split block, which would have been a cycle through
// the block before the split).

#include <cstdint>
#include <vector>

#include "graph/dag.hpp"

namespace dagpm::partition {

struct PartitionConfig {
  std::uint32_t numParts = 2;
  double epsilon = 0.10;   // allowed imbalance over perfectly proportional
  std::uint64_t seed = 1;  // drives shuffled visit orders in coarsening
  enum class BalanceWeight : std::uint8_t {
    kWork,             // balance sum of w_u (makespan-oriented, Step 1)
    kMemoryFootprint,  // balance sum of r_u (memory-oriented, FitBlock)
  };
  BalanceWeight balance = BalanceWeight::kWork;
};

struct PartitionResult {
  std::vector<std::uint32_t> blockOf;  // per vertex, in [0, numBlocks)
  std::uint32_t numBlocks = 0;         // number of non-empty blocks
  double edgeCut = 0.0;                // total cost of inter-block edges
};

/// Partitions `g` into at most cfg.numParts non-empty acyclic blocks whose
/// quotient graph is a DAG. May return fewer blocks than requested when the
/// graph is too small or balance constraints forbid further splits (the
/// paper observes the same with dagP on tiny real-world workflows).
PartitionResult partitionAcyclic(const graph::Dag& g,
                                 const PartitionConfig& cfg);

/// The per-vertex balance weights used by the partitioner.
std::vector<double> balanceWeights(const graph::Dag& g,
                                   PartitionConfig::BalanceWeight kind);

/// Total cost of edges whose endpoints lie in different blocks.
double edgeCutCost(const graph::Dag& g,
                   const std::vector<std::uint32_t>& blockOf);

/// True iff the quotient induced by blockOf is acyclic.
bool quotientIsAcyclic(const graph::Dag& g,
                       const std::vector<std::uint32_t>& blockOf);

}  // namespace dagpm::partition
