#include "scheduler/assignment.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <queue>

#include "graph/subgraph.hpp"
#include "partition/bisect.hpp"

namespace dagpm::scheduler {

using graph::VertexId;

namespace {

/// Imbalance allowed when FitBlock splits a block.
constexpr double kSplitEpsilon = 0.15;

/// Splits a block in two with the acyclic partitioner (memory-balanced).
/// `fitFraction` sets the share of memory weight aimed at the first part:
/// instead of halving, FitBlock carves off a part sized for the target
/// processor, which avoids shattering the remainder into single-task
/// fragments over repeated splits (library refinement over the paper's
/// plain Partition(V,2)). Returns the parts, or an empty vector
/// when no split is possible.
std::vector<std::vector<VertexId>> splitBlock(
    const graph::Dag& g, const std::vector<VertexId>& vertices,
    const AssignmentConfig& cfg, std::uint32_t salt, double fitFraction) {
  if (vertices.size() < 2) return {};
  const graph::SubDag sub = graph::inducedSubgraph(g, vertices);
  // partitionAcyclic's recursive bisector reads proportions from numParts;
  // emulate an asymmetric split by bisecting manually here.
  const std::vector<double> weights = partition::balanceWeights(
      sub.dag, partition::PartitionConfig::BalanceWeight::kMemoryFootprint);
  double total = 0.0;
  for (const double w : weights) total += w;
  partition::detail::BisectionTargets targets;
  targets.target0 = total * fitFraction;
  targets.target1 = total - targets.target0;
  targets.epsilon = kSplitEpsilon;
  support::Rng rng(cfg.seed ^ (0x9e3779b97f4a7c15ULL * (salt + 1)));
  const std::vector<std::uint8_t> side =
      partition::detail::multilevelBisect(sub.dag, weights, targets, rng);
  std::vector<std::vector<VertexId>> parts(2);
  for (VertexId local = 0; local < sub.dag.numVertices(); ++local) {
    parts[side[local]].push_back(sub.toOriginal[local]);
  }
  if (parts[0].empty() || parts[1].empty()) return {};
  return parts;
}

struct QueueEntry {
  double memReq;
  std::uint32_t blockIndex;
  std::uint32_t generation;  // invalidates entries of re-split blocks
  bool operator<(const QueueEntry& other) const {
    if (memReq != other.memReq) return memReq < other.memReq;
    return blockIndex < other.blockIndex;  // deterministic tie-break
  }
};

}  // namespace

AssignmentResult biggestAssign(const graph::Dag& g,
                               const platform::Cluster& cluster,
                               const memory::MemDagOracle& oracle,
                               std::vector<std::vector<VertexId>> blocks,
                               const AssignmentConfig& cfg) {
  AssignmentResult result;
  std::priority_queue<QueueEntry> queue;  // max-heap on memReq
  std::vector<std::uint32_t> generation;  // parallel to result.blocks

  auto addBlock = [&](std::vector<VertexId> vertices) {
    BlockInfo info;
    info.memReq = oracle.blockRequirement(vertices);
    info.vertices = std::move(vertices);
    result.blocks.push_back(std::move(info));
    generation.push_back(0);
    queue.push(QueueEntry{result.blocks.back().memReq,
                          static_cast<std::uint32_t>(result.blocks.size() - 1),
                          0});
  };
  for (auto& b : blocks) addBlock(std::move(b));

  // FitBlock (Algorithm 2). Returns true iff the block was mapped (doMap)
  // or established to fit `proc` (always leaves the queue then). A block
  // that does not fit is split and its parts re-enqueued; an unsplittable
  // block leaves the queue unassigned (Step 3 will fail if it fits nowhere).
  auto fitBlock = [&](std::uint32_t blockIndex, platform::ProcessorId proc,
                      bool doMap) -> bool {
    BlockInfo& block = result.blocks[blockIndex];
    if (block.memReq <= cluster.memory(proc)) {
      if (doMap) block.proc = proc;
      return true;
    }
    // Aim the first part at the processor's capacity (with a safety margin,
    // since the balance weight sums task footprints while feasibility is
    // the traversal peak).
    const double fraction = std::clamp(
        0.85 * cluster.memory(proc) / block.memReq, 0.25, 0.75);
    auto parts = splitBlock(g, block.vertices, cfg,
                            result.splitsPerformed + blockIndex, fraction);
    if (parts.empty()) return false;  // unsplittable oversized block
    ++result.splitsPerformed;
    // The original block is replaced by its first part; the others append.
    block.vertices = std::move(parts[0]);
    block.memReq = oracle.blockRequirement(block.vertices);
    ++generation[blockIndex];
    queue.push(QueueEntry{block.memReq, blockIndex, generation[blockIndex]});
    for (std::size_t i = 1; i < parts.size(); ++i) {
      addBlock(std::move(parts[i]));
    }
    return false;
  };

  // Algorithm 1, first loop: map the largest block onto the largest free
  // processor while both remain.
  std::deque<platform::ProcessorId> freeProcs;
  for (const platform::ProcessorId p : cluster.byDecreasingMemory()) {
    freeProcs.push_back(p);
  }
  while (!queue.empty() && !freeProcs.empty()) {
    const QueueEntry top = queue.top();
    queue.pop();
    if (generation[top.blockIndex] != top.generation) continue;  // stale
    const platform::ProcessorId pm = freeProcs.front();
    if (fitBlock(top.blockIndex, pm, /*doMap=*/true)) {
      freeProcs.pop_front();  // processor is now busy
    }
  }

  // Algorithm 1, second loop: processors exhausted; shrink remaining blocks
  // to the smallest processor's memory without mapping them.
  if (!queue.empty()) {
    platform::ProcessorId pMin = 0;
    for (platform::ProcessorId p = 1; p < cluster.numProcessors(); ++p) {
      if (cluster.memory(p) < cluster.memory(pMin)) pMin = p;
    }
    while (!queue.empty()) {
      const QueueEntry top = queue.top();
      queue.pop();
      if (generation[top.blockIndex] != top.generation) continue;  // stale
      fitBlock(top.blockIndex, pMin, /*doMap=*/false);
    }
  }
  return result;
}

}  // namespace dagpm::scheduler
