#include "partition/chunking.hpp"

#include <algorithm>
#include <cassert>

#include "graph/topology.hpp"

namespace dagpm::partition {

using graph::VertexId;

namespace {

PartitionResult chunkOrder(const graph::Dag& g,
                           const std::vector<VertexId>& order,
                           const std::vector<double>& weights,
                           std::uint32_t numParts) {
  PartitionResult result;
  result.blockOf.assign(g.numVertices(), 0);
  double total = 0.0;
  for (const double w : weights) total += w;
  const double target = total / static_cast<double>(numParts);

  // Greedy filling: close the current chunk once it reaches the target
  // (never exceeding numParts chunks; the last chunk absorbs the rest).
  std::uint32_t chunk = 0;
  double filled = 0.0;
  for (const VertexId v : order) {
    if (filled >= target && chunk + 1 < numParts) {
      ++chunk;
      filled = 0.0;
    }
    result.blockOf[v] = chunk;
    filled += weights[v];
  }
  result.numBlocks = chunk + 1;
  result.edgeCut = edgeCutCost(g, result.blockOf);
  return result;
}

}  // namespace

PartitionResult chunkTopologically(const graph::Dag& g,
                                   const ChunkingConfig& cfg) {
  if (g.numVertices() == 0) return {};
  if (cfg.numParts <= 1 || g.numVertices() == 1) {
    return {std::vector<std::uint32_t>(g.numVertices(), 0), 1, 0.0};
  }
  const std::vector<double> weights = balanceWeights(g, cfg.balance);
  const std::uint32_t parts = std::min(
      cfg.numParts, static_cast<std::uint32_t>(g.numVertices()));

  PartitionResult kahn =
      chunkOrder(g, *graph::topologicalOrder(g), weights, parts);
  PartitionResult dfs =
      chunkOrder(g, graph::dfsTopologicalOrder(g, false), weights, parts);
  PartitionResult& best = dfs.edgeCut < kahn.edgeCut ? dfs : kahn;
  assert(quotientIsAcyclic(g, best.blockOf));
  return std::move(best);
}

}  // namespace dagpm::partition
