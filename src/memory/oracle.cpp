#include "memory/oracle.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "graph/topology.hpp"
#include "memory/exact_dp.hpp"
#include "memory/greedy.hpp"
#include "memory/simulate.hpp"
#include "memory/sp_schedule.hpp"
#include "memory/spization.hpp"

namespace dagpm::memory {

using graph::VertexId;

namespace {

// Blocks of at most this many tasks are solved by the exact subset DP.
constexpr std::size_t kExactThreshold = 12;

// The oracle must be a pure function of the vertex *set*: greedy tie-breaks
// and DFS orders depend on local ids, so the member list is canonicalized
// (sorted) before building the induced subgraph. Without this, two callers
// passing the same set in different orders could obtain different peaks and
// disagree about feasibility.
std::vector<VertexId> canonical(std::span<const VertexId> vertices) {
  std::vector<VertexId> sorted(vertices.begin(), vertices.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

std::size_t MemDagOracle::MemberSetHash::operator()(
    const std::vector<VertexId>& sorted) const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ sorted.size();
  for (const VertexId v : sorted) {
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return static_cast<std::size_t>(h);
}

MemDagOracle::MemDagOracle(const graph::Dag& g, OracleOptions options)
    : g_(g), options_(options) {}

TraversalResult MemDagOracle::evaluate(
    std::span<const VertexId> sorted) const {
  ++evals_;
  const graph::SubDag sub = graph::inducedSubgraph(g_, sorted);
  const BlockCosts costs(sub);
  if (costs.size() <= kExactThreshold) {
    if (const auto exact = exactMinPeakOrder(costs)) {
      return TraversalResult{exact->peak, exact->order};
    }
  }

  TraversalResult best;
  best.peak = std::numeric_limits<double>::infinity();
  auto consider = [&](std::vector<VertexId> order) {
    const double peak = simulateBlockPeak(costs, order);
    if (peak < best.peak) {
      best.peak = peak;
      best.order = std::move(order);
    }
  };

  if (auto spOrder = spOptimalOrder(costs)) consider(std::move(*spOrder));
  consider(greedyOrder(costs, GreedyRule::kMinFootprint));
  consider(greedyOrder(costs, GreedyRule::kMaxFreed));
  consider(graph::dfsTopologicalOrder(sub.dag, false));
  consider(graph::dfsTopologicalOrder(sub.dag, true));
  if (options_.useSpization) {
    consider(layeredSpizationOrder(costs));
  }
  return best;
}

TraversalResult MemDagOracle::bestTraversal(
    std::span<const VertexId> blockVertices) const {
  std::vector<VertexId> sorted = canonical(blockVertices);
  TraversalResult result = evaluate(sorted);
  // Local id i is the workflow's vertex sorted[i].
  for (VertexId& v : result.order) v = sorted[v];
  memo_.try_emplace(std::move(sorted), result.peak);
  return result;
}

double MemDagOracle::blockRequirement(
    std::span<const VertexId> blockVertices) const {
  if (blockVertices.empty()) return 0.0;
  if (blockVertices.size() == 1) {
    return g_.taskMemoryRequirement(blockVertices.front());
  }
  std::vector<VertexId> sorted = canonical(blockVertices);
  if (const auto it = memo_.find(sorted); it != memo_.end()) return it->second;
  const double peak = evaluate(sorted).peak;
  memo_.emplace(std::move(sorted), peak);
  return peak;
}

}  // namespace dagpm::memory
