#include "partition/coarsen.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace dagpm::partition::detail {

using graph::EdgeId;
using graph::VertexId;

Level coarsenOnce(const graph::Dag& dag,
                  const std::vector<double>& vertexWeight,
                  double maxClusterWeight, support::Rng& rng) {
  const std::size_t n = dag.numVertices();
  // Union-find over this round's clusters.
  std::vector<VertexId> parent(n);
  for (VertexId v = 0; v < n; ++v) parent[v] = v;
  std::vector<double> clusterWeight(vertexWeight);
  std::vector<bool> absorbed(n, false);  // vertex already merged away
  std::vector<bool> dirty(n, false);     // cluster root that absorbed others

  auto find = [&parent](VertexId v) {
    while (parent[v] != v) {
      parent[v] = parent[parent[v]];
      v = parent[v];
    }
    return v;
  };

  std::vector<VertexId> visitOrder(n);
  for (VertexId v = 0; v < n; ++v) visitOrder[v] = v;
  rng.shuffle(visitOrder);

  std::size_t merges = 0;
  for (const VertexId v : visitOrder) {
    // The absorbed endpoint must be a fresh singleton: only then do its
    // original edges coincide with its cluster-graph edges, making the
    // unique-neighbor condition (and thus the no-new-reachability safety
    // argument) valid. The absorbing cluster may already be dirty.
    if (absorbed[v] || dirty[v]) continue;
    // Candidate absorbers: v's unique out-neighbor (if out-degree 1) and
    // v's unique in-neighbor (if in-degree 1). The neighbor may have been
    // merged this round; the contraction then targets the neighbor's
    // current cluster, which is still v's unique neighbor.
    VertexId bestTarget = graph::kInvalidVertex;
    double bestEdgeWeight = -1.0;
    if (dag.outDegree(v) == 1) {
      const graph::Edge& e = dag.edge(dag.outEdges(v)[0]);
      const VertexId target = find(e.dst);
      if (target != find(v) &&
          clusterWeight[target] + clusterWeight[find(v)] <=
              maxClusterWeight) {
        bestTarget = target;
        bestEdgeWeight = e.cost;
      }
    }
    if (dag.inDegree(v) == 1) {
      const graph::Edge& e = dag.edge(dag.inEdges(v)[0]);
      const VertexId target = find(e.src);
      if (target != find(v) && e.cost > bestEdgeWeight &&
          clusterWeight[target] + clusterWeight[find(v)] <=
              maxClusterWeight) {
        bestTarget = target;
        bestEdgeWeight = e.cost;
      }
    }
    if (bestTarget == graph::kInvalidVertex) continue;
    parent[v] = bestTarget;
    clusterWeight[bestTarget] += clusterWeight[v];
    absorbed[v] = true;
    dirty[bestTarget] = true;
    ++merges;
  }

  Level level;
  if (merges == 0) return level;  // empty fineToCoarse signals "no progress"

  // Renumber clusters densely and build the coarse graph.
  std::vector<std::uint32_t> coarseId(n, 0xffffffffu);
  std::uint32_t numCoarse = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (find(v) == v) coarseId[v] = numCoarse++;
  }
  level.fineToCoarse.resize(n);
  for (VertexId v = 0; v < n; ++v) level.fineToCoarse[v] = coarseId[find(v)];

  level.vertexWeight.assign(numCoarse, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    level.vertexWeight[level.fineToCoarse[v]] += vertexWeight[v];
  }
  for (std::uint32_t c = 0; c < numCoarse; ++c) {
    level.dag.addVertex(0.0, 0.0);
  }
  // Sum parallel edges between cluster pairs: sort the crossing fine edges
  // by (cluster pair, edge id), add each pair's costs in ascending edge id,
  // and emit one coarse edge per pair in sorted (src, dst) order. Coarse
  // edge ids and costs feed every RNG-coupled decision downstream in
  // bisect/FM, so both orders must be identical across standard library
  // implementations for partitions to reproduce.
  std::vector<std::pair<std::uint64_t, EdgeId>> crossing;
  crossing.reserve(dag.numEdges());
  for (EdgeId e = 0; e < dag.numEdges(); ++e) {
    const graph::Edge& edge = dag.edge(e);
    const std::uint32_t cu = level.fineToCoarse[edge.src];
    const std::uint32_t cv = level.fineToCoarse[edge.dst];
    if (cu == cv) continue;
    crossing.emplace_back((static_cast<std::uint64_t>(cu) << 32) | cv, e);
  }
  std::sort(crossing.begin(), crossing.end());
  for (std::size_t i = 0; i < crossing.size();) {
    const std::uint64_t key = crossing[i].first;
    double cost = 0.0;
    for (; i < crossing.size() && crossing[i].first == key; ++i) {
      cost += dag.edge(crossing[i].second).cost;
    }
    level.dag.addEdge(static_cast<VertexId>(key >> 32),
                      static_cast<VertexId>(key & 0xffffffffu), cost);
  }
  return level;
}

std::vector<Level> coarsen(const graph::Dag& dag,
                           const std::vector<double>& vertexWeight,
                           std::size_t targetSize, double maxClusterWeight,
                           support::Rng& rng) {
  std::vector<Level> levels;
  const graph::Dag* current = &dag;
  const std::vector<double>* currentWeight = &vertexWeight;
  while (current->numVertices() > targetSize) {
    Level next = coarsenOnce(*current, *currentWeight, maxClusterWeight, rng);
    if (next.fineToCoarse.empty()) break;  // no contraction possible
    const double shrink =
        1.0 - static_cast<double>(next.dag.numVertices()) /
                  static_cast<double>(current->numVertices());
    levels.push_back(std::move(next));
    current = &levels.back().dag;
    currentWeight = &levels.back().vertexWeight;
    if (shrink < 0.03) break;  // diminishing returns
  }
  return levels;
}

}  // namespace dagpm::partition::detail
