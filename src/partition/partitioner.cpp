#include "partition/partitioner.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/subgraph.hpp"
#include "obs/obs.hpp"
#include "partition/bisect.hpp"
#include "quotient/quotient.hpp"
#include "support/rng.hpp"

namespace dagpm::partition {

using graph::VertexId;

std::vector<double> balanceWeights(const graph::Dag& g,
                                   PartitionConfig::BalanceWeight kind) {
  std::vector<double> w(g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    w[v] = kind == PartitionConfig::BalanceWeight::kWork
               ? g.work(v)
               : g.taskMemoryRequirement(v);
  }
  return w;
}

double edgeCutCost(const graph::Dag& g,
                   const std::vector<std::uint32_t>& blockOf) {
  double cut = 0.0;
  for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    if (blockOf[edge.src] != blockOf[edge.dst]) cut += edge.cost;
  }
  return cut;
}

bool quotientIsAcyclic(const graph::Dag& g,
                       const std::vector<std::uint32_t>& blockOf) {
  std::uint32_t numBlocks = 0;
  for (const std::uint32_t b : blockOf) numBlocks = std::max(numBlocks, b + 1);
  return quotient::QuotientGraph(g, blockOf, numBlocks).isAcyclic();
}

namespace {

/// Recursive bisection over vertex index sets of the original graph.
class RecursiveBisector {
 public:
  RecursiveBisector(const graph::Dag& g, const std::vector<double>& weights,
                    const PartitionConfig& cfg)
      : g_(g), weights_(weights), cfg_(cfg), rng_(cfg.seed) {
    blockOf_.assign(g.numVertices(), 0);
  }

  std::uint32_t run() {
    std::vector<VertexId> all(g_.numVertices());
    std::iota(all.begin(), all.end(), 0);
    nextBlock_ = 0;
    split(std::move(all), cfg_.numParts);
    return nextBlock_;
  }

  [[nodiscard]] std::vector<std::uint32_t> takeLabels() {
    return std::move(blockOf_);
  }

 private:
  void assignBlock(const std::vector<VertexId>& vertices) {
    for (const VertexId v : vertices) blockOf_[v] = nextBlock_;
    ++nextBlock_;
  }

  void split(std::vector<VertexId> vertices, std::uint32_t parts) {
    if (parts <= 1 || vertices.size() <= 1) {
      if (!vertices.empty()) assignBlock(vertices);
      return;
    }
    const std::uint32_t partsLow = parts / 2;  // receives the down-set side
    const std::uint32_t partsHigh = parts - partsLow;

    graph::SubDag sub = graph::inducedSubgraph(g_, vertices);
    std::vector<double> subWeights(vertices.size());
    double total = 0.0;
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      subWeights[i] = weights_[vertices[i]];
      total += subWeights[i];
    }
    detail::BisectionTargets targets;
    targets.target0 = total * static_cast<double>(partsLow) /
                      static_cast<double>(parts);
    targets.target1 = total - targets.target0;
    targets.epsilon = cfg_.epsilon;

    const std::vector<std::uint8_t> side =
        detail::multilevelBisect(sub.dag, subWeights, targets, rng_);

    std::vector<VertexId> low, high;
    low.reserve(vertices.size());
    high.reserve(vertices.size());
    for (std::size_t i = 0; i < vertices.size(); ++i) {
      (side[i] == 0 ? low : high).push_back(vertices[i]);
    }
    if (low.empty() || high.empty()) {
      // Bisection refused to split (degenerate weights); stop subdividing.
      assignBlock(vertices);
      return;
    }
    split(std::move(low), partsLow);
    split(std::move(high), partsHigh);
  }

  const graph::Dag& g_;
  const std::vector<double>& weights_;
  const PartitionConfig& cfg_;
  support::Rng rng_;
  std::vector<std::uint32_t> blockOf_;
  std::uint32_t nextBlock_ = 0;
};

}  // namespace

PartitionResult partitionAcyclic(const graph::Dag& g,
                                 const PartitionConfig& cfg) {
  PartitionResult result;
  if (g.numVertices() == 0) return result;
  if (cfg.numParts <= 1 || g.numVertices() == 1) {
    result.blockOf.assign(g.numVertices(), 0);
    result.numBlocks = 1;
    result.edgeCut = 0.0;
    return result;
  }
  const std::vector<double> weights = balanceWeights(g, cfg.balance);
  const obs::Span span("partition.acyclic",
                       "k=" + std::to_string(cfg.numParts));
  RecursiveBisector bisector(g, weights, cfg);
  result.numBlocks = bisector.run();
  result.blockOf = bisector.takeLabels();
  result.edgeCut = edgeCutCost(g, result.blockOf);
  assert(quotientIsAcyclic(g, result.blockOf));
  return result;
}

}  // namespace dagpm::partition
