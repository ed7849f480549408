// Tests for the acyclic multilevel partitioner (dagP substitute): acyclicity
// invariants, balance, edge-cut accounting, coarsening safety, FM moves.

#include <gtest/gtest.h>

#include "graph/subgraph.hpp"
#include "graph/topology.hpp"
#include "partition/bisect.hpp"
#include "partition/coarsen.hpp"
#include "partition/partitioner.hpp"
#include "test_util.hpp"
#include "workflows/families.hpp"

namespace dagpm::partition {
namespace {

using graph::Dag;
using graph::VertexId;

TEST(BalanceWeights, KindsDiffer) {
  const Dag g = test::randomLayeredDag(4, 4, 2, 1);
  const auto work = balanceWeights(g, PartitionConfig::BalanceWeight::kWork);
  const auto mem =
      balanceWeights(g, PartitionConfig::BalanceWeight::kMemoryFootprint);
  ASSERT_EQ(work.size(), g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    EXPECT_DOUBLE_EQ(work[v], g.work(v));
    EXPECT_DOUBLE_EQ(mem[v], g.taskMemoryRequirement(v));
  }
}

TEST(EdgeCut, CountsOnlyCrossingEdges) {
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  const VertexId c = g.addVertex(1, 1);
  g.addEdge(a, b, 5);
  g.addEdge(b, c, 7);
  EXPECT_DOUBLE_EQ(edgeCutCost(g, {0, 0, 1}), 7.0);
  EXPECT_DOUBLE_EQ(edgeCutCost(g, {0, 0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(edgeCutCost(g, {0, 1, 2}), 12.0);
}

TEST(QuotientAcyclic, DetectsCyclicQuotient) {
  // a -> b -> c with a,c in one block and b in another: quotient 2-cycle.
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  const VertexId c = g.addVertex(1, 1);
  g.addEdge(a, b, 1);
  g.addEdge(b, c, 1);
  EXPECT_FALSE(quotientIsAcyclic(g, {0, 1, 0}));
  EXPECT_TRUE(quotientIsAcyclic(g, {0, 0, 1}));
}

TEST(Coarsen, PreservesAcyclicityAndWeights) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Dag g = test::randomLayeredDag(8, 6, 3, seed);
    std::vector<double> weights(g.numVertices(), 1.0);
    support::Rng rng(seed);
    const detail::Level level =
        detail::coarsenOnce(g, weights, /*maxClusterWeight=*/10.0, rng);
    if (level.fineToCoarse.empty()) continue;  // no contraction found
    EXPECT_TRUE(graph::isAcyclic(level.dag)) << "seed " << seed;
    // Weight conservation.
    double fine = 0.0, coarse = 0.0;
    for (const double w : weights) fine += w;
    for (const double w : level.vertexWeight) coarse += w;
    EXPECT_NEAR(fine, coarse, 1e-9);
    // Mapping covers all vertices and respects the cluster weight cap.
    for (const std::uint32_t c : level.fineToCoarse) {
      EXPECT_LT(c, level.dag.numVertices());
    }
    for (const double w : level.vertexWeight) EXPECT_LE(w, 10.0 + 1e-9);
  }
}

TEST(Coarsen, FullLoopShrinksChains) {
  // A long chain must contract essentially completely.
  Dag g;
  VertexId prev = g.addVertex(1, 1);
  for (int i = 1; i < 200; ++i) {
    const VertexId cur = g.addVertex(1, 1);
    g.addEdge(prev, cur, 1);
    prev = cur;
  }
  std::vector<double> weights(g.numVertices(), 1.0);
  support::Rng rng(7);
  const auto levels = detail::coarsen(g, weights, 16, 50.0, rng);
  ASSERT_FALSE(levels.empty());
  EXPECT_LE(levels.back().dag.numVertices(), 16u);
  EXPECT_TRUE(graph::isAcyclic(levels.back().dag));
}

TEST(Coarsen, SumsParallelEdgesInFineEdgeIdOrder) {
  // a has three parallel out-edges to b, and c (in-degree 1) joins b's
  // cluster whichever of b and c is visited first. The one coarse edge sums
  // 1e16 + 1 + 1 in edge-id order, where each +1 rounds away; descending
  // id order would add the two 1s first and reach 1e16 + 2.
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  const VertexId c = g.addVertex(1, 1);
  g.addEdge(a, b, 1e16);
  g.addEdge(a, b, 1);
  g.addEdge(a, b, 1);
  g.addEdge(b, c, 1);
  std::vector<double> weights(g.numVertices(), 1.0);
  support::Rng rng(3);
  const detail::Level level =
      detail::coarsenOnce(g, weights, /*maxClusterWeight=*/10.0, rng);
  ASSERT_EQ(level.dag.numVertices(), 2u);
  ASSERT_EQ(level.dag.numEdges(), 1u);
  EXPECT_EQ(level.dag.edge(0).cost, 1e16);
}

TEST(Bisect, InitialBisectionIsDownSet) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Dag g = test::randomLayeredDag(6, 5, 3, seed);
    std::vector<double> weights(g.numVertices(), 1.0);
    detail::BisectionTargets targets;
    const double total = static_cast<double>(g.numVertices());
    targets.target0 = total / 2;
    targets.target1 = total / 2;
    const auto side = detail::initialBisection(g, weights, targets);
    // Down-set: no edge from side 1 to side 0.
    for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
      EXPECT_FALSE(side[g.edge(e).src] == 1 && side[g.edge(e).dst] == 0)
          << "seed " << seed;
    }
  }
}

TEST(Bisect, FmRefinePreservesDownSetAndImprovesCut) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Dag g = test::randomLayeredDag(6, 5, 3, seed);
    std::vector<double> weights(g.numVertices(), 1.0);
    detail::BisectionTargets targets;
    const double total = static_cast<double>(g.numVertices());
    targets.target0 = total / 2;
    targets.target1 = total / 2;
    targets.epsilon = 0.3;
    auto side = detail::initialBisection(g, weights, targets);
    std::vector<std::uint32_t> before(side.begin(), side.end());
    const double cutBefore = edgeCutCost(g, before);
    detail::fmRefine(g, weights, targets, side);
    std::vector<std::uint32_t> after(side.begin(), side.end());
    const double cutAfter = edgeCutCost(g, after);
    EXPECT_LE(cutAfter, cutBefore + 1e-9) << "seed " << seed;
    for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
      EXPECT_FALSE(side[g.edge(e).src] == 1 && side[g.edge(e).dst] == 0);
    }
  }
}

/// Main partitioner property: valid labels, acyclic quotient, at most k
/// non-empty blocks, across random DAGs and workflow families.
class PartitionProperty
    : public testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(PartitionProperty, ValidAcyclicBalancedPartitions) {
  const auto [seed, k] = GetParam();
  const Dag g = test::randomLayeredDag(10, 8, 3, seed);
  PartitionConfig cfg;
  cfg.numParts = static_cast<std::uint32_t>(k);
  cfg.seed = seed;
  const PartitionResult result = partitionAcyclic(g, cfg);
  ASSERT_EQ(result.blockOf.size(), g.numVertices());
  EXPECT_GE(result.numBlocks, 1u);
  EXPECT_LE(result.numBlocks, static_cast<std::uint32_t>(k));
  std::vector<int> sizes(result.numBlocks, 0);
  for (const std::uint32_t b : result.blockOf) {
    ASSERT_LT(b, result.numBlocks);
    ++sizes[b];
  }
  for (const int s : sizes) EXPECT_GT(s, 0);  // labels are compact
  EXPECT_TRUE(quotientIsAcyclic(g, result.blockOf));
  EXPECT_DOUBLE_EQ(result.edgeCut, edgeCutCost(g, result.blockOf));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, PartitionProperty,
    testing::Combine(testing::Values<std::uint64_t>(1, 2, 3, 4, 5),
                     testing::Values(2, 3, 8, 16)));

TEST(Partition, WorkflowFamiliesStayAcyclic) {
  for (const auto family : workflows::allFamilies()) {
    workflows::GenConfig gen;
    gen.numTasks = 150;
    const Dag g = workflows::generate(family, gen);
    PartitionConfig cfg;
    cfg.numParts = 12;
    const PartitionResult result = partitionAcyclic(g, cfg);
    EXPECT_TRUE(quotientIsAcyclic(g, result.blockOf))
        << workflows::familyName(family);
    EXPECT_LE(result.numBlocks, 12u);
  }
}

TEST(Partition, SinglePartReturnsEverythingTogether) {
  const Dag g = test::randomLayeredDag(4, 4, 2, 1);
  PartitionConfig cfg;
  cfg.numParts = 1;
  const PartitionResult result = partitionAcyclic(g, cfg);
  EXPECT_EQ(result.numBlocks, 1u);
  EXPECT_DOUBLE_EQ(result.edgeCut, 0.0);
}

TEST(Partition, MorePartsThanVerticesIsCapped) {
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  g.addEdge(a, b, 1);
  PartitionConfig cfg;
  cfg.numParts = 10;
  const PartitionResult result = partitionAcyclic(g, cfg);
  EXPECT_LE(result.numBlocks, 2u);
  EXPECT_GE(result.numBlocks, 1u);
}

TEST(Partition, EmptyAndSingletonGraphs) {
  Dag empty;
  PartitionConfig cfg;
  cfg.numParts = 4;
  EXPECT_EQ(partitionAcyclic(empty, cfg).numBlocks, 0u);
  Dag one;
  one.addVertex(1, 1);
  const PartitionResult result = partitionAcyclic(one, cfg);
  EXPECT_EQ(result.numBlocks, 1u);
}

TEST(Partition, DeterministicForSameSeed) {
  const Dag g = test::randomLayeredDag(8, 6, 3, 5);
  PartitionConfig cfg;
  cfg.numParts = 6;
  cfg.seed = 99;
  const PartitionResult a = partitionAcyclic(g, cfg);
  const PartitionResult b = partitionAcyclic(g, cfg);
  EXPECT_EQ(a.blockOf, b.blockOf);
  EXPECT_EQ(a.numBlocks, b.numBlocks);
}

TEST(Partition, BalanceRoughlyRespected) {
  // A long uniform chain bisects near the middle.
  Dag g;
  VertexId prev = g.addVertex(1, 1);
  for (int i = 1; i < 100; ++i) {
    const VertexId cur = g.addVertex(1, 1);
    g.addEdge(prev, cur, 1);
    prev = cur;
  }
  PartitionConfig cfg;
  cfg.numParts = 2;
  cfg.epsilon = 0.1;
  const PartitionResult result = partitionAcyclic(g, cfg);
  ASSERT_EQ(result.numBlocks, 2u);
  int size0 = 0;
  for (const std::uint32_t b : result.blockOf) size0 += (b == 0);
  EXPECT_GE(size0, 40);
  EXPECT_LE(size0, 60);
}

TEST(Partition, CutsChainOnlyOnceForBisection) {
  // Bisecting a chain should cost exactly one edge.
  Dag g;
  VertexId prev = g.addVertex(1, 1);
  for (int i = 1; i < 64; ++i) {
    const VertexId cur = g.addVertex(1, 1);
    g.addEdge(prev, cur, 1);
    prev = cur;
  }
  PartitionConfig cfg;
  cfg.numParts = 2;
  const PartitionResult result = partitionAcyclic(g, cfg);
  EXPECT_DOUBLE_EQ(result.edgeCut, 1.0);
}

}  // namespace
}  // namespace dagpm::partition
