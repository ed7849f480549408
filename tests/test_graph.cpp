// Unit tests for the graph core: Dag, topology utilities, subgraph
// extraction, DOT I/O.

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/dag.hpp"
#include "graph/dot_io.hpp"
#include "graph/subgraph.hpp"
#include "graph/topology.hpp"
#include "test_util.hpp"

namespace dagpm::graph {
namespace {

Dag diamond() {
  // a -> b, a -> c, b -> d, c -> d.
  Dag g;
  const VertexId a = g.addVertex(1.0, 2.0, "a");
  const VertexId b = g.addVertex(3.0, 4.0, "b");
  const VertexId c = g.addVertex(5.0, 6.0, "c");
  const VertexId d = g.addVertex(7.0, 8.0, "d");
  g.addEdge(a, b, 1.0);
  g.addEdge(a, c, 2.0);
  g.addEdge(b, d, 3.0);
  g.addEdge(c, d, 4.0);
  return g;
}

TEST(Dag, BasicAccessors) {
  const Dag g = diamond();
  EXPECT_EQ(g.numVertices(), 4u);
  EXPECT_EQ(g.numEdges(), 4u);
  EXPECT_DOUBLE_EQ(g.work(1), 3.0);
  EXPECT_DOUBLE_EQ(g.memory(2), 6.0);
  EXPECT_EQ(g.label(0), "a");
  EXPECT_EQ(g.outDegree(0), 2u);
  EXPECT_EQ(g.inDegree(3), 2u);
  EXPECT_EQ(g.outDegree(3), 0u);
}

TEST(Dag, CostSums) {
  const Dag g = diamond();
  EXPECT_DOUBLE_EQ(g.outCost(0), 3.0);  // 1 + 2
  EXPECT_DOUBLE_EQ(g.inCost(3), 7.0);   // 3 + 4
  EXPECT_DOUBLE_EQ(g.inCost(0), 0.0);
}

TEST(Dag, TaskMemoryRequirementMatchesPaperDefinition) {
  const Dag g = diamond();
  // r_b = c(a,b) + c(b,d) + m_b = 1 + 3 + 4.
  EXPECT_DOUBLE_EQ(g.taskMemoryRequirement(1), 8.0);
  // r_a = outputs only.
  EXPECT_DOUBLE_EQ(g.taskMemoryRequirement(0), 3.0 + 2.0);
}

TEST(Dag, TotalWorkAndMaxRequirement) {
  const Dag g = diamond();
  EXPECT_DOUBLE_EQ(g.totalWork(), 16.0);
  // r_d = 7 (in) + 8 (mem) = 15; r_c = 2+4+6 = 12; r_b = 8; r_a = 5+... = 7.
  EXPECT_DOUBLE_EQ(g.maxTaskMemoryRequirement(), 15.0);
}

TEST(Dag, SourcesAndTargets) {
  const Dag g = diamond();
  EXPECT_EQ(g.sources(), std::vector<VertexId>{0});
  EXPECT_EQ(g.targets(), std::vector<VertexId>{3});
}

TEST(Dag, SetWeightsMutators) {
  Dag g = diamond();
  g.setWork(0, 11.0);
  g.setMemory(0, 12.0);
  g.setEdgeCost(0, 13.0);
  EXPECT_DOUBLE_EQ(g.work(0), 11.0);
  EXPECT_DOUBLE_EQ(g.memory(0), 12.0);
  EXPECT_DOUBLE_EQ(g.edge(0).cost, 13.0);
}

TEST(Dag, RejectsNanWeights) {
  Dag g;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(g.addVertex(bad, 1.0), std::invalid_argument) << bad;
    EXPECT_THROW(g.addVertex(1.0, bad), std::invalid_argument) << bad;
  }
  const VertexId a = g.addVertex(1.0, 1.0);
  const VertexId b = g.addVertex(1.0, 1.0);
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(g.addEdge(a, b, bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(g.numVertices(), 2u);
  EXPECT_EQ(g.numEdges(), 0u);

  // The setters check like the adders and keep the old weight on a throw.
  g.addEdge(a, b, 2.0);
  for (const double bad : {nan, inf}) {
    EXPECT_THROW(g.setWork(a, bad), std::invalid_argument) << bad;
    EXPECT_THROW(g.setMemory(a, bad), std::invalid_argument) << bad;
    EXPECT_THROW(g.setEdgeCost(0, bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(g.work(a), 1.0);
  EXPECT_EQ(g.memory(a), 1.0);
  EXPECT_EQ(g.edge(0).cost, 2.0);
}

TEST(Dag, RejectsNegativeWeights) {
  Dag g;
  EXPECT_THROW(g.addVertex(-1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(g.addVertex(1.0, -1.0), std::invalid_argument);
  const VertexId a = g.addVertex(0.0, 0.0);
  const VertexId b = g.addVertex(0.0, 0.0);
  EXPECT_THROW(g.addEdge(a, b, -1.0), std::invalid_argument);
  EXPECT_EQ(g.addEdge(a, b, 0.0), 0u);
  EXPECT_THROW(g.setWork(a, -1.0), std::invalid_argument);
  EXPECT_THROW(g.setMemory(a, -1.0), std::invalid_argument);
  EXPECT_THROW(g.setEdgeCost(0, -1.0), std::invalid_argument);
  EXPECT_EQ(g.work(a), 0.0);
  EXPECT_EQ(g.memory(a), 0.0);
  EXPECT_EQ(g.edge(0).cost, 0.0);
}

TEST(Dag, RejectsSelfLoops) {
  Dag g;
  const VertexId a = g.addVertex(1.0, 1.0);
  EXPECT_THROW(g.addEdge(a, a, 1.0), std::invalid_argument);
  EXPECT_EQ(g.numEdges(), 0u);
}

TEST(Dag, RejectsOutOfRangeEndpoints) {
  Dag g;
  const VertexId a = g.addVertex(1.0, 1.0);
  EXPECT_THROW(g.addEdge(a, 1, 1.0), std::invalid_argument);
  EXPECT_THROW(g.addEdge(7, a, 1.0), std::invalid_argument);
  EXPECT_EQ(g.numEdges(), 0u);
  EXPECT_TRUE(g.outEdges(a).empty());
}

TEST(Topology, TopologicalOrderValid) {
  const Dag g = diamond();
  const auto order = topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  EXPECT_TRUE(isTopologicalOrder(g, *order));
}

TEST(Topology, DetectsCycle) {
  Dag g;
  const VertexId a = g.addVertex(1, 1);
  const VertexId b = g.addVertex(1, 1);
  const VertexId c = g.addVertex(1, 1);
  g.addEdge(a, b, 1);
  g.addEdge(b, c, 1);
  g.addEdge(c, a, 1);
  EXPECT_FALSE(topologicalOrder(g).has_value());
  EXPECT_FALSE(isAcyclic(g));
}

TEST(Topology, TopLevels) {
  const Dag g = diamond();
  const auto levels = topLevels(g);
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], 1u);
  EXPECT_EQ(levels[3], 2u);
}

TEST(Topology, BottomWorkLevels) {
  const Dag g = diamond();
  const auto bl = bottomWorkLevels(g);
  EXPECT_DOUBLE_EQ(bl[3], 7.0);
  EXPECT_DOUBLE_EQ(bl[1], 10.0);        // 3 + 7
  EXPECT_DOUBLE_EQ(bl[2], 12.0);        // 5 + 7
  EXPECT_DOUBLE_EQ(bl[0], 1.0 + 12.0);  // via c
}

TEST(Topology, DfsOrdersAreTopological) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Dag g = test::randomLayeredDag(6, 5, 3, seed);
    EXPECT_TRUE(isTopologicalOrder(g, dfsTopologicalOrder(g, false)));
    EXPECT_TRUE(isTopologicalOrder(g, dfsTopologicalOrder(g, true)));
  }
}

TEST(Topology, IsTopologicalOrderRejectsBadInputs) {
  const Dag g = diamond();
  EXPECT_FALSE(isTopologicalOrder(g, {0, 1, 2}));        // incomplete
  EXPECT_FALSE(isTopologicalOrder(g, {0, 1, 1, 3}));     // duplicate
  EXPECT_FALSE(isTopologicalOrder(g, {3, 1, 2, 0}));     // violates edges
  EXPECT_TRUE(isTopologicalOrder(g, {0, 2, 1, 3}));
}

TEST(Topology, ReachableFrom) {
  const Dag g = diamond();
  const auto fromB = reachableFrom(g, 1);
  EXPECT_TRUE(fromB[1]);
  EXPECT_TRUE(fromB[3]);
  EXPECT_FALSE(fromB[0]);
  EXPECT_FALSE(fromB[2]);
}

TEST(Subgraph, InducedKeepsInternalEdges) {
  const Dag g = diamond();
  const std::vector<VertexId> pick{0, 1, 3};
  const SubDag sub = inducedSubgraph(g, pick);
  EXPECT_EQ(sub.dag.numVertices(), 3u);
  EXPECT_EQ(sub.dag.numEdges(), 2u);  // a->b, b->d
  EXPECT_EQ(sub.toOriginal, pick);
  EXPECT_DOUBLE_EQ(sub.dag.work(2), 7.0);  // d
}

TEST(Subgraph, BoundaryEdgesCaptured) {
  const Dag g = diamond();
  const std::vector<VertexId> pick{1};  // just b
  const SubDag sub = inducedSubgraph(g, pick);
  ASSERT_EQ(sub.externalInputs.size(), 1u);
  ASSERT_EQ(sub.externalOutputs.size(), 1u);
  EXPECT_DOUBLE_EQ(sub.externalInputs[0].cost, 1.0);   // a->b
  EXPECT_DOUBLE_EQ(sub.externalOutputs[0].cost, 3.0);  // b->d
}

TEST(Subgraph, WholeDagHasNoBoundary) {
  const Dag g = diamond();
  const SubDag sub = test::wholeDagAsSub(g);
  EXPECT_TRUE(sub.externalInputs.empty());
  EXPECT_TRUE(sub.externalOutputs.empty());
  EXPECT_EQ(sub.dag.numEdges(), g.numEdges());
}

TEST(DotIo, RoundTripPreservesStructureAndWeights) {
  const Dag g = diamond();
  const std::string dot = toDot(g, "test");
  const auto parsed = dagFromDot(dot);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->numVertices(), 4u);
  EXPECT_EQ(parsed->numEdges(), 4u);
  // Vertex ids may be renumbered; compare weight multisets.
  std::vector<double> works, origWorks;
  for (VertexId v = 0; v < 4; ++v) {
    works.push_back(parsed->work(v));
    origWorks.push_back(g.work(v));
  }
  std::sort(works.begin(), works.end());
  std::sort(origWorks.begin(), origWorks.end());
  EXPECT_EQ(works, origWorks);
  EXPECT_TRUE(isAcyclic(*parsed));
}

TEST(DotIo, ParsesChainSyntax) {
  const auto g = dagFromDot("digraph G { a -> b -> c [cost=5]; }");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->numVertices(), 3u);
  EXPECT_EQ(g->numEdges(), 2u);
  EXPECT_DOUBLE_EQ(g->edge(0).cost, 5.0);
  EXPECT_DOUBLE_EQ(g->edge(1).cost, 5.0);
}

TEST(DotIo, DefaultsMissingAttributesToOne) {
  const auto g = dagFromDot("digraph { x; y; x -> y; }");
  ASSERT_TRUE(g.has_value());
  EXPECT_DOUBLE_EQ(g->work(0), 1.0);
  EXPECT_DOUBLE_EQ(g->memory(0), 1.0);
  EXPECT_DOUBLE_EQ(g->edge(0).cost, 1.0);
}

TEST(DotIo, ParsesQuotedIdsAndComments) {
  const auto g = dagFromDot(
      "// comment\ndigraph \"my graph\" {\n"
      "  \"task one\" [work=2, memory=3];\n"
      "  /* block */ \"task one\" -> \"task two\" [cost=4];\n}");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->numVertices(), 2u);
  EXPECT_DOUBLE_EQ(g->work(0), 2.0);
  EXPECT_DOUBLE_EQ(g->edge(0).cost, 4.0);
}

TEST(DotIo, RejectsGarbage) {
  EXPECT_FALSE(dagFromDot("not a dot file at all [").has_value());
  EXPECT_FALSE(dagFromDot("digraph { a -> [cost=1]; }").has_value());
}

TEST(DotIo, RejectsDependencyCycles) {
  EXPECT_FALSE(dagFromDot("digraph { a -> b; b -> c; c -> a; }").has_value());
  EXPECT_TRUE(dagFromDot("digraph { a -> b; b -> c; a -> c; }").has_value());
}

TEST(DotIo, RejectsSelfLoops) {
  EXPECT_FALSE(dagFromDot("digraph { a -> a; }").has_value());
  EXPECT_FALSE(dagFromDot("digraph { a -> b -> b; }").has_value());
}

TEST(DotIo, RejectsNonFiniteWeights) {
  for (const char* value : {"nan", "inf", "-inf", "NaN", "infinity"}) {
    const std::string v = value;
    EXPECT_FALSE(dagFromDot("digraph { a [work=" + v + "]; }").has_value())
        << v;
    EXPECT_FALSE(dagFromDot("digraph { a [memory=" + v + "]; }").has_value())
        << v;
    EXPECT_FALSE(dagFromDot("digraph { a -> b [cost=" + v + "]; }")
                     .has_value())
        << v;
  }
}

TEST(DotIo, RejectsNegativeWeights) {
  EXPECT_FALSE(dagFromDot("digraph { a [work=-1]; }").has_value());
  EXPECT_FALSE(dagFromDot("digraph { a [memory=-2.5]; }").has_value());
  EXPECT_FALSE(dagFromDot("digraph { a -> b [cost=-3]; }").has_value());
  EXPECT_TRUE(dagFromDot("digraph { a [work=0, memory=0]; a -> b [cost=0]; }")
                  .has_value());
}

TEST(DotIo, ReadDotFromStream) {
  std::istringstream is("digraph { p -> q; }");
  const auto g = readDot(is);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->numVertices(), 2u);
}

TEST(RandomDag, LayeredGeneratorIsAcyclic) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Dag g = test::randomLayeredDag(8, 6, 3, seed);
    EXPECT_TRUE(isAcyclic(g));
    EXPECT_GT(g.numVertices(), 0u);
  }
}

}  // namespace
}  // namespace dagpm::graph
