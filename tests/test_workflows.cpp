// Tests for the workflow generators: family topology signatures, weight
// distributions, the real-world-like suite with historical weight skew.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "graph/topology.hpp"
#include "workflows/families.hpp"
#include "workflows/real_world.hpp"

namespace dagpm::workflows {
namespace {

using graph::Dag;
using graph::VertexId;

class FamilyGen
    : public testing::TestWithParam<std::tuple<Family, int>> {};

TEST_P(FamilyGen, SizeCloseAcyclicAndWeighted) {
  const auto [family, n] = GetParam();
  GenConfig cfg;
  cfg.numTasks = n;
  cfg.seed = 3;
  const Dag g = generate(family, cfg);
  // Within 2% of the requested size (generators round to their structure).
  EXPECT_NEAR(static_cast<double>(g.numVertices()), n, 0.02 * n + 8);
  EXPECT_TRUE(graph::isAcyclic(g));
  // Paper weight ranges: work [1,1000], mem [1,192], edges [1,10].
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    EXPECT_GE(g.work(v), 1.0);
    EXPECT_LE(g.work(v), 1000.0);
    EXPECT_GE(g.memory(v), 1.0);
    EXPECT_LE(g.memory(v), 192.0);
  }
  for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
    EXPECT_GE(g.edge(e).cost, 1.0);
    EXPECT_LE(g.edge(e).cost, 10.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamiliesAndSizes, FamilyGen,
    testing::Combine(testing::ValuesIn(allFamilies()),
                     testing::Values(60, 200, 1000)));

TEST(FamilyGen, WorkScaleMultipliesWork) {
  GenConfig base;
  base.numTasks = 100;
  GenConfig scaled = base;
  scaled.workScale = 4.0;
  const Dag g1 = generate(Family::kBlast, base);
  const Dag g4 = generate(Family::kBlast, scaled);
  ASSERT_EQ(g1.numVertices(), g4.numVertices());
  for (VertexId v = 0; v < g1.numVertices(); ++v) {
    EXPECT_DOUBLE_EQ(g4.work(v), 4.0 * g1.work(v));
    EXPECT_DOUBLE_EQ(g4.memory(v), g1.memory(v));  // memory unchanged
  }
}

TEST(FamilyGen, DeterministicPerSeed) {
  GenConfig cfg;
  cfg.numTasks = 150;
  cfg.seed = 11;
  const Dag a = generate(Family::kMontage, cfg);
  const Dag b = generate(Family::kMontage, cfg);
  ASSERT_EQ(a.numVertices(), b.numVertices());
  for (VertexId v = 0; v < a.numVertices(); ++v) {
    EXPECT_DOUBLE_EQ(a.work(v), b.work(v));
    EXPECT_DOUBLE_EQ(a.memory(v), b.memory(v));
  }
  cfg.seed = 12;
  const Dag c = generate(Family::kMontage, cfg);
  bool anyDiff = false;
  for (VertexId v = 0; v < a.numVertices(); ++v) {
    anyDiff = anyDiff || a.work(v) != c.work(v);
  }
  EXPECT_TRUE(anyDiff);
}

TEST(FamilyGen, SeismologyIsSingleForkJoin) {
  GenConfig cfg;
  cfg.numTasks = 50;
  const Dag g = generate(Family::kSeismology, cfg);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.targets().size(), 1u);
  EXPECT_EQ(g.outDegree(g.sources()[0]), g.numVertices() - 2);
}

TEST(FamilyGen, HighFanoutFamiliesHaveHubs) {
  for (const Family f : allFamilies()) {
    GenConfig cfg;
    cfg.numTasks = 120;
    const Dag g = generate(f, cfg);
    std::size_t maxDegree = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      maxDegree = std::max(maxDegree, g.outDegree(v) + g.inDegree(v));
    }
    if (isHighFanout(f)) {
      EXPECT_GE(maxDegree, g.numVertices() / 2) << familyName(f);
    } else {
      EXPECT_LT(maxDegree, g.numVertices()) << familyName(f);
    }
  }
  // The level profile at n = 150: the paper's most fanned-out families put
  // most tasks on one level, its least fanned-out ones are chain-dominated.
  for (const Family f : allFamilies()) {
    GenConfig cfg;
    cfg.numTasks = 150;
    const Dag g = generate(f, cfg);
    std::map<std::uint32_t, std::size_t> widthOfLevel;
    for (const std::uint32_t level : graph::topLevels(g)) ++widthOfLevel[level];
    std::size_t maxWidth = 0;
    for (const auto& [level, width] : widthOfLevel) {
      maxWidth = std::max(maxWidth, width);
    }
    const std::uint32_t depth = widthOfLevel.rbegin()->first;
    if (isHighFanout(f)) {
      EXPECT_GT(maxWidth, g.numVertices() / 2) << familyName(f);
    }
    if (f == Family::kSoyKb || f == Family::kEpigenomics) {
      EXPECT_GT(depth, 4u) << familyName(f);
    }
  }
}

TEST(FamilyGen, SoyKbIsChainDominatedForSmallSizes) {
  GenConfig cfg;
  cfg.numTasks = 60;
  const Dag g = generate(Family::kSoyKb, cfg);
  // Critical path (in hops) should be long relative to the graph: a chain
  // of ~n/3 vertices precedes the fork-join.
  const auto levels = graph::topLevels(g);
  std::uint32_t depth = 0;
  for (const auto l : levels) depth = std::max(depth, l);
  EXPECT_GE(depth, static_cast<std::uint32_t>(cfg.numTasks / 3));
}

TEST(FamilyGen, EpigenomicsHasParallelPipelines) {
  GenConfig cfg;
  cfg.numTasks = 104;  // 1 + 20*5 + 3
  const Dag g = generate(Family::kEpigenomics, cfg);
  EXPECT_EQ(g.sources().size(), 1u);
  // Fanout of the split equals the number of pipelines (~(n-4)/5).
  EXPECT_EQ(g.outDegree(g.sources()[0]), 20u);
}

TEST(FamilyGen, MontageHasCrossDependencies) {
  GenConfig cfg;
  cfg.numTasks = 65;  // p = 20
  const Dag g = generate(Family::kMontage, cfg);
  // Each mDiffFit depends on two projections: some vertex has in-degree 2.
  bool anyDouble = false;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    anyDouble = anyDouble || g.inDegree(v) == 2;
  }
  EXPECT_TRUE(anyDouble);
  EXPECT_TRUE(graph::isAcyclic(g));
}

TEST(FamilyGen, NamesAndClassification) {
  EXPECT_EQ(familyName(Family::kGenome1000), "1000Genome");
  EXPECT_TRUE(isHighFanout(Family::kBlast));
  EXPECT_TRUE(isHighFanout(Family::kBwa));
  EXPECT_TRUE(isHighFanout(Family::kSeismology));
  EXPECT_FALSE(isHighFanout(Family::kSoyKb));
  EXPECT_FALSE(isHighFanout(Family::kEpigenomics));
  EXPECT_EQ(allFamilies().size(), 7u);
  EXPECT_EQ(sizeBandName(SizeBand::kReal), "real");
  EXPECT_EQ(sizeBandName(SizeBand::kSmall), "small");
  EXPECT_EQ(sizeBandName(SizeBand::kMid), "mid");
  EXPECT_EQ(sizeBandName(SizeBand::kBig), "big");
}

TEST(RealWorld, SuiteHasFiveWorkflowsInPaperSizeRange) {
  const auto suite = realWorldSuite();
  ASSERT_EQ(suite.size(), 5u);
  std::set<std::string> names;
  for (const auto& wf : suite) {
    names.insert(wf.name);
    EXPECT_GE(wf.dag.numVertices(), 11u) << wf.name;
    EXPECT_LE(wf.dag.numVertices(), 58u) << wf.name;
    EXPECT_TRUE(graph::isAcyclic(wf.dag)) << wf.name;
  }
  EXPECT_EQ(names.size(), 5u);
  // The paper's smallest workflow has 11 tasks; ours too.
  std::size_t smallest = 1000;
  for (const auto& wf : suite) {
    smallest = std::min(smallest, wf.dag.numVertices());
  }
  EXPECT_EQ(smallest, 11u);
}

TEST(RealWorld, HistoricalWeightSkew) {
  RealWorldConfig cfg;
  cfg.noHistoryFraction = 0.5;
  const auto suite = realWorldSuite(cfg);
  for (const auto& wf : suite) {
    std::size_t unitTasks = 0;
    double maxMem = 0.0;
    for (VertexId v = 0; v < wf.dag.numVertices(); ++v) {
      if (wf.dag.work(v) == 1.0) ++unitTasks;
      maxMem = std::max(maxMem, wf.dag.memory(v));
    }
    // Roughly half the tasks form the "tail of 1s".
    const double fraction =
        static_cast<double>(unitTasks) / wf.dag.numVertices();
    EXPECT_GE(fraction, 0.35) << wf.name;
    EXPECT_LE(fraction, 0.65) << wf.name;
    EXPECT_LE(maxMem, 192.0) << wf.name;  // normalized to the biggest machine
  }
}

TEST(RealWorld, WorkScaleAppliesToHeavyAndUnitTasks) {
  RealWorldConfig base;
  RealWorldConfig scaled;
  scaled.workScale = 4.0;
  const auto a = realWorldSuite(base);
  const auto b = realWorldSuite(scaled);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (VertexId v = 0; v < a[i].dag.numVertices(); ++v) {
      EXPECT_DOUBLE_EQ(b[i].dag.work(v), 4.0 * a[i].dag.work(v));
    }
  }
}

TEST(RealWorld, DeterministicPerSeed) {
  RealWorldConfig cfg;
  cfg.seed = 42;
  const auto a = realWorldSuite(cfg);
  const auto b = realWorldSuite(cfg);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (VertexId v = 0; v < a[i].dag.numVertices(); ++v) {
      EXPECT_DOUBLE_EQ(a[i].dag.work(v), b[i].dag.work(v));
      EXPECT_DOUBLE_EQ(a[i].dag.memory(v), b[i].dag.memory(v));
    }
  }
}

}  // namespace
}  // namespace dagpm::workflows
