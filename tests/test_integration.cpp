// End-to-end integration tests: the full pipeline across workflow families,
// cluster configurations, and bandwidths, with every schedule validated
// against all DAGP-PM constraints. These tests assert the *shape* of the
// paper's headline results at reduced scale.

#include <gtest/gtest.h>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "scheduler/solution.hpp"
#include "support/stats.hpp"
#include "test_util.hpp"

namespace dagpm {
namespace {

using platform::ClusterSize;
using platform::Heterogeneity;
using test::number;
using workflows::Family;

struct GridCase {
  Family family;
  Heterogeneity het;
  ClusterSize size;
};

class FullPipelineGrid : public testing::TestWithParam<GridCase> {};

TEST_P(FullPipelineGrid, SchedulesAreValidWheneverFeasible) {
  const GridCase& param = GetParam();
  workflows::GenConfig gen;
  gen.numTasks = 100;
  gen.seed = 2;
  const graph::Dag g = workflows::generate(param.family, gen);
  platform::Cluster cluster = platform::makeCluster(param.het, param.size);
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
  const memory::MemDagOracle oracle(g);

  // On resource-tight configurations (notably the 18-processor cluster with
  // hub-heavy workflows) both algorithms may legitimately fail to find a
  // mapping -- the paper observes the same (Sec. 5.2.2) and recommends a
  // larger platform. Whatever *is* returned must be valid.
  scheduler::DagHetPartConfig cfg;
  const scheduler::ScheduleResult part = scheduler::dagHetPart(g, cluster, cfg);
  if (part.feasible) {
    const auto report = scheduler::validateSchedule(g, cluster, oracle, part);
    EXPECT_TRUE(report.valid) << report.error;
  }
  const scheduler::ScheduleResult mem = scheduler::dagHetMem(g, cluster);
  if (mem.feasible) {
    const auto report = scheduler::validateSchedule(g, cluster, oracle, mem);
    EXPECT_TRUE(report.valid) << report.error;
  }
  if (part.feasible && mem.feasible) {
    // The heuristic never loses to the baseline on this (deterministic) grid.
    EXPECT_LE(part.makespan, mem.makespan * 1.001);
  }
  // On the default-size cluster at least one of the algorithms always finds
  // a mapping for these 100-task workflows (the paper reports isolated
  // per-algorithm failures even there); scheduleBest covers the union.
  if (param.size == ClusterSize::kDefault) {
    const scheduler::ScheduleResult best =
        scheduler::scheduleBest(g, cluster, cfg);
    EXPECT_TRUE(best.feasible);
    if (best.feasible) {
      const auto report = scheduler::validateSchedule(g, cluster, oracle, best);
      EXPECT_TRUE(report.valid) << report.error;
    }
  }
}

std::vector<GridCase> gridCases() {
  std::vector<GridCase> cases;
  for (const Family family :
       {Family::kBlast, Family::kEpigenomics, Family::kMontage}) {
    for (const Heterogeneity het :
         {Heterogeneity::kDefault, Heterogeneity::kMore, Heterogeneity::kLess,
          Heterogeneity::kNone}) {
      for (const ClusterSize size :
           {ClusterSize::kSmall, ClusterSize::kDefault}) {
        cases.push_back({family, het, size});
      }
    }
  }
  return cases;
}

std::string gridName(const testing::TestParamInfo<GridCase>& info) {
  return workflows::familyName(info.param.family) + "_" +
         platform::clusterName(info.param.het, info.param.size)
             .substr(0, 32);
}

INSTANTIATE_TEST_SUITE_P(Grid, FullPipelineGrid,
                         testing::ValuesIn(gridCases()),
                         [](const auto& info) {
                           std::string name = gridName(info);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

/// The harness export's rollup row of `band` ("family": "*"); a test
/// failure and an empty object (every number of which fails) when the
/// export has none.
support::JsonValue bandRollup(
    const std::vector<experiments::RunOutcome>& outcomes,
    workflows::SizeBand band) {
  const experiments::BenchExport exported =
      experiments::outcomesExport("headline", {{"", outcomes}});
  const std::string name = workflows::sizeBandName(band);
  const support::JsonValue* row =
      test::findRow(exported, {{"band", name}, {"family", "*"}});
  if (row == nullptr) {
    ADD_FAILURE() << "no rollup row for " << name;
    return support::JsonValue(support::JsonObject{});
  }
  return *row;
}

TEST(Headline, HeuristicBeatsBaselineOnAverage) {
  // Scaled-down version of the paper's headline claim (2.44x on average):
  // at 150 tasks across all families, the geometric-mean ratio must be
  // well below 1.
  auto instances = experiments::makeSyntheticInstances(
      {150}, workflows::SizeBand::kSmall, 1);
  const platform::Cluster cluster = platform::makeCluster(
      Heterogeneity::kDefault, ClusterSize::kDefault);
  experiments::RunnerOptions options;
  const auto outcomes = experiments::runComparison(instances, cluster, options);
  const support::JsonValue small =
      bandRollup(outcomes, workflows::SizeBand::kSmall);
  EXPECT_EQ(number(small, "scheduled_both"), number(small, "total"));
  // paper: 0.41 on the full-size mix
  EXPECT_LT(number(small, "geomean_ratio"), 0.75);
}

TEST(Headline, HighFanoutFamiliesImproveMore) {
  // Paper Sec. 5.2.6: Seismology/BLAST/BWA benefit most.
  auto instances = experiments::makeSyntheticInstances(
      {200}, workflows::SizeBand::kSmall, 1);
  const platform::Cluster cluster = platform::makeCluster(
      Heterogeneity::kDefault, ClusterSize::kDefault);
  experiments::RunnerOptions options;
  const auto outcomes = experiments::runComparison(instances, cluster, options);
  std::vector<double> fanned, chained;
  for (const auto& out : outcomes) {
    if (!out.partFeasible || !out.memFeasible) continue;
    const double ratio = out.partMakespan / out.memMakespan;
    bool high = false;
    for (const Family f : workflows::allFamilies()) {
      if (workflows::familyName(f) == out.family &&
          workflows::isHighFanout(f)) {
        high = true;
      }
    }
    (high ? fanned : chained).push_back(ratio);
  }
  ASSERT_FALSE(fanned.empty());
  ASSERT_FALSE(chained.empty());
  EXPECT_LT(support::geometricMean(fanned), support::geometricMean(chained));
}

TEST(Headline, RealWorldWorkflowsStillImprove) {
  const auto instances = experiments::makeRealInstances(1);
  const platform::Cluster cluster = platform::makeCluster(
      Heterogeneity::kDefault, ClusterSize::kDefault);
  experiments::RunnerOptions options;
  options.validate = false;
  const auto outcomes = experiments::runComparison(instances, cluster, options);
  const support::JsonValue real =
      bandRollup(outcomes, workflows::SizeBand::kReal);
  EXPECT_EQ(number(real, "scheduled_both"), number(real, "total"));
  // Paper: 1.59x better (ratio 0.63); give slack for the synthetic suite.
  EXPECT_LT(number(real, "geomean_ratio"), 1.0);
}

TEST(Headline, LargerClustersHelpTheHeuristic) {
  // Paper Fig. 3 right: more processors -> bigger improvement on big flows.
  auto instances = experiments::makeSyntheticInstances(
      {400}, workflows::SizeBand::kSmall, 1);
  experiments::RunnerOptions options;
  const auto small = experiments::runComparison(
      instances,
      platform::makeCluster(Heterogeneity::kDefault, ClusterSize::kSmall),
      options);
  const auto large = experiments::runComparison(
      instances,
      platform::makeCluster(Heterogeneity::kDefault, ClusterSize::kLarge),
      options);
  const double ratioSmall = number(
      bandRollup(small, workflows::SizeBand::kSmall), "geomean_ratio");
  const double ratioLarge = number(
      bandRollup(large, workflows::SizeBand::kSmall), "geomean_ratio");
  EXPECT_LT(ratioLarge, ratioSmall + 0.05);
}

TEST(Headline, FourTimesWorkBarelyChangesRatios) {
  // Paper Sec. 5.2.4: symmetric work scaling leaves relative makespans
  // virtually identical.
  auto base = experiments::makeSyntheticInstances(
      {150}, workflows::SizeBand::kSmall, 1, 1.0);
  auto heavy = experiments::makeSyntheticInstances(
      {150}, workflows::SizeBand::kSmall, 1, 4.0);
  const platform::Cluster cluster = platform::makeCluster(
      Heterogeneity::kDefault, ClusterSize::kDefault);
  experiments::RunnerOptions options;
  const double r1 =
      number(bandRollup(experiments::runComparison(base, cluster, options),
                        workflows::SizeBand::kSmall),
             "geomean_ratio");
  const double r4 =
      number(bandRollup(experiments::runComparison(heavy, cluster, options),
                        workflows::SizeBand::kSmall),
             "geomean_ratio");
  EXPECT_NEAR(r1, r4, 0.12);
}

}  // namespace
}  // namespace dagpm
