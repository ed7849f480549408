// Optimality anchors: differential tests of the exact branch-and-bound
// solver against brute-force enumeration, the never-worsens / determinism
// contracts of the SA refinement, and the sequential-equivalence contract
// of the portfolio racer.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include <omp.h>

#include "anchor/annealing.hpp"
#include "anchor/bnb.hpp"
#include "anchor/portfolio.hpp"
#include "graph/dag.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/solution.hpp"
#include "test_util.hpp"

namespace dagpm {
namespace {

using graph::Dag;
using graph::VertexId;
using platform::ProcessorId;

/// A small heterogeneous cluster whose memories are scaled so every task
/// fits somewhere (singleton feasibility; group feasibility still bites).
platform::Cluster tinyCluster(const Dag& g, int numProcessors) {
  std::vector<platform::Processor> procs;
  const std::vector<platform::Processor> kinds =
      platform::machineKinds(platform::Heterogeneity::kDefault);
  for (int p = 0; p < numProcessors; ++p) {
    procs.push_back(kinds[static_cast<std::size_t>(p) % kinds.size()]);
  }
  platform::Cluster cluster(std::move(procs), /*bandwidth=*/1.0);
  double maxReq = 0.0;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    maxReq = std::max(maxReq, g.taskMemoryRequirement(v));
  }
  cluster.scaleMemoriesToFit(maxReq);
  return cluster;
}

/// Brute force over ALL schedules: restricted-growth partitions of the
/// vertex set into at most numProcessors blocks, times every injective
/// processor assignment, keeping acyclic + memory-feasible ones. Priced
/// through quotient::makespanValue — the same recurrence the B&B leaf
/// evaluation uses, so agreements are bit-exact.
struct BruteForceResult {
  bool feasible = false;
  double optimum = std::numeric_limits<double>::infinity();
};

BruteForceResult bruteForceOptimum(const Dag& g,
                                   const platform::Cluster& cluster,
                                   const memory::MemDagOracle& oracle) {
  BruteForceResult result;
  const std::size_t n = g.numVertices();
  const auto numProcs = static_cast<std::uint32_t>(cluster.numProcessors());
  std::vector<std::uint32_t> blockOf(n, 0);

  const auto tryAssignments = [&](std::uint32_t numBlocks) {
    quotient::QuotientGraph q(g, blockOf, numBlocks);
    if (!q.isAcyclic()) return;
    std::vector<std::vector<VertexId>> members(numBlocks);
    for (VertexId v = 0; v < n; ++v) members[blockOf[v]].push_back(v);
    std::vector<double> requirement(numBlocks);
    for (std::uint32_t b = 0; b < numBlocks; ++b) {
      requirement[b] = oracle.blockRequirement(members[b]);
    }
    // Injective assignments as permutations of processor-id selections.
    std::vector<ProcessorId> procs(numProcs);
    for (ProcessorId p = 0; p < numProcs; ++p) procs[p] = p;
    std::sort(procs.begin(), procs.end());
    do {
      bool feasible = true;
      for (std::uint32_t b = 0; b < numBlocks && feasible; ++b) {
        feasible = requirement[b] <= cluster.memory(procs[b]);
      }
      if (!feasible) continue;
      for (std::uint32_t b = 0; b < numBlocks; ++b) {
        q.setProcessor(b, procs[b]);
      }
      const auto makespan = quotient::makespanValue(q, cluster);
      ASSERT_TRUE(makespan.has_value());
      result.feasible = true;
      result.optimum = std::min(result.optimum, *makespan);
    } while (std::next_permutation(procs.begin(), procs.end()));
  };

  // Restricted growth strings: blockOf[0] = 0, blockOf[v] <= 1 + max so
  // far; every set partition is enumerated exactly once.
  auto enumerate = [&](auto&& self, std::size_t v,
                       std::uint32_t maxUsed) -> void {
    if (v == n) {
      tryAssignments(maxUsed + 1);
      return;
    }
    const std::uint32_t limit =
        std::min(maxUsed + 1, numProcs - 1);  // at most numProcs blocks
    for (std::uint32_t b = 0; b <= limit; ++b) {
      blockOf[v] = b;
      self(self, v + 1, std::max(maxUsed, b));
    }
  };
  enumerate(enumerate, 1, 0);
  return result;
}

TEST(Anchor, BnbMatchesBruteForceOnTinyInstances) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    const Dag g = test::randomLayeredDag(/*layers=*/3, /*width=*/2,
                                         /*maxIn=*/2, seed);
    ASSERT_LE(g.numVertices(), 8u);
    const platform::Cluster cluster = tinyCluster(g, 3);
    const memory::MemDagOracle oracle(g);

    const anchor::BnbResult exact = anchor::solveExact(g, cluster);
    const BruteForceResult brute = bruteForceOptimum(g, cluster, oracle);

    ASSERT_TRUE(exact.closed) << "seed " << seed;
    ASSERT_EQ(exact.feasible, brute.feasible) << "seed " << seed;
    if (!brute.feasible) continue;
    // Same recurrence on both sides: the optima agree to the bit.
    EXPECT_EQ(exact.optimum, brute.optimum) << "seed " << seed;
    EXPECT_LE(exact.lowerBound, exact.optimum) << "seed " << seed;
    const auto report =
        scheduler::validateSchedule(g, cluster, oracle, exact.schedule);
    EXPECT_TRUE(report.valid) << "seed " << seed << ": " << report.error;
  }
}

TEST(Anchor, HeuristicNeverBeatsClosedOptimum) {
  for (const std::uint64_t seed : {7ull, 11ull, 13ull}) {
    const Dag g = test::randomLayeredDag(3, 3, 2, seed);
    const platform::Cluster cluster = tinyCluster(g, 4);
    const anchor::BnbResult exact = anchor::solveExact(g, cluster);
    ASSERT_TRUE(exact.closed) << "seed " << seed;
    const scheduler::ScheduleResult heuristic =
        scheduler::scheduleBest(g, cluster);
    if (!heuristic.feasible) continue;
    ASSERT_TRUE(exact.feasible) << "seed " << seed;
    EXPECT_LE(exact.optimum, heuristic.makespan) << "seed " << seed;
  }
}

TEST(Anchor, BnbDeterministicAcrossRuns) {
  const Dag g = test::randomLayeredDag(3, 3, 2, 21);
  const platform::Cluster cluster = tinyCluster(g, 4);
  const anchor::BnbResult a = anchor::solveExact(g, cluster);
  const anchor::BnbResult b = anchor::solveExact(g, cluster);
  EXPECT_EQ(a.closed, b.closed);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.optimum, b.optimum);
  EXPECT_EQ(a.lowerBound, b.lowerBound);
  EXPECT_EQ(a.nodesVisited, b.nodesVisited);
  EXPECT_EQ(a.nodesPruned, b.nodesPruned);
}

TEST(Anchor, BnbRespectsNodeBudget) {
  const Dag g = test::randomLayeredDag(4, 4, 3, 5);
  const platform::Cluster cluster = tinyCluster(g, 4);
  anchor::BnbConfig cfg;
  cfg.maxNodes = 10;
  const anchor::BnbResult budgeted = anchor::solveExact(g, cluster, cfg);
  EXPECT_FALSE(budgeted.closed);
  EXPECT_LE(budgeted.nodesVisited, cfg.maxNodes);
  // The heuristic incumbent survives even when the search cannot close.
  const scheduler::ScheduleResult heuristic =
      scheduler::scheduleBest(g, cluster);
  EXPECT_EQ(budgeted.feasible, heuristic.feasible);
  if (budgeted.feasible) {
    EXPECT_LE(budgeted.optimum, heuristic.makespan);
    EXPECT_LE(budgeted.lowerBound, budgeted.optimum);
  }
}

TEST(Anchor, AnnealNeverWorsensSeedAndIsThreadCountInvariant) {
  const Dag g = test::randomLayeredDag(6, 6, 3, 97);
  const platform::Cluster cluster = tinyCluster(g, 6);
  const scheduler::ScheduleResult seed = scheduler::scheduleBest(g, cluster);
  ASSERT_TRUE(seed.feasible);

  anchor::AnnealConfig cfg;
  cfg.restarts = 3;
  cfg.stepsPerRestart = 300;
  cfg.descentSteps = 100;

  const anchor::AnnealResult one = test::withOmpThreads(
      1, [&] { return anchor::refine(g, cluster, seed, cfg); });
  const anchor::AnnealResult three = test::withOmpThreads(
      3, [&] { return anchor::refine(g, cluster, seed, cfg); });

  EXPECT_LE(one.refinedMakespan, seed.makespan);
  const memory::MemDagOracle oracle(g);
  const auto report =
      scheduler::validateSchedule(g, cluster, oracle, one.schedule);
  EXPECT_TRUE(report.valid) << report.error;

  // Identical restart streams, materialized outcomes, deterministic winner:
  // bit-identical for any OMP_NUM_THREADS.
  EXPECT_EQ(one.refinedMakespan, three.refinedMakespan);
  EXPECT_EQ(one.winningRestart, three.winningRestart);
  EXPECT_EQ(one.proposed, three.proposed);
  EXPECT_EQ(one.accepted, three.accepted);
  EXPECT_EQ(one.schedule.blockOf, three.schedule.blockOf);
  EXPECT_EQ(one.schedule.procOfBlock, three.schedule.procOfBlock);
}

TEST(Anchor, AnnealReturnsSeedWhenInfeasibleOrNoRestarts) {
  const Dag g = test::randomLayeredDag(4, 4, 2, 3);
  const platform::Cluster cluster = tinyCluster(g, 4);
  scheduler::ScheduleResult infeasible;
  const anchor::AnnealResult kept =
      anchor::refine(g, cluster, infeasible, {});
  EXPECT_FALSE(kept.schedule.feasible);
  EXPECT_EQ(kept.winningRestart, anchor::kNoRestart);
}

TEST(Anchor, PortfolioWinnerEqualsBestSequentialArm) {
  const Dag g = test::randomLayeredDag(6, 6, 3, 41);
  const platform::Cluster cluster = tinyCluster(g, 6);

  anchor::PortfolioConfig cfg;
  cfg.saArms = 2;
  cfg.anneal.restarts = 2;
  cfg.anneal.stepsPerRestart = 200;
  cfg.anneal.descentSteps = 50;
  const std::vector<anchor::PortfolioArm> arms =
      anchor::defaultArms(cluster, cfg);
  ASSERT_GE(arms.size(), 4u);

  const anchor::PortfolioResult raced =
      anchor::race(g, cluster, arms, cfg);
  const anchor::PortfolioResult serial = test::withOmpThreads(
      1, [&] { return anchor::race(g, cluster, arms, cfg); });

  ASSERT_NE(raced.winningArm, anchor::kNoArm);
  EXPECT_EQ(raced.winningArm, serial.winningArm);
  EXPECT_EQ(raced.schedule.makespan, serial.schedule.makespan);
  EXPECT_EQ(raced.schedule.blockOf, serial.schedule.blockOf);
  EXPECT_EQ(raced.schedule.procOfBlock, serial.schedule.procOfBlock);

  // The winner is the lexicographically least (makespan, arm index) among
  // the feasible outcomes.
  std::uint32_t expected = anchor::kNoArm;
  for (std::uint32_t i = 0; i < raced.arms.size(); ++i) {
    if (!raced.arms[i].feasible) continue;
    if (expected == anchor::kNoArm ||
        raced.arms[i].makespan < raced.arms[expected].makespan) {
      expected = i;
    }
  }
  EXPECT_EQ(raced.winningArm, expected);
  ASSERT_EQ(raced.arms.size(), serial.arms.size());
  for (std::size_t i = 0; i < raced.arms.size(); ++i) {
    EXPECT_EQ(raced.arms[i].feasible, serial.arms[i].feasible) << i;
    EXPECT_EQ(raced.arms[i].makespan, serial.arms[i].makespan) << i;
  }

  const memory::MemDagOracle oracle(g);
  const auto report =
      scheduler::validateSchedule(g, cluster, oracle, raced.schedule);
  EXPECT_TRUE(report.valid) << report.error;
}

TEST(Anchor, PortfolioLeavesCallerOmpThreadCountUnchanged) {
  // The arms' one-thread pins must not outlast their waves: the caller's
  // OpenMP thread count is the same before and after the race.
  const Dag g = test::randomLayeredDag(4, 4, 2, 7);
  const platform::Cluster cluster = tinyCluster(g, 4);
  anchor::PortfolioConfig cfg;
  cfg.saArms = 1;  // a one-arm refinement wave
  cfg.anneal.restarts = 1;
  cfg.anneal.stepsPerRestart = 50;
  cfg.anneal.descentSteps = 10;
  const std::vector<anchor::PortfolioArm> arms =
      anchor::defaultArms(cluster, cfg);
  const int after = test::withOmpThreads(3, [&] {
    const anchor::PortfolioResult raced = anchor::race(g, cluster, arms, cfg);
    EXPECT_NE(raced.winningArm, anchor::kNoArm);
    return omp_get_max_threads();
  });
  EXPECT_EQ(after, 3);
}

TEST(Anchor, RelaxationBoundsEveryFeasibleSchedule) {
  for (const std::uint64_t seed : {2ull, 9ull, 17ull}) {
    const Dag g = test::randomLayeredDag(4, 4, 3, seed);
    const platform::Cluster cluster = tinyCluster(g, 5);
    const double bound = anchor::relaxationLowerBound(g, cluster);
    const scheduler::ScheduleResult heuristic =
        scheduler::scheduleBest(g, cluster);
    if (!heuristic.feasible) continue;
    EXPECT_LE(bound, heuristic.makespan * (1.0 + 1e-12)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dagpm
