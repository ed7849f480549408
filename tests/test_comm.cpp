// Tests for the communication cost models (src/comm) and their threading
// through the scheduling stack:
//   * FairShareLink closed-form checks, and both models reject a
//     FluidProblem outside its layout;
//   * the uncontended model reproduces the forward-pass timeline
//     bit-exactly (the paper-faithful default must not move);
//   * the fair-share model agrees with the contended block-synchronous
//     simulation to 1e-9 on fuzzed schedules (the differential that makes
//     contention-aware search optimize the physics the engine realizes);
//   * contention-aware DagHetPart never returns memory-infeasible or
//     cyclic schedules;
//   * the residual projection under the uncontended model matches the
//     legacy pass, and the fair-share projection never undercuts it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "comm/cost_model.hpp"
#include "memory/oracle.hpp"
#include "quotient/quotient.hpp"
#include "quotient/timeline.hpp"
#include "resched/residual.hpp"
#include "scheduler/solution.hpp"
#include "sim/engine.hpp"
#include "test_util.hpp"

namespace dagpm {
namespace {

using quotient::BlockId;
using scheduler::ScheduleResult;

quotient::QuotientGraph buildQuotient(const graph::Dag& g,
                                      const ScheduleResult& schedule) {
  quotient::QuotientGraph q(g, schedule.blockOf, schedule.numBlocks());
  for (std::uint32_t b = 0; b < schedule.numBlocks(); ++b) {
    q.setProcessor(b, schedule.procOfBlock[b]);
  }
  return q;
}

TEST(FairShareLink, TwoOverlappingTransfersShareTheLink) {
  comm::FairShareLink link(1.0);
  link.dispatch(0, 10.0);
  EXPECT_DOUBLE_EQ(link.nextCompletionTime(), 10.0);
  link.advanceTo(5.0);
  link.dispatch(1, 5.0);  // both now need 5 more units at rate 1/2 each
  EXPECT_DOUBLE_EQ(link.nextCompletionTime(), 15.0);
  EXPECT_EQ(link.popCompletion(), 0u);  // dispatch order breaks the tie
  EXPECT_DOUBLE_EQ(link.now(), 15.0);
  EXPECT_EQ(link.popCompletion(), 1u);
  EXPECT_DOUBLE_EQ(link.now(), 15.0);
  EXPECT_EQ(link.active(), 0u);
}

TEST(FairShareLink, LateTransferSlowsTheEarlyOne) {
  comm::FairShareLink link(2.0);
  link.dispatch(7, 8.0);  // alone: would finish at t=4
  link.advanceTo(2.0);    // 4 units moved, 4 remain
  link.dispatch(8, 2.0);  // rates drop to 1 each
  // The late transfer finishes first (t=4); the early one needs 2 more
  // units afterwards at full rate: t = 4 + 1.
  EXPECT_EQ(link.popCompletion(), 8u);
  EXPECT_DOUBLE_EQ(link.now(), 4.0);
  EXPECT_EQ(link.popCompletion(), 7u);
  EXPECT_DOUBLE_EQ(link.now(), 5.0);
}

TEST(CommCostModel, RejectsProblemsOutsideTheLayout) {
  // In layout: nodes topological, edges and injections grouped by ascending
  // destination. Hand-derived timelines at beta = 1: uncontended, node 1
  // waits for edge 0 (1 + 2) and node 2 for edges 1/2 (both 5); fair-share,
  // edges 0 and 1 halve the link from t=1, node 1 starts at 5 and edge 2
  // then shares the link with edge 1's last unit until t=8.
  comm::FluidProblem good;
  good.nodes = {{1.0, 0.0}, {1.0, 0.0}, {1.0, 0.0}};
  good.edges = {{0, 1, 2.0}, {0, 2, 4.0}, {1, 2, 1.0}};
  good.injections = {{1, 0.0, 1.0}};
  const comm::FluidResult flat =
      comm::uncontendedCommModel().evaluate(good, 1.0);
  ASSERT_TRUE(flat.ok);
  EXPECT_EQ(flat.makespan, 6.0);
  EXPECT_EQ(flat.bindingEdge,
            (std::vector<std::uint32_t>{comm::kNoFluidEdge, 0, 1}));
  const comm::FluidResult shared =
      comm::fairShareCommModel().evaluate(good, 1.0);
  ASSERT_TRUE(shared.ok);
  EXPECT_EQ(shared.makespan, 9.0);
  EXPECT_EQ(shared.start, (std::vector<double>{0.0, 5.0, 8.0}));

  // Out of layout: an edge with src >= dst (destinations still ascending),
  // an edge listed after one of a later destination, an injection listed
  // after one of a later destination, and an injection to no node.
  std::vector<comm::FluidProblem> bad(4, good);
  bad[0].edges[0] = {2, 1, 2.0};
  bad[1].edges = {{0, 2, 4.0}, {0, 1, 2.0}, {1, 2, 1.0}};
  bad[2].injections = {{2, 0.0, 1.0}, {1, 0.0, 1.0}};
  bad[3].injections = {{3, 0.0, 1.0}};
  for (std::size_t k = 0; k < bad.size(); ++k) {
    for (const comm::CommCostModel* model :
         {&comm::uncontendedCommModel(), &comm::fairShareCommModel()}) {
      EXPECT_FALSE(model->evaluate(bad[k], 1.0).ok)
          << "case " << k << " under " << model->name();
    }
  }
}

TEST(CommCostModel, UncontendedMatchesComputeTimelineBitExact) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const test::ScheduledFuzzCase fc = test::makeTightFuzzCase(seed, seed);
    for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
      if (!schedule->feasible) continue;
      const quotient::QuotientGraph q = buildQuotient(fc.dag, *schedule);
      // Reference forward pass: start(v) = max over parents of
      // finish(parent) + c/beta in adjacency order, finish = start + w/s.
      const auto order = q.topologicalOrder();
      ASSERT_TRUE(order.has_value());
      std::vector<double> start(q.numSlots(), 0.0);
      std::vector<double> finish(q.numSlots(), 0.0);
      const double beta = fc.cluster.bandwidth();
      double forward = 0.0;
      for (const quotient::BlockId b : *order) {
        double ready = 0.0;
        for (const auto& [parent, cost] : q.in(b)) {
          ready = std::max(ready, finish[parent] + cost / beta);
        }
        start[b] = ready;
        finish[b] = ready + q.node(b).work / fc.cluster.speed(q.node(b).proc);
        forward = std::max(forward, finish[b]);
      }
      const quotient::Timeline modeled =
          quotient::computeTimeline(q, fc.cluster);
      EXPECT_EQ(forward, modeled.makespan);
      ASSERT_EQ(order->size(), modeled.entries.size());
      for (const quotient::TimelineEntry& entry : modeled.entries) {
        EXPECT_EQ(start[entry.block], entry.start);
        EXPECT_EQ(finish[entry.block], entry.finish);
      }
      const auto legacyValue = quotient::makespanValue(q, fc.cluster);
      const auto modeledValue = quotient::makespanValue(
          q, fc.cluster, &comm::uncontendedCommModel());
      ASSERT_TRUE(legacyValue.has_value());
      ASSERT_TRUE(modeledValue.has_value());
      // The model's forward pass IS the reference arithmetic, so those two
      // agree bit-exactly; the Eq. (1) backward pass associates the same
      // sums differently and only agrees to rounding.
      EXPECT_EQ(forward, *modeledValue);
      EXPECT_NEAR(*legacyValue, *modeledValue,
                  1e-12 * std::max(1.0, *legacyValue));
    }
  }
}

TEST(CommCostModel, UncontendedHandlesUnassignedBlocks) {
  // Unassigned blocks compute with speed 1 (the Step-3 estimation
  // convention); chunking a topological order keeps the quotient acyclic.
  const graph::Dag g = test::randomLayeredDag(6, 4, 3, 77);
  const auto order = graph::topologicalOrder(g);
  ASSERT_TRUE(order.has_value());
  std::vector<std::uint32_t> blockOf(g.numVertices(), 0);
  const std::uint32_t numBlocks = 5;
  for (std::size_t i = 0; i < order->size(); ++i) {
    blockOf[(*order)[i]] = static_cast<std::uint32_t>(
        i * numBlocks / order->size());
  }
  quotient::QuotientGraph q(g, blockOf, numBlocks);
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kSmall);
  q.setProcessor(0, 2);  // mixed: some assigned, some not
  const auto legacy = quotient::makespanValue(q, cluster);
  const auto modeled =
      quotient::makespanValue(q, cluster, &comm::uncontendedCommModel());
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(modeled.has_value());
  EXPECT_EQ(*legacy, *modeled);
}

TEST(CommCostModel, UncontendedCriticalPathIsAChainWithTheMakespan) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const test::ScheduledFuzzCase fc = test::makeTightFuzzCase(seed, seed);
    if (!fc.part.feasible) continue;
    const quotient::QuotientGraph q = buildQuotient(fc.dag, fc.part);
    const quotient::MakespanResult legacy =
        quotient::computeMakespan(q, fc.cluster);
    const quotient::MakespanResult modeled = quotient::computeMakespan(
        q, fc.cluster, &comm::uncontendedCommModel());
    ASSERT_TRUE(modeled.acyclic);
    EXPECT_EQ(legacy.makespan, modeled.makespan);
    ASSERT_FALSE(modeled.criticalPath.empty());
    for (std::size_t i = 0; i + 1 < modeled.criticalPath.size(); ++i) {
      const BlockId from = modeled.criticalPath[i];
      EXPECT_EQ(q.out(from).count(modeled.criticalPath[i + 1]), 1u);
    }
  }
}

TEST(CommCostModel, FairShareMatchesContendedSimulationTo1e9) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const test::ScheduledFuzzCase fc = test::makeTightFuzzCase(seed, seed);
    const memory::MemDagOracle oracle(fc.dag, {});
    for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
      if (!schedule->feasible) continue;
      sim::SimOptions options;
      options.comm = sim::CommModel::kBlockSynchronous;
      options.contention = true;
      const sim::SimResult sim = sim::simulateSchedule(
          fc.dag, fc.cluster, *schedule, oracle, options);
      ASSERT_TRUE(sim.ok) << sim.error;
      const auto modeled = scheduler::modelMakespan(
          fc.dag, fc.cluster, *schedule, comm::fairShareCommModel());
      ASSERT_TRUE(modeled.has_value());
      EXPECT_NEAR(sim.makespan, *modeled,
                  1e-9 * std::max(1.0, sim.makespan));
      ++compared;
    }
  }
  EXPECT_GE(compared, 10);
}

TEST(CommCostModel, FairShareNeverFasterThanUncontended) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const test::ScheduledFuzzCase fc = test::makeTightFuzzCase(seed, seed);
    if (!fc.part.feasible) continue;
    const quotient::QuotientGraph q = buildQuotient(fc.dag, fc.part);
    const auto uncontended =
        quotient::makespanValue(q, fc.cluster, &comm::uncontendedCommModel());
    const auto fairShare =
        quotient::makespanValue(q, fc.cluster, &comm::fairShareCommModel());
    ASSERT_TRUE(uncontended.has_value());
    ASSERT_TRUE(fairShare.has_value());
    EXPECT_GE(*fairShare, *uncontended - 1e-9 * std::max(1.0, *uncontended));
  }
}

TEST(ContentionAwareScheduling, SchedulesStayValidUnderTheModel) {
  int feasible = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    test::ScheduledFuzzCase fc = test::makeTightFuzzCase(seed, seed);
    scheduler::DagHetPartConfig cfg;
    cfg.seed = seed;
    cfg.options.contentionAware = true;
    const ScheduleResult aware =
        scheduler::dagHetPart(fc.dag, fc.cluster, cfg);
    if (!aware.feasible) continue;
    ++feasible;
    // Never memory-infeasible or cyclic, and the reported makespan is the
    // fair-share priced one (validate recomputes it under the model).
    const memory::MemDagOracle oracle(fc.dag, cfg.oracle);
    const auto report = scheduler::validateSchedule(
        fc.dag, fc.cluster, oracle, aware,
        scheduler::commModelFor(cfg.options));
    EXPECT_TRUE(report.valid) << report.error;
    // The contention-aware objective can only be pessimistic relative to
    // the static prediction of the same schedule.
    const double ms = scheduler::staticMakespan(fc.dag, fc.cluster, aware);
    EXPECT_GE(aware.makespan, ms - 1e-9 * std::max(1.0, ms));
  }
  EXPECT_GE(feasible, 4);
}

TEST(ContentionAwareScheduling, ObliviousDefaultIsUnchanged) {
  // The flag off must route through the legacy code paths: identical
  // schedules and identical makespans, field for field.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    test::ScheduledFuzzCase fc = test::makeTightFuzzCase(seed, seed);
    scheduler::DagHetPartConfig cfg;
    cfg.seed = seed;
    const ScheduleResult a = scheduler::dagHetPart(fc.dag, fc.cluster, cfg);
    cfg.options.contentionAware = false;  // explicit default
    const ScheduleResult b = scheduler::dagHetPart(fc.dag, fc.cluster, cfg);
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.blockOf, b.blockOf);
    EXPECT_EQ(a.procOfBlock, b.procOfBlock);
  }
}

TEST(ResidualProjection, UncontendedModelMatchesLegacyPass) {
  int projected = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const test::ScheduledFuzzCase fc = test::makeTightFuzzCase(seed, seed);
    if (!fc.part.feasible) continue;
    const memory::MemDagOracle oracle(fc.dag, {});
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, fc.cluster, fc.part, oracle);
    ASSERT_TRUE(plan.ok()) << plan.error();
    test::PauseEveryNthFinish observer(3);
    sim::SimOptions options;
    options.observer = &observer;
    const sim::SimResult paused = sim::simulateSchedule(plan, options);
    ASSERT_TRUE(paused.ok) << paused.error;
    if (!paused.paused) continue;
    const resched::ResidualState state =
        resched::buildResidual(plan, paused.checkpoint, oracle);
    const double legacy = resched::projectResidual(state, fc.cluster);
    const double uncontended = resched::projectResidual(
        state, fc.cluster, &comm::uncontendedCommModel());
    EXPECT_NEAR(legacy, uncontended, 1e-12 * std::max(1.0, legacy));
    const double fairShare = resched::projectResidual(
        state, fc.cluster, &comm::fairShareCommModel());
    EXPECT_GE(fairShare, legacy - 1e-9 * std::max(1.0, legacy));
    ++projected;
  }
  EXPECT_GE(projected, 3);
}

}  // namespace
}  // namespace dagpm
