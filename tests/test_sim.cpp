// Discrete-event simulator tests: cross-validation against the static
// Eq. (1)-(2) timeline, determinism/reproducibility guarantees, the
// perturbation models, contention monotonicity, and memory-overflow
// detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"
#include "quotient/timeline.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"
#include "sim/engine.hpp"
#include "sim/perturbation.hpp"
#include "sim/robustness.hpp"
#include "test_util.hpp"

namespace dagpm {
namespace {

using scheduler::ScheduleResult;
using scheduler::staticMakespan;

/// Schedules a fuzzed DAG on a small default cluster; both algorithms.
struct FuzzCase {
  graph::Dag dag;
  platform::Cluster cluster;
  ScheduleResult part;
  ScheduleResult mem;
};

FuzzCase makeFuzzCase(std::uint64_t seed) {
  FuzzCase fc;
  fc.dag = test::randomLayeredDag(8, 5, 3, seed);
  fc.cluster = platform::makeCluster(platform::Heterogeneity::kDefault, 1);
  fc.cluster.scaleMemoriesToFit(fc.dag.maxTaskMemoryRequirement());
  scheduler::DagHetPartConfig cfg;
  cfg.seed = seed;
  fc.part = scheduler::dagHetPart(fc.dag, fc.cluster, cfg);
  fc.mem = scheduler::dagHetMem(fc.dag, fc.cluster, {});
  return fc;
}

class SimFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(SimFuzz, DeterministicReplayMatchesComputeTimeline) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  const memory::MemDagOracle oracle(fc.dag);
  int checked = 0;
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    ++checked;
    const double expected = staticMakespan(fc.dag, fc.cluster, *schedule);
    const sim::SimResult run = sim::simulateSchedule(
        fc.dag, fc.cluster, *schedule, oracle, sim::SimOptions{});
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_NEAR(run.makespan, expected, 1e-9 * std::max(1.0, expected));
    // Zero noise on a validated schedule never overflows memory: the
    // block-synchronous engine follows the oracle's lazy accounting.
    EXPECT_EQ(run.memoryOverflows, 0u);
    // Every task got a consistent event record.
    for (graph::VertexId v = 0; v < fc.dag.numVertices(); ++v) {
      const sim::TaskEvent& ev = run.events[v];
      EXPECT_EQ(ev.block, schedule->blockOf[v]);
      EXPECT_LE(ev.ready, ev.start + 1e-12);
      EXPECT_LE(ev.start, ev.finish + 1e-12);
      EXPECT_LE(ev.finish, run.makespan + 1e-12);
    }
  }
  ASSERT_GT(checked, 0) << "no feasible schedule to cross-validate";
}

TEST_P(SimFuzz, TaskEagerIsNeverSlowerThanBlockSynchronous) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  const memory::MemDagOracle oracle(fc.dag);
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    sim::SimOptions eager;
    eager.comm = sim::CommModel::kTaskEager;
    const sim::SimResult fine = sim::simulateSchedule(
        fc.dag, fc.cluster, *schedule, oracle, eager);
    const sim::SimResult coarse = sim::simulateSchedule(
        fc.dag, fc.cluster, *schedule, oracle, sim::SimOptions{});
    ASSERT_TRUE(fine.ok) << fine.error;
    ASSERT_TRUE(coarse.ok) << coarse.error;
    // Per-edge transfers leave earlier and tasks wait only for their own
    // inputs, so uncontended task-eager execution is provably no slower.
    EXPECT_LE(fine.makespan,
              coarse.makespan * (1.0 + 1e-9) + 1e-9);
  }
}

TEST_P(SimFuzz, ContentionNeverSpeedsUpDeterministicRuns) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  if (!fc.part.feasible) GTEST_SKIP() << "infeasible instance";
  const memory::MemDagOracle oracle(fc.dag);
  sim::SimOptions shared;
  shared.comm = sim::CommModel::kTaskEager;
  shared.contention = true;
  sim::SimOptions exclusive = shared;
  exclusive.contention = false;
  const sim::SimResult contended =
      sim::simulateSchedule(fc.dag, fc.cluster, fc.part, oracle, shared);
  const sim::SimResult uncontended =
      sim::simulateSchedule(fc.dag, fc.cluster, fc.part, oracle, exclusive);
  ASSERT_TRUE(contended.ok) << contended.error;
  ASSERT_TRUE(uncontended.ok) << uncontended.error;
  EXPECT_GE(contended.makespan,
            uncontended.makespan * (1.0 - 1e-9) - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFuzz, testing::Range<std::uint64_t>(1, 13));

TEST(Perturbation, DeterministicModelIsIdentity) {
  const auto model = sim::makePerturbation({}, 4);
  model->beginRun(123);
  EXPECT_DOUBLE_EQ(model->taskFactor(0, 0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(model->taskFactor(17, 3, 42.0), 1.0);
  EXPECT_DOUBLE_EQ(model->transferFactor(5), 1.0);
}

TEST(Perturbation, LognormalFactorsArePositiveWithUnitMean) {
  sim::PerturbationSpec spec;
  spec.kind = sim::PerturbationKind::kLognormal;
  spec.sigma = 0.3;
  const auto model = sim::makePerturbation(spec, 4);
  model->beginRun(7);
  double sum = 0.0;
  const int n = 20000;
  for (int v = 0; v < n; ++v) {
    const double f = model->taskFactor(static_cast<graph::VertexId>(v), 0, 0.0);
    ASSERT_GT(f, 0.0);
    sum += f;
  }
  EXPECT_NEAR(sum / n, 1.0, 0.02);
}

TEST(Perturbation, LognormalIsAFunctionOfSeedAndEntityOnly) {
  sim::PerturbationSpec spec;
  spec.kind = sim::PerturbationKind::kLognormal;
  spec.sigma = 0.5;
  const auto a = sim::makePerturbation(spec, 4);
  const auto b = sim::makePerturbation(spec, 4);
  a->beginRun(99);
  b->beginRun(99);
  // Querying in different orders yields identical factors.
  const double a0 = a->taskFactor(0, 1, 0.0);
  const double a9 = a->taskFactor(9, 2, 5.0);
  const double b9 = b->taskFactor(9, 0, 1.0);  // proc/time do not matter
  const double b0 = b->taskFactor(0, 3, 9.0);
  EXPECT_DOUBLE_EQ(a0, b0);
  EXPECT_DOUBLE_EQ(a9, b9);
  // A different run seed decorrelates.
  b->beginRun(100);
  EXPECT_NE(a->taskFactor(0, 0, 0.0), b->taskFactor(0, 0, 0.0));
}

TEST(Perturbation, StragglerHitsWithConfiguredProbability) {
  sim::PerturbationSpec spec;
  spec.kind = sim::PerturbationKind::kStraggler;
  spec.stragglerProbability = 1.0;
  spec.stragglerFactor = 4.0;
  const auto always = sim::makePerturbation(spec, 2);
  always->beginRun(1);
  EXPECT_DOUBLE_EQ(always->taskFactor(3, 0, 0.0), 4.0);
  spec.stragglerProbability = 0.0;
  const auto never = sim::makePerturbation(spec, 2);
  never->beginRun(1);
  EXPECT_DOUBLE_EQ(never->taskFactor(3, 0, 0.0), 1.0);
}

TEST(Perturbation, TransientSlowdownRespectsWindowAndProcessorSubset) {
  sim::PerturbationSpec spec;
  spec.kind = sim::PerturbationKind::kTransientSlowdown;
  spec.slowdownFraction = 1.0;  // every processor affected
  spec.slowdownFactor = 3.0;
  spec.windowBegin = 10.0;
  spec.windowEnd = 20.0;
  const auto model = sim::makePerturbation(spec, 3);
  model->beginRun(5);
  EXPECT_DOUBLE_EQ(model->taskFactor(0, 0, 5.0), 1.0);   // before window
  EXPECT_DOUBLE_EQ(model->taskFactor(0, 1, 15.0), 3.0);  // inside
  EXPECT_DOUBLE_EQ(model->taskFactor(0, 2, 25.0), 1.0);  // after
  spec.slowdownFraction = 0.0;  // nobody affected
  const auto none = sim::makePerturbation(spec, 3);
  none->beginRun(5);
  EXPECT_DOUBLE_EQ(none->taskFactor(0, 1, 15.0), 1.0);
}

TEST(Perturbation, NameFormatting) {
  sim::PerturbationSpec spec;
  EXPECT_EQ(sim::perturbationName(spec), "deterministic");
  spec.kind = sim::PerturbationKind::kLognormal;
  spec.sigma = 0.25;
  EXPECT_EQ(sim::perturbationName(spec), "lognormal(0.25)");
}

TEST(SimEngine, RejectsInfeasibleAndMalformedSchedules) {
  const graph::Dag g = test::randomLayeredDag(4, 3, 2, 1);
  const platform::Cluster cluster =
      platform::makeCluster(platform::Heterogeneity::kNone, 1);
  const memory::MemDagOracle oracle(g);

  ScheduleResult infeasible;
  infeasible.feasible = false;
  EXPECT_FALSE(
      sim::simulateSchedule(g, cluster, infeasible, oracle, {}).ok);

  // All tasks in one block, but two blocks claim the same processor.
  ScheduleResult clash;
  clash.feasible = true;
  clash.blockOf.assign(g.numVertices(), 0);
  clash.blockOf[0] = 1;
  clash.procOfBlock = {0, 0};
  const sim::SimResult run =
      sim::simulateSchedule(g, cluster, clash, oracle, {});
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("processor"), std::string::npos);
}

/// The same schedules fed to both consumers of the schedule definition:
/// validateSchedule (the static problem constraints) and prepareSimulation
/// (what the engine can execute). Both share the structural rules; only
/// validateSchedule counts blocks against processors and checks memory and
/// the makespan, only the plan exempts completed blocks from the
/// distinct-processor rule and checks forced orders.
TEST(ScheduleVerdicts, ValidatorAndPlanAcceptExactlyTheirSchedules) {
  graph::Dag chain;  // a -> b -> c -> d
  for (int i = 0; i < 4; ++i) chain.addVertex(1.0, 1.0);
  for (graph::VertexId v = 0; v + 1 < 4; ++v) chain.addEdge(v, v + 1, 1.0);
  const graph::Dag empty;
  // Processor 2 is too small for any block.
  const platform::Cluster cluster(
      {{"p", 1.0, 1e9}, {"p", 2.0, 1e9}, {"p", 1.0, 1e-3}}, 1.0);
  const memory::MemDagOracle chainOracle(chain);
  const memory::MemDagOracle emptyOracle(empty);

  const auto schedule = [](std::vector<std::uint32_t> blockOf,
                           std::vector<platform::ProcessorId> procs) {
    ScheduleResult s;
    s.feasible = true;
    s.blockOf = std::move(blockOf);
    s.procOfBlock = std::move(procs);
    return s;
  };
  const auto priced = [&](ScheduleResult s) {
    s.makespan = staticMakespan(chain, cluster, s);
    return s;
  };
  const auto completed = [](std::vector<char> flags) {
    sim::PlanHints hints;
    hints.completedBlock = std::move(flags);
    return hints;
  };
  constexpr platform::ProcessorId kNone = platform::kNoProcessor;

  struct Case {
    const char* name;
    const graph::Dag* g;
    ScheduleResult s;
    sim::PlanHints hints;
    bool validates;
    bool plans;
  };
  ScheduleResult infeasible = priced(schedule({0, 0, 1, 1}, {0, 1}));
  infeasible.feasible = false;
  sim::PlanHints wrongOrder;
  wrongOrder.forcedOrder = {{0, 2}};
  const std::vector<Case> cases = {
      {"infeasible flag", &chain, infeasible, {}, false, false},
      {"short blockOf", &chain, schedule({0, 0, 1}, {0, 1}), {}, false, false},
      {"out-of-range label", &chain, schedule({0, 0, 1, 2}, {0, 1}), {},
       false, false},
      {"empty block", &chain, schedule({0, 0, 1, 1}, {0, 1, 2}), {}, false,
       false},
      {"no processor", &chain, schedule({0, 0, 1, 1}, {0, kNone}), {}, false,
       false},
      {"processor out of range", &chain, schedule({0, 0, 1, 1}, {0, 3}), {},
       false, false},
      {"shared processor", &chain, priced(schedule({0, 0, 1, 1}, {1, 1})), {},
       false, false},
      {"shared processor, one completed", &chain,
       priced(schedule({0, 0, 1, 1}, {1, 1})), completed({1, 0}), false, true},
      {"cyclic quotient", &chain, schedule({0, 1, 1, 0}, {0, 1}), {}, false,
       false},
      {"zero blocks on an empty workflow", &empty, schedule({}, {}), {},
       false, true},
      {"more blocks than processors", &chain,
       priced(schedule({0, 1, 2, 3}, {0, 1, 2, 0})), {}, false, false},
      {"more blocks than processors, one completed", &chain,
       priced(schedule({0, 1, 2, 3}, {0, 1, 2, 0})), completed({0, 0, 0, 1}),
       false, true},
      {"block over its processor's memory", &chain,
       priced(schedule({0, 0, 1, 1}, {0, 2})), {}, false, true},
      {"forced order not the block's members", &chain,
       priced(schedule({0, 0, 1, 1}, {0, 1})), wrongOrder, true, false},
      {"valid", &chain, priced(schedule({0, 0, 1, 1}, {0, 1})), {}, true,
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const memory::MemDagOracle& oracle =
        c.g == &empty ? emptyOracle : chainOracle;
    const scheduler::ValidationReport report =
        scheduler::validateSchedule(*c.g, cluster, oracle, c.s);
    EXPECT_EQ(report.valid, c.validates) << report.error;
    EXPECT_EQ(report.error.empty(), c.validates);
    const sim::SimPlan plan =
        sim::prepareSimulation(*c.g, cluster, c.s, oracle, &c.hints);
    EXPECT_EQ(plan.ok(), c.plans) << plan.error();
  }
}

/// The plan's quotient is built like scheduler::quotientOf, so pricing it
/// under the uncontended model reproduces staticMakespan bit for bit.
TEST_P(SimFuzz, PlanQuotientPricesTheStaticMakespan) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  const memory::MemDagOracle oracle(fc.dag);
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, fc.cluster, *schedule, oracle);
    ASSERT_TRUE(plan.ok()) << plan.error();
    const std::optional<double> priced = quotient::makespanValue(
        *plan.data().quotient, fc.cluster, &comm::uncontendedCommModel());
    ASSERT_TRUE(priced.has_value());
    EXPECT_EQ(*priced, staticMakespan(fc.dag, fc.cluster, *schedule));
  }
}

/// Hand-built two-block instance where an early-arriving remote input must
/// overflow the destination processor in task-eager mode: the consumer block
/// is busy with a long head task while the 5-unit file sits buffered.
TEST(SimEngine, TaskEagerBuffersOverflowTightMemory) {
  graph::Dag g;
  const auto a = g.addVertex(1.0, 0.0);    // producer block 0
  const auto b = g.addVertex(100.0, 2.0);  // long head task of block 1
  const auto c = g.addVertex(1.0, 0.0);    // consumer of a's file
  g.addEdge(a, c, 5.0);
  g.addEdge(b, c, 1.0);  // forces traversal order [b, c] inside block 1

  // Block 1's oracle requirement is max(2+1, 5+1+0) = 6 = proc memory; the
  // buffered 5 units during b's step (usage 3+5) exceed it.
  const platform::Cluster cluster(
      {{"P0", 1.0, 10.0}, {"P1", 1.0, 6.0}}, 1.0);
  ScheduleResult schedule;
  schedule.feasible = true;
  schedule.blockOf = {0, 1, 1};
  schedule.procOfBlock = {0, 1};
  const memory::MemDagOracle oracle(g);

  sim::SimOptions eager;
  eager.comm = sim::CommModel::kTaskEager;
  const sim::SimResult run =
      sim::simulateSchedule(g, cluster, schedule, oracle, eager);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_GT(run.memoryOverflows, 0u);
  EXPECT_NEAR(run.maxMemoryExcess, 2.0, 1e-9);  // 3 + 5 - 6

  // The block-synchronous engine follows the static accounting: no overflow.
  const sim::SimResult coarse =
      sim::simulateSchedule(g, cluster, schedule, oracle, sim::SimOptions{});
  ASSERT_TRUE(coarse.ok) << coarse.error;
  EXPECT_EQ(coarse.memoryOverflows, 0u);
}

TEST(Robustness, RejectsMalformedSchedulesWithoutCrashing) {
  const graph::Dag g = test::randomLayeredDag(4, 3, 2, 1);
  const platform::Cluster cluster =
      platform::makeCluster(platform::Heterogeneity::kNone, 1);
  const memory::MemDagOracle oracle(g);
  // Default-constructed (infeasible, empty blockOf) and out-of-range block
  // labels must come back as clean errors, not out-of-bounds reads.
  ScheduleResult empty;
  const sim::RobustnessSummary s1 = sim::evaluateRobustness(
      sim::prepareSimulation(g, cluster, empty, oracle), {});
  EXPECT_FALSE(s1.ok);
  EXPECT_FALSE(s1.error.empty());
  ScheduleResult outOfRange;
  outOfRange.feasible = true;
  outOfRange.blockOf.assign(g.numVertices(), quotient::kNoBlock);
  outOfRange.procOfBlock = {0};
  const sim::RobustnessSummary s2 = sim::evaluateRobustness(
      sim::prepareSimulation(g, cluster, outOfRange, oracle), {});
  EXPECT_FALSE(s2.ok);
  EXPECT_FALSE(s2.error.empty());
}

TEST(Robustness, DeterministicReplicationsAllEqualStaticPrediction) {
  const FuzzCase fc = makeFuzzCase(3);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  sim::RobustnessOptions options;
  options.replications = 8;
  const sim::RobustnessSummary summary = sim::evaluateRobustness(
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle), options);
  ASSERT_TRUE(summary.ok) << summary.error;
  ASSERT_EQ(summary.makespans.size(), 8u);
  for (const double m : summary.makespans) {
    EXPECT_NEAR(m, summary.staticMakespan,
                1e-9 * std::max(1.0, summary.staticMakespan));
  }
  EXPECT_EQ(summary.overflowRuns, 0);
}

TEST(Robustness, NoisySummaryStatisticsAreOrdered) {
  const FuzzCase fc = makeFuzzCase(5);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  sim::RobustnessOptions options;
  options.replications = 50;
  options.perturbation.kind = sim::PerturbationKind::kLognormal;
  options.perturbation.sigma = 0.3;
  const sim::RobustnessSummary summary = sim::evaluateRobustness(
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle), options);
  ASSERT_TRUE(summary.ok) << summary.error;
  ASSERT_EQ(summary.makespans.size(), 50u);
  EXPECT_GT(summary.minMakespan, 0.0);
  EXPECT_LE(summary.minMakespan, summary.p50Makespan);
  EXPECT_LE(summary.p50Makespan, summary.p95Makespan);
  EXPECT_LE(summary.p95Makespan, summary.maxMakespan);
  EXPECT_GT(summary.meanSlowdown, 0.0);
  // Noise actually perturbs: not all replications are identical.
  EXPECT_GT(summary.maxMakespan, summary.minMakespan);
}

TEST(Robustness, FixedSeedIsBitReproducibleAcrossThreadCounts) {
  const FuzzCase fc = makeFuzzCase(7);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  sim::RobustnessOptions options;
  options.replications = 24;
  options.seed = 99;
  options.perturbation.kind = sim::PerturbationKind::kLognormal;
  options.perturbation.sigma = 0.4;
  options.sim.comm = sim::CommModel::kTaskEager;
  options.sim.contention = true;

  const sim::SimPlan plan =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle);
  const auto run = [&] { return sim::evaluateRobustness(plan, options); };

  const sim::RobustnessSummary one = test::withOmpThreads(1, run);
  const sim::RobustnessSummary four = test::withOmpThreads(4, run);
  ASSERT_TRUE(one.ok) << one.error;
  ASSERT_TRUE(four.ok) << four.error;
  ASSERT_EQ(one.makespans.size(), four.makespans.size());
  for (std::size_t i = 0; i < one.makespans.size(); ++i) {
    // Bitwise equality, not approximate: the per-replication seeds are fixed
    // up front and each replication is single-threaded.
    EXPECT_EQ(one.makespans[i], four.makespans[i]) << "replication " << i;
  }
  EXPECT_EQ(one.overflowRuns, four.overflowRuns);
}

}  // namespace
}  // namespace dagpm
