// Tests for the experiment harness: instance construction, the comparison
// runner (with validation on), the harness table's reductions, and the
// Monte-Carlo runners' shared schedule pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <stdexcept>

#include "experiments/contention.hpp"
#include "experiments/faults.hpp"
#include "experiments/harness.hpp"
#include "experiments/resched.hpp"
#include "experiments/robustness.hpp"
#include "test_util.hpp"

namespace dagpm::experiments {
namespace {

using test::findRow;
using test::number;
using workflows::SizeBand;

TEST(Instances, SyntheticCountsAndNames) {
  const auto instances =
      makeSyntheticInstances({60, 100}, SizeBand::kSmall, 2);
  // 7 families x 2 sizes x 2 seeds.
  EXPECT_EQ(instances.size(), 28u);
  std::set<std::string> names;
  for (const auto& inst : instances) {
    EXPECT_TRUE(names.insert(inst.name).second) << "duplicate " << inst.name;
    EXPECT_EQ(inst.band, SizeBand::kSmall);
    EXPECT_GT(inst.dag.numVertices(), 0u);
  }
}

TEST(Instances, RealSuite) {
  const auto instances = makeRealInstances(1);
  EXPECT_EQ(instances.size(), 5u);
  for (const auto& inst : instances) {
    EXPECT_EQ(inst.band, SizeBand::kReal);
    EXPECT_EQ(static_cast<int>(inst.dag.numVertices()), inst.numTasks);
  }
}

TEST(Instances, WorkScaleShowsUpInName) {
  const auto instances =
      makeSyntheticInstances({60}, SizeBand::kSmall, 1, 4.0);
  for (const auto& inst : instances) {
    EXPECT_NE(inst.name.find("-w4"), std::string::npos);
  }
}

TEST(Runner, ComparisonValidatesAndAggregates) {
  auto instances = makeSyntheticInstances({80}, SizeBand::kSmall, 1);
  // Keep the test fast: the three high-fanout families suffice (they are
  // comfortably schedulable on the default cluster at this size).
  instances.resize(3);
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  RunnerOptions options;
  options.validate = true;  // throws on an invalid schedule
  const auto outcomes = runComparison(instances, cluster, options);
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& out : outcomes) {
    EXPECT_TRUE(out.partFeasible) << out.instance;
    EXPECT_TRUE(out.memFeasible) << out.instance;
    EXPECT_GT(out.partMakespan, 0.0);
    EXPECT_GT(out.memMakespan, 0.0);
  }
  const BenchExport exported = outcomesExport("x", {{"", outcomes}});
  const auto rollup = [](const support::JsonValue& row) {
    return row.stringOr("family", "") == "*";
  };
  ASSERT_EQ(std::ranges::count_if(exported.rows, rollup), 1);
  const support::JsonValue* small =
      findRow(exported, {{"band", "small"}, {"family", "*"}});
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(number(*small, "total"), 3);
  EXPECT_EQ(number(*small, "scheduled_both"), 3);
  EXPECT_GT(number(*small, "geomean_ratio"), 0.0);
  EXPECT_LT(number(*small, "geomean_ratio"), 1.0);  // the heuristic wins
}

TEST(HarnessTable, GroupsByFamily) {
  std::vector<RunOutcome> outcomes(4);
  outcomes[0].family = "BLAST";
  outcomes[1].family = "BLAST";
  outcomes[2].family = "BWA";
  outcomes[3].family = "BWA";
  for (auto& out : outcomes) {
    out.partFeasible = out.memFeasible = true;
    out.partMakespan = 2.0;
    out.memMakespan = 4.0;
    out.partSeconds = out.memSeconds = 1.0;
  }
  outcomes[2].partMakespan = 1.0;  // BWA ratio 0.25 and 0.5
  const BenchExport exported = outcomesExport("x", {{"", outcomes}});
  // One row per family, and the band rollup.
  ASSERT_EQ(exported.rows.size(), 3u);
  const support::JsonValue* blast = findRow(exported, {{"family", "BLAST"}});
  const support::JsonValue* bwa = findRow(exported, {{"family", "BWA"}});
  ASSERT_NE(blast, nullptr);
  ASSERT_NE(bwa, nullptr);
  EXPECT_DOUBLE_EQ(number(*blast, "geomean_ratio"), 0.5);
  EXPECT_NEAR(number(*bwa, "geomean_ratio"), std::sqrt(0.25 * 0.5), 1e-12);
}

TEST(HarnessTable, InfeasibleRunsCountedButNotAveraged) {
  std::vector<RunOutcome> outcomes(2);
  outcomes[0].partFeasible = outcomes[0].memFeasible = true;
  outcomes[0].partMakespan = 1.0;
  outcomes[0].memMakespan = 2.0;
  outcomes[1].partFeasible = false;
  outcomes[1].memFeasible = true;
  const BenchExport exported = outcomesExport("x", {{"", outcomes}});
  const support::JsonValue* small =
      findRow(exported, {{"band", "small"}, {"family", "*"}});
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(number(*small, "total"), 2);
  EXPECT_EQ(number(*small, "scheduled_both"), 1);
  EXPECT_EQ(number(*small, "part_scheduled"), 1);
  EXPECT_EQ(number(*small, "mem_scheduled"), 2);
  EXPECT_DOUBLE_EQ(number(*small, "geomean_ratio"), 0.5);
}

// The ISSUE's acceptance shape for online rescheduling: on the robustness
// instance set (real + small synthetic, quick sizes) at lognormal sigma
// >= 0.3, the event-triggered lateness policy's mean simulated makespan
// beats the no-resched baseline, while the deterministic (zero-noise) rung
// reproduces the static prediction to 1e-9 for every policy.
TEST(Rescheduling, EventTriggeredPolicyBeatsNoReschedAtLognormalNoise) {
  std::vector<Instance> instances = makeRealInstances(1);
  for (Instance& inst :
       makeSyntheticInstances({60, 150}, SizeBand::kSmall, 1)) {
    instances.push_back(std::move(inst));
  }
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const std::vector<NoiseLevel> levels = lognormalLadder({0.0, 0.3, 0.5});

  ReschedulingRunnerOptions options;
  options.replications = 4;
  options.seed = 42;
  const std::vector<ReschedOutcome> outcomes = runRescheduling(
      instances, scheduleInstances(instances, cluster), levels, options);
  ASSERT_FALSE(outcomes.empty());
  for (const ReschedOutcome& out : outcomes) {
    ASSERT_TRUE(out.ok) << out.instance << " (" << out.config << "/"
                        << out.policy << "/" << out.scheduler
                        << "): " << out.error;
    // The hindsight guard makes rescheduling monotone per replication.
    ASSERT_EQ(out.finalMakespans.size(), out.unrepairedMakespans.size());
    for (std::size_t r = 0; r < out.finalMakespans.size(); ++r) {
      EXPECT_LE(out.finalMakespans[r],
                out.unrepairedMakespans[r] * (1.0 + 1e-12) + 1e-12);
    }
    if (out.config == "sigma0") {
      // Zero noise: every policy is an exact no-op on every replication.
      for (const double m : out.finalMakespans) {
        EXPECT_NEAR(m, out.staticMakespan,
                    1e-9 * std::max(1.0, out.staticMakespan));
      }
      EXPECT_EQ(out.guardTrips, 0);
    }
  }

  const BenchExport exported = reschedulingExport("resched_test", outcomes);
  int noisyGroups = 0;
  int strictWins = 0;
  double acceptedSplices = 0.0;
  for (const std::string& sigma : {std::string("sigma0.3"),
                                   std::string("sigma0.5")}) {
    for (const std::string& scheduler : {std::string("part"),
                                         std::string("mem")}) {
      const support::JsonValue* none = findRow(
          exported,
          {{"config", sigma}, {"policy", "none"}, {"scheduler", scheduler}});
      const support::JsonValue* lateness =
          findRow(exported, {{"config", sigma},
                             {"policy", "lateness"},
                             {"scheduler", scheduler}});
      if (none == nullptr || lateness == nullptr) continue;
      ++noisyGroups;
      const double noneSlowdown = number(*none, "geomean_mean_slowdown");
      const double latenessSlowdown =
          number(*lateness, "geomean_mean_slowdown");
      // Paired noise draws + hindsight guard: never worse in aggregate ...
      EXPECT_LE(latenessSlowdown, noneSlowdown * (1.0 + 1e-12));
      if (latenessSlowdown < noneSlowdown * (1.0 - 1e-9)) ++strictWins;
      acceptedSplices += number(*lateness, "mean_reschedules");
    }
  }
  ASSERT_GT(noisyGroups, 0);
  // ... and strictly better somewhere: repairs demonstrably engage and win.
  EXPECT_GT(strictWins, 0);
  EXPECT_GT(acceptedSplices, 0.0);
}

// The Monte-Carlo runners and the contention study's oblivious arm replay a
// schedule pass instead of scheduling themselves. One pass shared by all
// four runners must give each the outcomes a pass of its own gives, at any
// OpenMP thread count.
TEST(MonteCarlo, SharedSchedulePassMatchesRebuiltPassAtAnyThreadCount) {
  std::vector<Instance> instances = makeRealInstances(1);
  instances.resize(2);
  for (Instance& inst : makeSyntheticInstances({60}, SizeBand::kSmall, 1)) {
    instances.push_back(std::move(inst));
  }
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  sim::RobustnessOptions noise;
  noise.replications = 3;
  noise.seed = 5;
  ReschedulingRunnerOptions resched;
  resched.replications = 2;
  resched.seed = 6;
  FaultRunnerOptions faults;
  faults.replications = 2;
  faults.seed = 7;
  const std::vector<NoiseLevel> noiseLevels = lognormalLadder({0.0, 0.2});
  const std::vector<NoiseLevel> stragglers = stragglerLadder({0.0, 0.25}, 4.0);
  const std::vector<FaultLevel> faultLevels = defaultFaultLadder();
  // CCR 1 reads the default cluster's pass; CCR 2 needs a pass of its own.
  const std::vector<double> ccrLadder{1.0, 2.0};
  const platform::Cluster slowLinks =
      platform::makeCluster(platform::Heterogeneity::kDefault,
                            platform::ClusterSize::kDefault, 0.5);

  struct Outcomes {
    std::vector<RobustnessOutcome> robustness;
    std::vector<ReschedOutcome> resched;
    std::vector<FaultOutcome> faults;
    std::vector<ContentionOutcome> contention;
  };
  const auto runAll = [&](bool shared) {
    const std::vector<ScheduledInstance> pass =
        scheduleInstances(instances, cluster);
    const auto schedules = [&] {
      return shared ? pass : scheduleInstances(instances, cluster);
    };
    Outcomes out;
    out.robustness = runRobustness(instances, schedules(), noiseLevels, noise);
    out.resched = runRescheduling(instances, schedules(), stragglers, resched);
    out.faults = runFaultRecovery(instances, schedules(), faultLevels, faults);
    const std::vector<ScheduledInstance> atCcr1 = schedules();
    out.contention = runContention(
        instances, ccrLadder,
        {atCcr1, scheduleInstances(instances, slowLinks)}, {});
    return out;
  };
  const Outcomes shared = test::withOmpThreads(1, [&] { return runAll(true); });
  const Outcomes rebuilt =
      test::withOmpThreads(1, [&] { return runAll(false); });
  const Outcomes threaded =
      test::withOmpThreads(3, [&] { return runAll(true); });
  ASSERT_FALSE(shared.robustness.empty());
  ASSERT_FALSE(shared.resched.empty());
  ASSERT_FALSE(shared.faults.empty());
  ASSERT_EQ(shared.contention.size(), instances.size() * ccrLadder.size());
  EXPECT_TRUE(shared.robustness == rebuilt.robustness);
  EXPECT_TRUE(shared.resched == rebuilt.resched);
  EXPECT_TRUE(shared.faults == rebuilt.faults);
  EXPECT_TRUE(shared.contention == rebuilt.contention);
  EXPECT_TRUE(shared.robustness == threaded.robustness);
  EXPECT_TRUE(shared.resched == threaded.resched);
  EXPECT_TRUE(shared.faults == threaded.faults);
  EXPECT_TRUE(shared.contention == threaded.contention);
}

// A pass can skip either algorithm: the skipped half stays a default
// (infeasible) schedule and the other half equals the full pass's.
TEST(Runner, PassSkipsAnAlgorithmPassedAsNullopt) {
  std::vector<Instance> instances = makeRealInstances(1);
  instances.resize(2);
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const std::vector<ScheduledInstance> full =
      scheduleInstances(instances, cluster);
  const std::vector<ScheduledInstance> partOnly = scheduleInstances(
      instances, cluster, scheduler::DagHetPartConfig{}, std::nullopt);
  const std::vector<ScheduledInstance> memOnly = scheduleInstances(
      instances, cluster, std::nullopt, scheduler::DagHetMemConfig{});
  ASSERT_EQ(partOnly.size(), full.size());
  ASSERT_EQ(memOnly.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_TRUE(full[i].part.feasible && full[i].mem.feasible);
    EXPECT_EQ(partOnly[i].part.makespan, full[i].part.makespan);
    EXPECT_EQ(partOnly[i].part.blockOf, full[i].part.blockOf);
    EXPECT_FALSE(partOnly[i].mem.feasible);
    EXPECT_TRUE(partOnly[i].mem.blockOf.empty());
    EXPECT_EQ(memOnly[i].mem.makespan, full[i].mem.makespan);
    EXPECT_EQ(memOnly[i].mem.blockOf, full[i].mem.blockOf);
    EXPECT_FALSE(memOnly[i].part.feasible);
  }
}

/// What a replay cell saw of its plan, recorded by probeReplays (the plans
/// live only as long as the replay loop, so only addresses are kept).
struct ReplayProbe : OutcomeKey {
  std::size_t index = 0;  // the cell's instance index
  std::size_t oracleEvaluations = 0;  // of the cell's oracle, at the replay
  const sim::SimPlan* plan = nullptr;
  bool ok = false;
  const graph::Dag* dag = nullptr;
  const platform::Cluster* cluster = nullptr;
  const scheduler::ScheduleResult* schedule = nullptr;
};

/// Every cell of `pass` at three levels and two policies.
std::vector<ReplayProbe> probeReplays(std::span<const Instance> instances,
                                      std::span<const ScheduledInstance> pass) {
  return replayScheduled<ReplayProbe>(
      instances, pass, lognormalLadder({0.0, 0.1, 0.2}), &NoiseLevel::config,
      2, [](ReplayProbe& out, const ReplayCell& cell) {
        const sim::detail::PlanData& d = cell.plan.data();
        out.index = cell.instance;
        out.oracleEvaluations = cell.oracle.evaluations();
        out.plan = &cell.plan;
        out.ok = cell.plan.ok();
        out.dag = d.g;
        out.cluster = d.cluster;
        out.schedule = d.schedule;
      });
}

std::vector<Instance> twoRealOneSynthetic() {
  std::vector<Instance> instances = makeRealInstances(1);
  instances.resize(2);
  instances.push_back(
      std::move(makeSyntheticInstances({60}, SizeBand::kSmall, 1).front()));
  return instances;
}

// Every replay of one (instance, scheduler) reads one plan, prepared once on
// the pass's own workflow, cluster and schedule. Preparing a plan asks the
// instance's oracle for every block's order, so an oracle that evaluates
// nothing between an instance's replays shows that no replay prepared one
// (a plan address alone could be a reused stack slot).
TEST(MonteCarlo, ReplayCellsOfOneScheduleShareOnePlan) {
  const std::vector<Instance> instances = twoRealOneSynthetic();
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const std::vector<ScheduledInstance> pass =
      scheduleInstances(instances, cluster);
  std::size_t feasible = 0;
  for (const ScheduledInstance& entry : pass) {
    feasible += (entry.part.feasible ? 1 : 0) + (entry.mem.feasible ? 1 : 0);
  }
  ASSERT_GT(feasible, 0u);
  const std::vector<ReplayProbe> probes = probeReplays(instances, pass);
  EXPECT_EQ(probes.size(), feasible * 3 * 2);
  std::map<std::pair<std::size_t, std::string>, const sim::SimPlan*> planOf;
  std::map<std::size_t, std::size_t> evaluationsOf;
  for (const ReplayProbe& probe : probes) {
    const ScheduledInstance& entry = pass[probe.index];
    const bool part = probe.scheduler == "part";
    planOf.try_emplace({probe.index, probe.scheduler}, probe.plan);
    EXPECT_EQ(planOf.at({probe.index, probe.scheduler}), probe.plan)
        << probe.index << " " << probe.scheduler;
    evaluationsOf.try_emplace(probe.index, probe.oracleEvaluations);
    EXPECT_GT(probe.oracleEvaluations, 0u);
    EXPECT_EQ(evaluationsOf.at(probe.index), probe.oracleEvaluations)
        << probe.index << " " << probe.config << " " << probe.scheduler;
    EXPECT_TRUE(probe.ok);
    EXPECT_EQ(probe.dag, &instances[probe.index].dag);
    EXPECT_EQ(probe.cluster, &entry.scaled);
    EXPECT_EQ(probe.schedule, part ? &entry.part : &entry.mem);
  }
  EXPECT_EQ(planOf.size(), feasible);
}

// runFaultRecovery prepares its plans on a copy of the pass whose clusters
// carry the spare processors, so its runs and their evacuations use the
// cluster the faults strike; the schedules are the pass's.
TEST(MonteCarlo, FaultRecoveryPlansHaveTheSpareProcessors) {
  const std::vector<Instance> instances = twoRealOneSynthetic();
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const std::vector<ScheduledInstance> pass =
      scheduleInstances(instances, cluster);
  const std::vector<ScheduledInstance> spared =
      addSpareProcessors(pass, kSpareProcessors);
  ASSERT_EQ(spared.size(), pass.size());
  for (std::size_t i = 0; i < pass.size(); ++i) {
    const platform::Cluster& scaled = pass[i].scaled;
    ASSERT_EQ(spared[i].scaled.numProcessors(),
              scaled.numProcessors() + kSpareProcessors);
    for (platform::ProcessorId p = 0; p < scaled.numProcessors(); ++p) {
      EXPECT_EQ(spared[i].scaled.speed(p), scaled.speed(p));
      EXPECT_EQ(spared[i].scaled.memory(p), scaled.memory(p));
    }
    for (const auto half :
         {&ScheduledInstance::part, &ScheduledInstance::mem}) {
      EXPECT_EQ((spared[i].*half).feasible, (pass[i].*half).feasible);
      EXPECT_EQ((spared[i].*half).blockOf, (pass[i].*half).blockOf);
      EXPECT_EQ((spared[i].*half).procOfBlock, (pass[i].*half).procOfBlock);
    }
  }
  const std::vector<ReplayProbe> probes = probeReplays(instances, spared);
  ASSERT_FALSE(probes.empty());
  for (const ReplayProbe& probe : probes) {
    EXPECT_TRUE(probe.ok);
    EXPECT_EQ(probe.cluster, &spared[probe.index].scaled);
  }
}

// A pass shorter than its instance list is rejected before a replay can
// read past its end; callers hand the runners prefixes of longer passes.
TEST(MonteCarlo, ShortSchedulePassIsRejected) {
  std::vector<Instance> instances = makeRealInstances(1);
  instances.resize(2);
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  std::vector<ScheduledInstance> pass = scheduleInstances(instances, cluster);
  pass.pop_back();
  sim::RobustnessOptions noise;
  noise.replications = 1;
  EXPECT_THROW(runRobustness(instances, pass, lognormalLadder({0.0}), noise),
               std::invalid_argument);
  EXPECT_THROW(runRescheduling(instances, pass, stragglerLadder({0.0}, 4.0),
                               ReschedulingRunnerOptions{}),
               std::invalid_argument);
  EXPECT_THROW(runFaultRecovery(instances, pass, defaultFaultLadder(),
                                FaultRunnerOptions{}),
               std::invalid_argument);
}

// runContention reads rung r's oblivious schedules from pass r: the passes
// must cover every instance, one per rung, at the rung's bandwidth.
TEST(Contention, PassesMustMatchTheLadder) {
  std::vector<Instance> instances = makeRealInstances(1);
  instances.resize(2);
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const std::vector<ScheduledInstance> pass =
      scheduleInstances(instances, cluster);
  const std::span<const ScheduledInstance> shortPass =
      std::span(pass).first(1);
  EXPECT_THROW(runContention(instances, {1.0}, {shortPass}, {}),
               std::invalid_argument);
  EXPECT_THROW(runContention(instances, {1.0, 2.0}, {pass}, {}),
               std::invalid_argument);
  EXPECT_THROW(runContention(instances, {2.0}, {pass}, {}),
               std::invalid_argument);
  EXPECT_EQ(runContention(instances, {1.0}, {pass}, {}).size(), 2u);
}

TEST(Contention, AwareSchedulingImprovesSimulatedMakespanAtHighCcr) {
  // The acceptance shape of the contention experiment: at CCR >= 1 (slow
  // links, overlapping transfers) the contention-aware pipeline's fair-share
  // simulated makespan beats the oblivious pipeline's in geometric mean, and
  // it never loses in aggregate at any rung. Everything is deterministic, so
  // this is a fixed property of the code, not a statistical one.
  std::vector<Instance> instances = makeRealInstances(1);
  for (Instance& inst :
       makeSyntheticInstances({60}, workflows::SizeBand::kSmall, 1)) {
    instances.push_back(std::move(inst));
  }
  const std::vector<double> ladder{1.0, 2.0, 4.0};
  scheduler::DagHetPartConfig part;
  part.sweep = scheduler::KPrimeSweep::kDoubling;
  // Each rung's oblivious arm: the pass at bandwidth 1/ccr.
  std::vector<std::vector<ScheduledInstance>> passes;
  for (const double ccr : ladder) {
    passes.push_back(scheduleInstances(
        instances,
        platform::makeCluster(platform::Heterogeneity::kDefault,
                              platform::ClusterSize::kDefault, 1.0 / ccr),
        part));
  }
  const std::vector<ContentionOutcome> outcomes = runContention(
      instances, ladder, {passes.begin(), passes.end()}, part);

  const BenchExport exported = contentionExport("contention_test", outcomes);
  int strictWins = 0;
  for (const double ccr : ladder) {
    std::ostringstream config;
    config << "ccr" << ccr;
    const support::JsonValue* row =
        findRow(exported, {{"config", config.str()}, {"band", "all"}});
    ASSERT_NE(row, nullptr);
    ASSERT_GT(number(*row, "comparable"), 0);
    // The gap is real: contention delays the oblivious schedule ...
    EXPECT_GE(number(*row, "geomean_optimism_gap"), 1.0 - 1e-9);
    // ... and aware scheduling never loses in geomean ...
    const double aware = number(*row, "geomean_aware_simulated");
    const double oblivious = number(*row, "geomean_oblivious_simulated");
    EXPECT_LE(aware, oblivious * (1.0 + 1e-9));
    if (aware < oblivious * (1.0 - 1e-9)) ++strictWins;
  }
  // ... and strictly wins on at least one rung of the ladder.
  EXPECT_GT(strictWins, 0);
}

// The aware arm wins (loses) only beyond 1e-9 x the oblivious simulated
// makespan: exactly at the tolerance it ties.
TEST(Contention, WinToleranceIsOneBillionthOfTheObliviousMakespan) {
  std::vector<ContentionOutcome> outcomes;
  for (const double aware : {1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 2e-9, 1.0 + 2e-9}) {
    ContentionOutcome& out = outcomes.emplace_back();
    out.config = "ccr1";
    out.obliviousFeasible = out.awareFeasible = true;
    out.obliviousStatic = 0.5;
    out.obliviousSimulated = 1.0;
    out.awareSimulated = aware;
  }
  const BenchExport exported = contentionExport("contention_test", outcomes);
  const support::JsonValue* row = findRow(exported, {{"band", "all"}});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(number(*row, "comparable"), 4.0);
  EXPECT_EQ(number(*row, "aware_wins"), 1.0);
  EXPECT_EQ(number(*row, "aware_losses"), 1.0);
}

// The recovered share of each outcome is clamped to [0, 1]: an aware arm
// below the static prediction recovers all of the gap, one slower than the
// oblivious arm none of it.
TEST(Contention, RecoveredShareIsClampedToTheUnitInterval) {
  const auto recovered = [](double aware) {
    ContentionOutcome out;
    out.config = "ccr1";
    out.obliviousFeasible = out.awareFeasible = true;
    out.obliviousStatic = 1.0;
    out.obliviousSimulated = 2.0;
    out.awareSimulated = aware;
    const BenchExport exported = contentionExport("contention_test", {out});
    const support::JsonValue* row = findRow(exported, {{"band", "all"}});
    return row == nullptr ? std::nan("") : number(*row, "recovered_fraction");
  };
  EXPECT_EQ(recovered(1.5), 0.5);
  EXPECT_EQ(recovered(0.5), 1.0);
  EXPECT_EQ(recovered(3.0), 0.0);
}

// A replication whose greedy re-execution failed outright but whose repair
// recovered counts as a full recovery; one where greedy did not degrade
// does not count at all.
TEST(FaultRecovery, GreedyFailureCountsAsFullRecovery) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(recoveredShare(5.0, kInf, 4.0), 1.0);
  EXPECT_EQ(recoveredShare(5.0, 6.0, 4.0), 0.5);
  EXPECT_EQ(recoveredShare(4.0, 4.0, 4.0), std::nullopt);
}

}  // namespace
}  // namespace dagpm::experiments
