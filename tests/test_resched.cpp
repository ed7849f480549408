// Online rescheduling tests: engine pause/resume transparency, the
// zero-noise no-op property, realized-makespan monotonicity under the
// hindsight guard, residual/splice validity (no executed task reassigned,
// memory respected, quotient acyclic), projection/simulation agreement, and
// bit-reproducibility across OpenMP thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>

#include "comm/cost_model.hpp"
#include "experiments/faults.hpp"
#include "experiments/resched.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"
#include "quotient/timeline.hpp"
#include "resched/repair.hpp"
#include "resched/resched.hpp"
#include "resched/residual.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"
#include "sim/engine.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dagpm {
namespace {

using graph::VertexId;
using scheduler::ScheduleResult;
using scheduler::staticMakespan;
using test::PauseEveryNthFinish;

using FuzzCase = test::ScheduledFuzzCase;

FuzzCase makeFuzzCase(std::uint64_t seed) {
  return test::makeTightFuzzCase(seed, seed);
}

/// Expects two executions to record the same task events, bit for bit.
void expectSameEvents(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t v = 0; v < a.events.size(); ++v) {
    const sim::TaskEvent& x = a.events[v];
    const sim::TaskEvent& y = b.events[v];
    EXPECT_EQ(x.block, y.block) << "task " << v;
    EXPECT_EQ(x.proc, y.proc) << "task " << v;
    EXPECT_EQ(x.ready, y.ready) << "task " << v;
    EXPECT_EQ(x.start, y.start) << "task " << v;
    EXPECT_EQ(x.finish, y.finish) << "task " << v;
  }
}

/// Runs `opts` on `plan` once whole and once chopped into pieces by a pause
/// at every `period`-th task finish, each piece resuming from the previous
/// one's checkpoint, and expects the two runs to be bit-identical.
/// Returns the whole run.
sim::SimResult expectSeamlessResume(const sim::SimPlan& plan,
                                    const sim::SimOptions& opts,
                                    int period) {
  const sim::SimResult whole = sim::simulateSchedule(plan, opts);
  EXPECT_TRUE(whole.ok) << whole.error;
  PauseEveryNthFinish pacer(period);
  sim::SimOptions paced = opts;
  paced.observer = &pacer;
  sim::SimCheckpoint checkpoint;
  sim::SimResult pieces = sim::simulateSchedule(plan, paced);
  int pauses = 0;
  while (pieces.ok && pieces.paused) {
    ++pauses;
    checkpoint = std::move(pieces.checkpoint);
    paced.resume = &checkpoint;
    pieces = sim::simulateSchedule(plan, paced);
  }
  EXPECT_TRUE(pieces.ok) << pieces.error;
  EXPECT_GT(pauses, 0);
  EXPECT_EQ(pieces.makespan, whole.makespan);
  EXPECT_EQ(pieces.numTransfers, whole.numTransfers);
  EXPECT_EQ(pieces.memoryOverflows, whole.memoryOverflows);
  expectSameEvents(pieces, whole);
  EXPECT_EQ(pieces.faultLog.size(), whole.faultLog.size());
  for (std::size_t i = 0;
       i < std::min(pieces.faultLog.size(), whole.faultLog.size()); ++i) {
    const sim::FaultEvent& a = pieces.faultLog[i];
    const sim::FaultEvent& b = whole.faultLog[i];
    EXPECT_EQ(a.proc, b.proc) << "fault " << i;
    EXPECT_EQ(a.kind, b.kind) << "fault " << i;
    EXPECT_EQ(a.time, b.time) << "fault " << i;
    EXPECT_EQ(a.recover, b.recover) << "fault " << i;
    EXPECT_EQ(a.killedTask, b.killedTask) << "fault " << i;
  }
  return whole;
}

class ReschedFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ReschedFuzz, PauseResumeIsSeamlessUnderNoise) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  const memory::MemDagOracle oracle(fc.dag);
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, fc.cluster, *schedule, oracle);
    ASSERT_TRUE(plan.ok()) << plan.error();

    sim::PerturbationSpec spec;
    spec.kind = sim::PerturbationKind::kLognormal;
    spec.sigma = 0.3;
    const auto model =
        sim::makePerturbation(spec, fc.cluster.numProcessors());
    sim::SimOptions opts;
    opts.perturbation = model.get();
    opts.seed = GetParam() * 17 + 3;
    // Perturbation streams are per-entity and the checkpoint is complete.
    expectSeamlessResume(plan, opts, 3);
  }
}

TEST_P(ReschedFuzz, PauseResumeIsSeamlessUnderCrashes) {
  // Transient crashes strike while the run is chopped at every task
  // finish: the checkpoint carries the dead-until instants, the consumed
  // fault events and the fault log across every resume.
  const FuzzCase fc = makeFuzzCase(GetParam());
  const memory::MemDagOracle oracle(fc.dag);
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, fc.cluster, *schedule, oracle);
    ASSERT_TRUE(plan.ok()) << plan.error();

    sim::FaultSpec spec;
    spec.failStopProbability = 0.0;
    spec.crashProbability = 0.9;
    spec.horizon = std::max(schedule->makespan, 1e-9);
    spec.downtime = schedule->makespan * 0.1;
    spec.maxCrashesPerProcessor = 2;
    sim::FaultModel faults(spec, fc.cluster.numProcessors());
    sim::PerturbationSpec noise;
    noise.kind = sim::PerturbationKind::kLognormal;
    noise.sigma = 0.3;
    const auto model =
        sim::makePerturbation(noise, fc.cluster.numProcessors());
    sim::SimOptions opts;
    opts.perturbation = model.get();
    opts.faults = &faults;
    opts.seed = GetParam() * 29 + 11;
    const sim::SimResult whole = expectSeamlessResume(plan, opts, 1);
    EXPECT_FALSE(whole.faultLog.empty());
  }
}

TEST_P(ReschedFuzz, ZeroNoiseIsAnExactNoOpForEveryPolicy) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  const memory::MemDagOracle oracle(fc.dag);
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    const double expected = staticMakespan(fc.dag, fc.cluster, *schedule);
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, fc.cluster, *schedule, oracle);
    for (const resched::TriggerPolicy trigger :
         {resched::TriggerPolicy::kNone, resched::TriggerPolicy::kInterval,
          resched::TriggerPolicy::kLateness,
          resched::TriggerPolicy::kStraggler}) {
      resched::RescheduleOptions options;
      options.policy.trigger = trigger;
      const resched::RescheduleResult run =
          resched::runOnline(plan, oracle, options);
      ASSERT_TRUE(run.ok) << run.error;
      EXPECT_EQ(run.reschedulesAccepted, 0)
          << resched::triggerPolicyName(trigger);
      EXPECT_FALSE(run.guardTripped);
      const double tol = 1e-9 * std::max(1.0, expected);
      EXPECT_NEAR(run.unrepairedMakespan, expected, tol);
      EXPECT_NEAR(run.repairedMakespan, expected, tol);
      EXPECT_NEAR(run.finalMakespan, expected, tol);
    }
  }
}

TEST_P(ReschedFuzz, ForcedRepairsAtZeroNoiseNeverWorsen) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  if (!fc.part.feasible) GTEST_SKIP() << "infeasible instance";
  const memory::MemDagOracle oracle(fc.dag);
  const double expected = staticMakespan(fc.dag, fc.cluster, fc.part);

  // Force repair attempts through the drift gate: under zero noise realized
  // equals projected, so any accepted splice must strictly improve and the
  // final makespan can only drop below the static prediction.
  resched::RescheduleOptions options;
  options.policy.trigger = resched::TriggerPolicy::kInterval;
  options.policy.intervalFraction = 0.15;
  options.policy.driftTolerance = -1.0;
  options.policy.minGain = 1e-6;
  options.policy.hindsightGuard = false;
  const resched::RescheduleResult run = resched::runOnline(
      sim::prepareSimulation(fc.dag, fc.cluster, fc.part, oracle), oracle,
      options);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_LE(run.finalMakespan, expected * (1.0 + 1e-9));
  for (const resched::RepairRecord& repair : run.repairs) {
    if (!repair.accepted) continue;
    EXPECT_LT(repair.projectedAfter, repair.projectedBefore);
    // The repair's residual projection and the engine's deterministic
    // resumed replay are two computations of the same quantity.
    EXPECT_NEAR(repair.resumedProjection, repair.projectedAfter,
                1e-9 * std::max(1.0, repair.projectedAfter));
  }
  if (!run.repairs.empty() && run.repairs.back().accepted) {
    EXPECT_NEAR(run.repairedMakespan, run.repairs.back().resumedProjection,
                1e-9 * std::max(1.0, run.repairedMakespan));
  }
}

TEST_P(ReschedFuzz, GuardedMakespanIsMonotoneUnderLognormalNoise) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  const memory::MemDagOracle oracle(fc.dag);
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    resched::RescheduleOptions options;
    options.policy.trigger = resched::TriggerPolicy::kLateness;
    options.policy.latenessThreshold = 0.02;
    options.policy.minGain = 0.002;
    options.perturbation.kind = sim::PerturbationKind::kLognormal;
    options.perturbation.sigma = 0.4;
    options.seed = GetParam() * 1009 + 7;
    const resched::RescheduleResult run = resched::runOnline(
        sim::prepareSimulation(fc.dag, fc.cluster, *schedule, oracle), oracle,
        options);
    ASSERT_TRUE(run.ok) << run.error;
    // The hindsight guard reports min(repaired, unrepaired): monotone on
    // every seed by construction, and the bookkeeping must agree.
    EXPECT_LE(run.finalMakespan,
              run.unrepairedMakespan * (1.0 + 1e-12) + 1e-12);
    EXPECT_EQ(run.finalMakespan,
              std::min(run.repairedMakespan, run.unrepairedMakespan));
    EXPECT_EQ(run.guardTripped,
              run.unrepairedMakespan < run.repairedMakespan);
  }
}

/// Splice validity: executed work never moves, memory and acyclicity hold.
TEST_P(ReschedFuzz, SplicedSchedulesAreValidResiduals) {
  const FuzzCase fc = makeFuzzCase(GetParam());
  if (!fc.part.feasible) GTEST_SKIP() << "infeasible instance";
  const memory::MemDagOracle oracle(fc.dag);
  resched::RescheduleOptions options;
  options.policy.trigger = resched::TriggerPolicy::kLateness;
  options.policy.latenessThreshold = 0.01;
  options.policy.driftTolerance = 0.0;
  options.policy.minGain = 1e-6;
  options.policy.maxReschedules = 16;
  options.perturbation.kind = sim::PerturbationKind::kLognormal;
  options.perturbation.sigma = 0.5;
  options.seed = GetParam() ^ 0x5bd1e995u;
  const resched::RescheduleResult run = resched::runOnline(
      sim::prepareSimulation(fc.dag, fc.cluster, fc.part, oracle), oracle,
      options);
  ASSERT_TRUE(run.ok) << run.error;

  const ScheduleResult* previous = &fc.part;
  for (const resched::RepairRecord& repair : run.repairs) {
    if (!repair.accepted) continue;
    const ScheduleResult& spliced = repair.schedule;
    ASSERT_EQ(spliced.blockOf.size(), fc.dag.numVertices());
    ASSERT_GT(spliced.numBlocks(), 0u);

    // (a) Started (a fortiori completed) tasks keep their processor, and
    // started tasks stay grouped exactly as before.
    std::map<std::uint32_t, std::uint32_t> blockImage;
    for (VertexId v = 0; v < fc.dag.numVertices(); ++v) {
      if (repair.startedTasksAtSplice[v] == 0) continue;
      const std::uint32_t oldBlock = previous->blockOf[v];
      const std::uint32_t newBlock = spliced.blockOf[v];
      EXPECT_EQ(spliced.procOfBlock[newBlock],
                previous->procOfBlock[oldBlock])
          << "task " << v << " moved processors after starting";
      const auto [it, fresh] = blockImage.try_emplace(oldBlock, newBlock);
      EXPECT_EQ(it->second, newBlock)
          << "started block " << oldBlock << " was torn apart";
    }

    // (b) Live blocks (some task not yet started) sit on pairwise distinct
    // processors and respect their processor's memory.
    std::map<std::uint32_t, std::vector<VertexId>> members;
    std::map<std::uint32_t, bool> live;
    for (VertexId v = 0; v < fc.dag.numVertices(); ++v) {
      members[spliced.blockOf[v]].push_back(v);
      if (repair.startedTasksAtSplice[v] == 0) live[spliced.blockOf[v]] = true;
    }
    std::map<platform::ProcessorId, int> liveOnProc;
    for (const auto& [block, blockMembers] : members) {
      if (live.find(block) == live.end()) continue;
      const platform::ProcessorId proc = spliced.procOfBlock[block];
      ++liveOnProc[proc];
      EXPECT_LE(oracle.blockRequirement(blockMembers),
                fc.cluster.memory(proc) * (1.0 + 1e-9))
          << "block " << block << " exceeds processor " << proc;
    }
    for (const auto& [proc, count] : liveOnProc) {
      EXPECT_EQ(count, 1) << "two live blocks share processor " << proc;
    }

    // (c) The full quotient of the spliced schedule stays acyclic.
    const quotient::QuotientGraph q(fc.dag, spliced.blockOf,
                                    spliced.numBlocks());
    EXPECT_TRUE(q.isAcyclic());

    previous = &spliced;
  }
}

/// Repair outcomes (test::hashRepairOutcome) of the online driver under
/// straggler noise, which draws uniforms only, so the hashes do not depend
/// on the platform's libm: part and mem schedules, default and forced
/// policy, contention off and on. A refactor of the residual or repair code
/// must reproduce every projection, count and final mapping bit for bit.
TEST_P(ReschedFuzz, RepairOutcomesMatchPinnedHashes) {
  constexpr std::uint64_t kPinned[] = {
      0x9ebb3a068d34fc97ULL, 0xa48ae0244c2f1f28ULL, 0xf89ff2101c42bb1bULL,
      0x0750d0c5660f2485ULL, 0x16a4864fa85d2073ULL, 0xd48dff176fe49633ULL,
      0xd4e94893557095d0ULL, 0x94ed7de87d01d015ULL, 0x18717f0589e5498dULL,
      0xf41090503dec785aULL};
  const std::uint64_t seed = GetParam();
  const FuzzCase fc = makeFuzzCase(seed);
  const memory::MemDagOracle oracle(fc.dag);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    // One plan serves all four runs, as in the resched_recovery study.
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, fc.cluster, *schedule, oracle);
    for (const bool forced : {false, true}) {
      for (const bool contention : {false, true}) {
        resched::RescheduleOptions options;
        options.seed = seed * 31 + 7;
        options.contention = contention;
        options.perturbation.kind = sim::PerturbationKind::kStraggler;
        options.perturbation.stragglerProbability = 0.25;
        options.perturbation.stragglerFactor = 3.0;
        if (forced) {
          options.policy.trigger = resched::TriggerPolicy::kInterval;
          options.policy.intervalFraction = 0.15;
          options.policy.driftTolerance = -1.0;
          options.policy.minGain = 1e-6;
          options.policy.hindsightGuard = false;
        }
        h = test::hashRepairOutcome(
            h, resched::runOnline(plan, oracle, options));
      }
    }
  }
  EXPECT_EQ(h, kPinned[seed - 1]) << "seed " << seed << " hash 0x"
                                  << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReschedFuzz,
                         testing::Range<std::uint64_t>(1, 11));

/// Repair outcomes of fail-stop recovery on the FaultFuzz cases (same
/// workflows, schedules and spare-augmented clusters, same fuzzed fault
/// rates), with transient crashes off so processor downtime never enters
/// the projection; contention off and on.
class FaultRepairPinned : public testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultRepairPinned, RepairOutcomesMatchPinnedHashes) {
  constexpr std::uint64_t kPinned[] = {
      0x27c45c5b5500a829ULL, 0xa7da4845043cd28aULL, 0x35493092885ac951ULL,
      0x102b43dc105fb1c5ULL, 0xbba05bcb31517c11ULL, 0xcffc24a064986c70ULL,
      0x57fe3db44891154cULL, 0x7a2d5f20beabaf3dULL, 0xb048ab0a5416e305ULL,
      0x17962ee0a4cd10daULL, 0x0e41e2c45819e3c5ULL, 0xd1e668549bd24ea6ULL,
      0x8b8e88a938237505ULL, 0x7a314577f4d53695ULL, 0x885d3724d8e65ec1ULL,
      0x0e716ac4ad1bfa41ULL};
  const std::uint64_t seed = GetParam();
  const FuzzCase fc = test::makeTightFuzzCase(seed * 131 + 17, seed);
  const memory::MemDagOracle oracle(fc.dag);
  const platform::Cluster augmented =
      experiments::addSpareProcessors(fc.cluster, 2);
  support::Rng rates(sim::mixSeed(seed, 0xfa17));
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    sim::FaultSpec spec;
    spec.failStopProbability = 0.2 + 0.5 * rates.uniformReal();
    rates.uniformReal();  // FaultFuzz's crash rate, drawn but unused here
    spec.crashProbability = 0.0;
    spec.horizon = std::max(schedule->makespan * 0.8, 1e-9);
    spec.downtime = schedule->makespan * 0.05;
    spec.maxCrashesPerProcessor = 2;
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, augmented, *schedule, oracle);
    for (const bool contention : {false, true}) {
      sim::FaultModel faults(spec, augmented.numProcessors());
      resched::RescheduleOptions options;
      options.seed = seed * 977 + 5;
      options.contention = contention;
      options.faults = &faults;
      h = test::hashRepairOutcome(h,
                                  resched::runOnline(plan, oracle, options));
    }
  }
  EXPECT_EQ(h, kPinned[seed - 1]) << "seed " << seed << " hash 0x"
                                  << std::hex << h;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultRepairPinned,
                         testing::Range<std::uint64_t>(1, 17));

TEST(ReschedEngine, ObserverAndResumeRejectedInEagerMode) {
  const FuzzCase fc = makeFuzzCase(2);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  PauseEveryNthFinish pacer(1);
  sim::SimOptions opts;
  opts.comm = sim::CommModel::kTaskEager;
  opts.observer = &pacer;
  const sim::SimResult run =
      sim::simulateSchedule(fc.dag, fc.cluster, schedule, oracle, opts);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("block-synchronous"), std::string::npos);
}

TEST(ReschedEngine, CheckpointStateIsConsistent) {
  const FuzzCase fc = makeFuzzCase(4);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  const sim::SimPlan plan =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle);
  ASSERT_TRUE(plan.ok()) << plan.error();
  PauseEveryNthFinish pacer(2);
  sim::SimOptions opts;
  opts.observer = &pacer;
  const sim::SimResult run = sim::simulateSchedule(plan, opts);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(run.paused);
  const sim::SimCheckpoint& ck = run.checkpoint;
  std::size_t completed = 0;
  for (const char c : ck.taskCompleted) completed += c != 0 ? 1 : 0;
  EXPECT_EQ(completed, ck.tasksDone);
  EXPECT_EQ(ck.blocks.size(), schedule.numBlocks());
  std::size_t doneAcrossBlocks = 0;
  for (const sim::BlockState& bs : ck.blocks) {
    EXPECT_LE(bs.done, bs.nextStep);
    doneAcrossBlocks += bs.done;
  }
  EXPECT_EQ(doneAcrossBlocks, ck.tasksDone);
  for (const sim::RunningTaskState& r : ck.running) {
    EXPECT_LT(r.proc, fc.cluster.numProcessors());
    EXPECT_LT(r.task, fc.dag.numVertices());
    EXPECT_GE(r.finish, ck.now);
    EXPECT_EQ(ck.taskCompleted[r.task], 0);
  }
  EXPECT_LE(ck.makespanSoFar, ck.now + 1e-12);
}

TEST(ReschedSplice, ResentTransfersLeaveAtTheSpliceInstant) {
  // Moving a freed block off its processor discards the inputs it already
  // received; the splice re-sends them from their completed producers. The
  // re-sends are dispatched at the splice instant, and the resumed run's
  // transfer log reports them starting there.
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 10 && checked == 0; ++seed) {
    const FuzzCase fc = makeFuzzCase(seed);
    if (!fc.part.feasible) continue;
    const memory::MemDagOracle oracle(fc.dag);
    const sim::SimPlan plan =
        sim::prepareSimulation(fc.dag, fc.cluster, fc.part, oracle);
    ASSERT_TRUE(plan.ok()) << plan.error();
    const auto model = sim::makePerturbation({}, fc.cluster.numProcessors());
    for (int period = 2; period <= 8 && checked == 0; ++period) {
      PauseEveryNthFinish pacer(period);
      sim::SimOptions opts;
      opts.observer = &pacer;
      const sim::SimResult paused = sim::simulateSchedule(plan, opts);
      ASSERT_TRUE(paused.ok) << paused.error;
      if (!paused.paused) continue;
      const sim::SimCheckpoint& ck = paused.checkpoint;
      const resched::ResidualState residual =
          resched::buildResidual(plan, ck, oracle);
      for (quotient::BlockId i = 0;
           i < residual.blocks.size() && checked == 0; ++i) {
        if (!residual.live(i) || residual.blocks[i].pinned) continue;
        for (platform::ProcessorId p = 0;
             p < fc.cluster.numProcessors() && checked == 0; ++p) {
          if (residual.procHostsLive[p] != 0) continue;
          resched::ResidualState state = residual;
          state.procHostsLive[state.q.node(i).proc] = 0;
          state.q.setProcessor(i, p);
          state.procHostsLive[p] = 1;
          model->beginRun(opts.seed);
          const resched::Splice splice =
              resched::buildSplice(plan, ck, state, *model);
          if (splice.resendTransfers == 0) continue;
          ++checked;

          const quotient::BlockId moved = splice.oldToNew[i];
          std::size_t resent = 0;
          for (const sim::TransferState& t : splice.checkpoint.transfers) {
            if (t.dstBlock != moved) continue;
            ++resent;
            EXPECT_EQ(t.dispatched, ck.now);
          }
          EXPECT_GT(resent, 0u);

          const sim::SimPlan splicedPlan = sim::prepareSimulation(
              fc.dag, fc.cluster, splice.schedule, oracle, &splice.hints);
          ASSERT_TRUE(splicedPlan.ok()) << splicedPlan.error();
          sim::SimOptions resume;
          resume.resume = &splice.checkpoint;
          resume.recordTransfers = true;
          const sim::SimResult rest =
              sim::simulateSchedule(splicedPlan, resume);
          ASSERT_TRUE(rest.ok) << rest.error;
          std::size_t atSplice = 0;
          for (const sim::TransferRecord& r : rest.transferLog) {
            EXPECT_GE(r.start, ck.now);
            if (r.dstBlock == moved && r.start == ck.now) ++atSplice;
          }
          EXPECT_EQ(atSplice, resent);
        }
      }
    }
  }
  EXPECT_GT(checked, 0) << "no splice re-sent a transfer";
}

/// A chain s -> a -> b -> c plus a branch s -> y, one task per block on
/// processors 0-4 (processor 5 is spare), every task 3 units of work except
/// s (1 unit), every edge 2 units of data on a unit-bandwidth backbone,
/// paused at s's finish (t = 1): blocks a, b, c and y are freed, and s's
/// transfers to a and y are in flight.
class ChainResidual : public testing::Test {
 protected:
  static constexpr quotient::BlockId kA = 1, kB = 2, kC = 3, kY = 4;
  static constexpr platform::ProcessorId kSpare = 5;

  void SetUp() override {
    for (int v = 0; v < 5; ++v) dag_.addVertex(v == 0 ? 1.0 : 3.0, 1.0);
    dag_.addEdge(0, 1, 2.0);
    dag_.addEdge(1, 2, 2.0);
    dag_.addEdge(2, 3, 2.0);
    dag_.addEdge(0, 4, 2.0);
    cluster_ = platform::Cluster(
        std::vector<platform::Processor>(6, {"p", 1.0, 100.0}), 1.0);
    schedule_.feasible = true;
    schedule_.blockOf = {0, 1, 2, 3, 4};
    schedule_.procOfBlock = {0, 1, 2, 3, 4};
    oracle_.emplace(dag_);
    plan_ = sim::prepareSimulation(dag_, cluster_, schedule_, *oracle_);
    ASSERT_TRUE(plan_.ok()) << plan_.error();
    PauseEveryNthFinish pacer(1);
    sim::SimOptions opts;
    opts.observer = &pacer;
    sim::SimResult run = sim::simulateSchedule(plan_, opts);
    ASSERT_TRUE(run.ok) << run.error;
    ASSERT_TRUE(run.paused);
    ck_ = std::move(run.checkpoint);
    ASSERT_EQ(ck_.now, 1.0);
  }

  /// The pause as a transient crash striking idle processor `p` at that
  /// instant leaves it: `p` is down until now + downtime.
  sim::SimCheckpoint crashedAtPause(platform::ProcessorId p,
                                    double downtime) const {
    sim::SimCheckpoint ck = ck_;
    ck.procDeadUntil.assign(cluster_.numProcessors(), 0.0);
    ck.faultsApplied.assign(cluster_.numProcessors(), 0);
    ck.procDeadUntil[p] = ck.now + downtime;
    return ck;
  }

  /// Makespan of the deterministic engine resumed from `state` spliced into
  /// `ck`, honouring the checkpoint's processor downtime.
  double replay(const resched::ResidualState& state,
                const sim::SimCheckpoint& ck) const {
    const auto model = sim::makePerturbation({}, cluster_.numProcessors());
    model->beginRun(1);
    const resched::Splice splice =
        resched::buildSplice(plan_, ck, state, *model);
    const sim::SimPlan spliced = sim::prepareSimulation(
        dag_, cluster_, splice.schedule, *oracle_, &splice.hints);
    EXPECT_TRUE(spliced.ok()) << spliced.error();
    sim::FaultModel noFaults(sim::FaultSpec{}, cluster_.numProcessors());
    sim::SimOptions opts;
    opts.resume = &splice.checkpoint;
    opts.faults = &noFaults;
    const sim::SimResult rest = sim::simulateSchedule(spliced, opts);
    EXPECT_TRUE(rest.ok) << rest.error;
    return rest.makespan;
  }

  graph::Dag dag_;
  platform::Cluster cluster_;
  ScheduleResult schedule_;
  std::optional<memory::MemDagOracle> oracle_;
  sim::SimPlan plan_;
  sim::SimCheckpoint ck_;
};

TEST_F(ChainResidual, CyclicMergeProjectsToInfinityAndRollsBack) {
  resched::ResidualState state = resched::buildResidual(plan_, ck_, *oracle_);
  for (const quotient::BlockId b : {kA, kB, kC}) {
    ASSERT_TRUE(state.live(b) && !state.blocks[b].pinned) << "block " << b;
  }
  const comm::CommCostModel* fair = &comm::fairShareCommModel();
  const double before = resched::projectResidual(state, cluster_);
  const double beforeFair = resched::projectResidual(state, cluster_, fair);
  EXPECT_EQ(before, 16.0);  // a 3-6, b 8-11, c 13-16
  const auto adjacency = [&state] {
    std::vector<std::vector<quotient::AdjEntry>> adj;
    for (quotient::BlockId b = 0; b < state.q.numSlots(); ++b) {
      adj.emplace_back(state.q.out(b).begin(), state.q.out(b).end());
      adj.emplace_back(state.q.in(b).begin(), state.q.in(b).end());
    }
    return adj;
  };
  const auto adjacencyBefore = adjacency();

  // (a + c) -> b -> (a + c): the merged residual is cyclic.
  quotient::MergeTransaction tx = state.q.merge(kA, kC);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(resched::projectResidual(state, cluster_), kInf);
  EXPECT_EQ(resched::projectResidual(state, cluster_, fair), kInf);
  state.q.rollback(std::move(tx));

  EXPECT_EQ(resched::projectResidual(state, cluster_), before);
  EXPECT_EQ(resched::projectResidual(state, cluster_, fair), beforeFair);
  EXPECT_EQ(adjacency(), adjacencyBefore);
}

TEST_F(ChainResidual, BlockMovedOffACrashedProcessorIgnoresItsDowntime) {
  // a's processor is down until t = 21. Moved to the spare, a restarts from
  // re-sent inputs at t = 3, exactly as if the crash had not happened.
  const sim::SimCheckpoint down = crashedAtPause(1, 20.0);
  resched::ResidualState state =
      resched::buildResidual(plan_, down, *oracle_);
  resched::ResidualState healthy =
      resched::buildResidual(plan_, ck_, *oracle_);
  for (resched::ResidualState* s : {&state, &healthy}) {
    s->q.setProcessor(kA, kSpare);
  }
  const double projected = resched::projectResidual(state, cluster_);
  EXPECT_EQ(projected, resched::projectResidual(healthy, cluster_));
  EXPECT_EQ(projected, 16.0);
  EXPECT_NEAR(projected, replay(state, down), 1e-9);
  const comm::CommCostModel* fair = &comm::fairShareCommModel();
  EXPECT_EQ(resched::projectResidual(state, cluster_, fair),
            resched::projectResidual(healthy, cluster_, fair));
}

TEST_F(ChainResidual, BlockMovedOntoACrashedProcessorWaitsForItsRecovery) {
  // The idle spare is down until t = 21: y moved there cannot start before
  // then, although its re-sent input arrives at t = 3.
  const sim::SimCheckpoint down = crashedAtPause(kSpare, 20.0);
  resched::ResidualState state =
      resched::buildResidual(plan_, down, *oracle_);
  state.q.setProcessor(kY, kSpare);
  const double projected = resched::projectResidual(state, cluster_);
  EXPECT_EQ(projected, down.procDeadUntil[kSpare] + dag_.work(4));
  EXPECT_NEAR(projected, replay(state, down), 1e-9);
  EXPECT_NEAR(resched::projectResidual(state, cluster_,
                                       &comm::fairShareCommModel()),
              projected, 1e-9);
}

TEST(ReschedEngine, ResumeRejectsMismatchedCheckpoint) {
  const FuzzCase fc = makeFuzzCase(5);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  const sim::SimPlan plan =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle);
  ASSERT_TRUE(plan.ok()) << plan.error();
  sim::SimCheckpoint bogus;  // empty: wrong block/task counts
  sim::SimOptions opts;
  opts.resume = &bogus;
  const sim::SimResult run = sim::simulateSchedule(plan, opts);
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("checkpoint"), std::string::npos);
}

TEST(ReschedEngine, ObserverSeesEveryTaskFinishIncludingTheLast) {
  const FuzzCase fc = makeFuzzCase(2);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  class Counter final : public sim::SimObserver {
   public:
    sim::ObserverAction onTaskFinish(VertexId, double) override {
      ++count;
      return sim::ObserverAction::kContinue;
    }
    std::size_t count = 0;
  } counter;
  sim::SimOptions opts;
  opts.observer = &counter;
  const sim::SimResult run =
      sim::simulateSchedule(fc.dag, fc.cluster, schedule, oracle, opts);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(counter.count, fc.dag.numVertices());

  // A pause requested after the final task is meaningless and ignored.
  PauseEveryNthFinish always(1);
  opts.observer = &always;
  sim::SimCheckpoint checkpoint;
  sim::SimResult paced =
      sim::simulateSchedule(fc.dag, fc.cluster, schedule, oracle, opts);
  const sim::SimPlan plan =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle);
  while (paced.ok && paced.paused) {
    checkpoint = std::move(paced.checkpoint);
    opts.resume = &checkpoint;
    paced = sim::simulateSchedule(plan, opts);
  }
  ASSERT_TRUE(paced.ok) << paced.error;
  EXPECT_EQ(paced.makespan, run.makespan);
}

TEST(Resched, SingleTriggerBudgetStillAttemptsARepair) {
  const FuzzCase fc = makeFuzzCase(2);
  if (!fc.part.feasible) GTEST_SKIP() << "infeasible instance";
  const memory::MemDagOracle oracle(fc.dag);
  resched::RescheduleOptions options;
  options.policy.trigger = resched::TriggerPolicy::kInterval;
  options.policy.driftTolerance = -1.0;  // force the attempt through
  options.policy.maxTriggers = 1;
  const resched::RescheduleResult run = resched::runOnline(
      sim::prepareSimulation(fc.dag, fc.cluster, fc.part, oracle), oracle,
      options);
  ASSERT_TRUE(run.ok) << run.error;
  EXPECT_EQ(run.triggersFired, 1);
  // maxTriggers = 1 means one repair attempt, not zero: the pause that
  // reaches the cap must still be spent on a repair.
  EXPECT_EQ(run.repairs.size(), 1u);
}

TEST(ReschedEngine, HintedPlanRefusesToRunWithoutACheckpoint) {
  const FuzzCase fc = makeFuzzCase(3);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  // Completed-block hints relax the distinct-processor rule; running such a
  // plan from t=0 would silently re-execute history, so it must error.
  sim::PlanHints hints;
  hints.completedBlock.assign(schedule.numBlocks(), 0);
  hints.completedBlock[0] = 1;
  const sim::SimPlan plan =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle, &hints);
  ASSERT_TRUE(plan.ok()) << plan.error();
  const sim::SimResult run = sim::simulateSchedule(plan, sim::SimOptions{});
  EXPECT_FALSE(run.ok);
  EXPECT_NE(run.error.find("resume"), std::string::npos);
}

TEST(ReschedEngine, ResumeRejectsTransferWithUnknownSourceBlock) {
  const FuzzCase fc = makeFuzzCase(4);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  const memory::MemDagOracle oracle(fc.dag);
  const sim::SimPlan plan =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle);
  ASSERT_TRUE(plan.ok()) << plan.error();
  PauseEveryNthFinish pacer(2);
  sim::SimOptions opts;
  opts.observer = &pacer;
  sim::SimResult run = sim::simulateSchedule(plan, opts);
  ASSERT_TRUE(run.ok) << run.error;
  ASSERT_TRUE(run.paused);
  // An untranslated (stale) source block id must be caught at load time,
  // not crash buildResidual's processor lookup later.
  sim::SimCheckpoint corrupted = run.checkpoint;
  corrupted.transfers.push_back(
      {1.0, 1.0, 1.0, quotient::kNoBlock, 0, graph::kInvalidVertex});
  sim::SimOptions resumeOpts;
  resumeOpts.resume = &corrupted;
  const sim::SimResult resumed = sim::simulateSchedule(plan, resumeOpts);
  EXPECT_FALSE(resumed.ok);
  EXPECT_NE(resumed.error.find("transfer"), std::string::npos);
}

TEST(ReschedEngine, ForcedOrderMustMatchBlockMembers) {
  const FuzzCase fc = makeFuzzCase(6);
  ASSERT_TRUE(fc.part.feasible || fc.mem.feasible);
  const ScheduleResult& schedule = fc.part.feasible ? fc.part : fc.mem;
  ASSERT_GE(schedule.numBlocks(), 2u);
  const memory::MemDagOracle oracle(fc.dag);
  std::vector<std::vector<VertexId>> members(schedule.numBlocks());
  for (VertexId v = 0; v < fc.dag.numVertices(); ++v) {
    members[schedule.blockOf[v]].push_back(v);
  }
  sim::PlanHints hints;
  hints.forcedOrder.resize(1);
  // Block 1's members are no permutation of block 0's: rejected.
  hints.forcedOrder[0] = members[1];
  const sim::SimPlan foreign =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle, &hints);
  EXPECT_FALSE(foreign.ok());
  EXPECT_NE(foreign.error().find("forced traversal"), std::string::npos);
  // Block 0's own oracle order is accepted and is the order the plan runs.
  hints.forcedOrder[0] = oracle.bestTraversal(members[0]).order;
  const sim::SimPlan own =
      sim::prepareSimulation(fc.dag, fc.cluster, schedule, oracle, &hints);
  ASSERT_TRUE(own.ok()) << own.error();
  EXPECT_EQ(own.data().blocks[0].order, hints.forcedOrder[0]);
}

/// Expects two online runs to agree bit for bit: final makespan, every
/// repair record (spliced schedules included), final schedule and the
/// reported execution's task events.
void expectSameOnlineRun(const resched::RescheduleResult& a,
                         const resched::RescheduleResult& b) {
  ASSERT_EQ(a.ok, b.ok) << a.error << " / " << b.error;
  EXPECT_EQ(a.finalMakespan, b.finalMakespan);
  ASSERT_EQ(a.repairs.size(), b.repairs.size());
  for (std::size_t i = 0; i < a.repairs.size(); ++i) {
    const resched::RepairRecord& x = a.repairs[i];
    const resched::RepairRecord& y = b.repairs[i];
    EXPECT_EQ(x.time, y.time) << "repair " << i;
    EXPECT_EQ(x.accepted, y.accepted) << "repair " << i;
    EXPECT_EQ(x.faultRepair, y.faultRepair) << "repair " << i;
    EXPECT_EQ(x.projectedBefore, y.projectedBefore) << "repair " << i;
    EXPECT_EQ(x.projectedAfter, y.projectedAfter) << "repair " << i;
    EXPECT_EQ(x.resumedProjection, y.resumedProjection) << "repair " << i;
    EXPECT_EQ(x.moves, y.moves) << "repair " << i;
    EXPECT_EQ(x.swaps, y.swaps) << "repair " << i;
    EXPECT_EQ(x.merges, y.merges) << "repair " << i;
    EXPECT_EQ(x.evacuations, y.evacuations) << "repair " << i;
    EXPECT_EQ(x.schedule.blockOf, y.schedule.blockOf) << "repair " << i;
    EXPECT_EQ(x.schedule.procOfBlock, y.schedule.procOfBlock)
        << "repair " << i;
  }
  EXPECT_EQ(a.finalSchedule.blockOf, b.finalSchedule.blockOf);
  EXPECT_EQ(a.finalSchedule.procOfBlock, b.finalSchedule.procOfBlock);
  expectSameEvents(a.execution, b.execution);
}

/// runOnline only reads its plan, so the studies prepare one plan per
/// schedule: R runs on one plan (and its oracle) must equal R runs on fresh
/// plans with fresh oracles, under noise with forced repairs and under
/// fail-stops with transient crashes on a spare-augmented cluster.
TEST_P(ReschedFuzz, RunsOnOneSharedPlanEqualRunsOnFreshPlans) {
  constexpr int kRuns = 3;
  const FuzzCase fc = makeFuzzCase(GetParam());
  const platform::Cluster augmented =
      experiments::addSpareProcessors(fc.cluster, 2);
  const memory::MemDagOracle oracle(fc.dag);
  int accepted = 0;
  for (const ScheduleResult* schedule : {&fc.part, &fc.mem}) {
    if (!schedule->feasible) continue;
    sim::FaultSpec spec;
    spec.failStopProbability = 0.4;
    spec.crashProbability = 0.3;
    spec.horizon = std::max(schedule->makespan * 0.75, 1e-9);
    spec.downtime = schedule->makespan * 0.05;
    spec.maxCrashesPerProcessor = 2;
    for (const bool faulty : {false, true}) {
      const platform::Cluster& cluster = faulty ? augmented : fc.cluster;
      const sim::SimPlan shared =
          sim::prepareSimulation(fc.dag, cluster, *schedule, oracle);
      ASSERT_TRUE(shared.ok()) << shared.error();
      const auto run = [&](const sim::SimPlan& plan,
                           const memory::MemDagOracle& planOracle, int r) {
        sim::FaultModel faults(spec, cluster.numProcessors());
        resched::RescheduleOptions options;
        options.seed = GetParam() * 101 + static_cast<std::uint64_t>(r);
        if (faulty) {
          options.faults = &faults;
        } else {
          options.policy.trigger = resched::TriggerPolicy::kInterval;
          options.policy.intervalFraction = 0.15;
          options.policy.driftTolerance = -1.0;
          options.policy.minGain = 1e-6;
          options.perturbation.kind = sim::PerturbationKind::kLognormal;
          options.perturbation.sigma = 0.4;
        }
        return resched::runOnline(plan, planOracle, options);
      };
      for (int r = 0; r < kRuns; ++r) {
        const resched::RescheduleResult reused = run(shared, oracle, r);
        const memory::MemDagOracle freshOracle(fc.dag);
        const resched::RescheduleResult fresh =
            run(sim::prepareSimulation(fc.dag, cluster, *schedule,
                                       freshOracle),
                freshOracle, r);
        expectSameOnlineRun(reused, fresh);
        for (const resched::RepairRecord& repair : reused.repairs) {
          accepted += repair.accepted ? 1 : 0;
        }
      }
    }
  }
  // The runs must splice, or sharing the plan would go untested.
  EXPECT_GT(accepted, 0);
}

TEST(Resched, RepairsEngageSomewhereAcrossSeeds) {
  // Not every small instance offers an improving repair, but across a seed
  // sweep the machinery must demonstrably engage.
  int accepted = 0;
  for (std::uint64_t seed = 1; seed <= 10 && accepted == 0; ++seed) {
    const FuzzCase fc = makeFuzzCase(seed);
    if (!fc.part.feasible) continue;
    const memory::MemDagOracle oracle(fc.dag);
    resched::RescheduleOptions options;
    options.policy.trigger = resched::TriggerPolicy::kLateness;
    options.policy.latenessThreshold = 0.01;
    options.policy.driftTolerance = 0.0;
    options.policy.minGain = 1e-6;
    options.perturbation.kind = sim::PerturbationKind::kLognormal;
    options.perturbation.sigma = 0.5;
    options.seed = seed * 31 + 5;
    const resched::RescheduleResult run = resched::runOnline(
        sim::prepareSimulation(fc.dag, fc.cluster, fc.part, oracle), oracle,
        options);
    ASSERT_TRUE(run.ok) << run.error;
    accepted += run.reschedulesAccepted;
  }
  EXPECT_GT(accepted, 0);
}

TEST(Resched, RunnerIsBitReproducibleAcrossThreadCounts) {
  std::vector<experiments::Instance> instances;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    experiments::Instance inst;
    inst.name = "fuzz-" + std::to_string(seed);
    inst.band = workflows::SizeBand::kSmall;
    inst.family = "fuzz";
    inst.dag = test::randomLayeredDag(7, 4, 3, seed);
    inst.numTasks = static_cast<int>(inst.dag.numVertices());
    instances.push_back(std::move(inst));
  }
  const platform::Cluster cluster =
      platform::makeCluster(platform::Heterogeneity::kDefault, 1);
  const std::vector<experiments::NoiseLevel> levels =
      experiments::lognormalLadder({0.3});
  experiments::ReschedulingRunnerOptions options;
  options.replications = 4;
  options.seed = 77;

  const auto run = [&] {
    return experiments::runRescheduling(
        instances, experiments::scheduleInstances(instances, cluster), levels,
        options);
  };

  const auto one = test::withOmpThreads(1, run);
  const auto four = test::withOmpThreads(4, run);
  ASSERT_EQ(one.size(), four.size());
  ASSERT_FALSE(one.empty());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].config, four[i].config);
    EXPECT_EQ(one[i].policy, four[i].policy);
    EXPECT_EQ(one[i].scheduler, four[i].scheduler);
    EXPECT_EQ(one[i].instance, four[i].instance);
    ASSERT_EQ(one[i].finalMakespans.size(), four[i].finalMakespans.size());
    for (std::size_t r = 0; r < one[i].finalMakespans.size(); ++r) {
      // Bitwise equality: per-replication seeds are fixed up front and each
      // online run is single-threaded.
      EXPECT_EQ(one[i].finalMakespans[r], four[i].finalMakespans[r])
          << one[i].instance << " replication " << r;
      EXPECT_EQ(one[i].unrepairedMakespans[r], four[i].unrepairedMakespans[r]);
    }
  }
}

TEST(Resched, PolicyLadderAndNames) {
  const auto policies = experiments::defaultPolicyLadder();
  ASSERT_EQ(policies.size(), 3u);
  EXPECT_EQ(policies[0].name, "none");
  EXPECT_EQ(policies[1].name, "interval");
  EXPECT_EQ(policies[2].name, "lateness");
  EXPECT_EQ(resched::triggerPolicyName(resched::TriggerPolicy::kStraggler),
            "straggler");
  const auto levels = experiments::stragglerLadder({0.0, 0.2}, 4.0);
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].config, "deterministic");
  EXPECT_EQ(levels[1].config, "straggler0.2x4");
  EXPECT_EQ(levels[1].spec.kind, sim::PerturbationKind::kStraggler);
}

}  // namespace
}  // namespace dagpm
