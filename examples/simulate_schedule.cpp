// Simulator walkthrough: schedule a workflow, replay it through the
// discrete-event engine, and stress it with Monte-Carlo runtime noise.
//
//   ./build/examples/simulate_schedule [num_tasks]
//
// Prepares the schedule's simulation plan once (shape check, quotient,
// per-block traversals and memory profiles) and replays it in the simulator
// modes side by side:
//   1. deterministic block-synchronous replay == the static Eq. (1)-(2)
//      makespan (the cross-validation the tests assert);
//   2. block-synchronous replay under fair-share link contention, next to
//      the contention-aware cost model's closed-form prediction of it
//      (comm::fairShareCommModel — the same physics, no event replay);
//   3. task-eager semantics with link contention — the realistic execution,
//      usually faster than the conservative static prediction;
//   4. a lognormal-noise Monte-Carlo giving expected/p95 makespan and
//      memory-overflow counts.

#include <cstdio>
#include <cstdlib>

#include "comm/cost_model.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "sim/engine.hpp"
#include "sim/robustness.hpp"
#include "workflows/families.hpp"

int main(int argc, char** argv) {
  using namespace dagpm;
  const int numTasks = argc > 1 ? std::atoi(argv[1]) : 200;

  workflows::GenConfig gen;
  gen.numTasks = numTasks;
  gen.seed = 7;
  const graph::Dag workflow =
      workflows::generate(workflows::Family::kMontage, gen);

  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(workflow.maxTaskMemoryRequirement());

  const scheduler::ScheduleResult schedule =
      scheduler::scheduleBest(workflow, cluster);
  if (!schedule.feasible) {
    std::puts("no valid mapping found");
    return 1;
  }
  std::printf("scheduled %d tasks into %u blocks, static makespan %.3f\n\n",
              numTasks, schedule.numBlocks(), schedule.makespan);

  const memory::MemDagOracle oracle(workflow);
  const sim::SimPlan plan =
      sim::prepareSimulation(workflow, cluster, schedule, oracle);
  if (!plan.ok()) {
    std::printf("plan rejected: %s\n", plan.error().c_str());
    return 1;
  }

  // 1. Exact replay of the static model.
  sim::SimOptions replay;  // block-synchronous, no contention, deterministic
  const sim::SimResult exact = sim::simulateSchedule(plan, replay);
  if (!exact.ok) {
    std::printf("simulation failed: %s\n", exact.error.c_str());
    return 1;
  }
  std::printf("deterministic replay:    makespan %.3f (static %.3f)\n",
              exact.makespan, schedule.makespan);

  // 2. Fair-share contention on the block-synchronous model, and the shared
  // cost model predicting it without replaying any events.
  sim::SimOptions contended;
  contended.contention = true;
  const sim::SimResult shared = sim::simulateSchedule(plan, contended);
  const auto predicted = scheduler::modelMakespan(
      workflow, cluster, schedule, comm::fairShareCommModel());
  if (!shared.ok || !predicted.has_value()) {
    std::printf("contended simulation failed\n");
    return 1;
  }
  std::printf("fair-share contention:   makespan %.3f (cost model predicts "
              "%.3f, static was %.1f%% optimistic)\n",
              shared.makespan, *predicted,
              100.0 * (shared.makespan / schedule.makespan - 1.0));

  // 3. Task-eager semantics + fair-share link contention.
  sim::SimOptions eager;
  eager.comm = sim::CommModel::kTaskEager;
  eager.contention = true;
  const sim::SimResult realistic = sim::simulateSchedule(plan, eager);
  if (!realistic.ok) {
    std::printf("simulation failed: %s\n", realistic.error.c_str());
    return 1;
  }
  std::printf("task-eager + contention: makespan %.3f (%.1f%% of static, "
              "%zu transfers)\n",
              realistic.makespan,
              100.0 * realistic.makespan / schedule.makespan,
              realistic.numTransfers);

  // 4. Monte-Carlo robustness under lognormal runtime noise.
  sim::RobustnessOptions mc;
  mc.replications = 100;
  mc.seed = 1;
  mc.sim = eager;
  mc.perturbation.kind = sim::PerturbationKind::kLognormal;
  mc.perturbation.sigma = 0.3;
  const sim::RobustnessSummary noisy = sim::evaluateRobustness(plan, mc);
  if (!noisy.ok) {
    std::printf("robustness evaluation failed: %s\n", noisy.error.c_str());
    return 1;
  }
  std::printf("\n%s, %d replications:\n",
              sim::perturbationName(mc.perturbation).c_str(),
              mc.replications);
  std::printf("  makespan mean %.3f  p50 %.3f  p95 %.3f  worst %.3f\n",
              noisy.meanMakespan, noisy.p50Makespan, noisy.p95Makespan,
              noisy.maxMakespan);
  std::printf("  slowdown vs static: mean %.3fx  p95 %.3fx\n",
              noisy.meanSlowdown, noisy.p95Slowdown);
  std::printf("  replications with memory overflow: %d / %d\n",
              noisy.overflowRuns, noisy.replications);
  return 0;
}
