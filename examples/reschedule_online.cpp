// Online rescheduling walkthrough: schedule a workflow, slow a third of the
// cluster's processors to a third of their speed mid-execution, and watch
// the rescheduler detect the stragglers and move the remaining blocks off
// them.
//
//   ./build/examples/reschedule_online [num_tasks]
//
// Prints the static Eq. (1)-(2) prediction, the no-resched execution under
// noise, and the online-rescheduled execution with a log of every repair
// (trigger instant, projected gain, moves/swaps/merges).

#include <cstdio>
#include <cstdlib>

#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "resched/resched.hpp"
#include "scheduler/daghetpart.hpp"
#include "sim/engine.hpp"
#include "workflows/families.hpp"

int main(int argc, char** argv) {
  using namespace dagpm;
  const int numTasks = argc > 1 ? std::atoi(argv[1]) : 200;

  workflows::GenConfig gen;
  gen.numTasks = numTasks;
  gen.seed = 7;
  const graph::Dag workflow =
      workflows::generate(workflows::Family::kEpigenomics, gen);

  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(workflow.maxTaskMemoryRequirement());

  const scheduler::ScheduleResult schedule =
      scheduler::scheduleBest(workflow, cluster);
  if (!schedule.feasible) {
    std::puts("no valid mapping found");
    return 1;
  }
  // The plan (shape check, quotient, block orders) is read-only: every
  // online run of this schedule can share it.
  const memory::MemDagOracle oracle(workflow);
  const sim::SimPlan plan =
      sim::prepareSimulation(workflow, cluster, schedule, oracle);
  std::printf("scheduled %d tasks into %u blocks, static makespan %.3f\n\n",
              numTasks, schedule.numBlocks(), schedule.makespan);

  // A random 30% of the processors run 3x slower: the classic scenario
  // online repair exists for — the driver's per-processor slowdown
  // estimates make the repair flee the straggling machines.
  resched::RescheduleOptions options;
  options.perturbation.kind = sim::PerturbationKind::kTransientSlowdown;
  options.perturbation.slowdownFraction = 0.3;
  options.perturbation.slowdownFactor = 3.0;
  options.seed = 3;
  options.policy.trigger = resched::TriggerPolicy::kLateness;
  options.policy.latenessThreshold = 0.03;
  options.policy.minGain = 0.005;

  const resched::RescheduleResult run =
      resched::runOnline(plan, oracle, options);
  if (!run.ok) {
    std::printf("rescheduling failed: %s\n", run.error.c_str());
    return 1;
  }

  std::printf("static prediction:       %.3f\n", run.staticMakespan);
  std::printf("no-resched execution:    %.3f (%.1f%% of static)\n",
              run.unrepairedMakespan,
              100.0 * run.unrepairedMakespan / run.staticMakespan);
  std::printf("rescheduled execution:   %.3f (%.1f%% of static, "
              "%d splices from %d triggers)\n\n",
              run.repairedMakespan,
              100.0 * run.repairedMakespan / run.staticMakespan,
              run.reschedulesAccepted, run.triggersFired);

  for (const resched::RepairRecord& repair : run.repairs) {
    if (repair.accepted) {
      std::printf("  t=%8.3f  spliced: projected %.3f -> %.3f "
                  "(%d moves, %d swaps, %d merges)\n",
                  repair.time, repair.projectedBefore, repair.projectedAfter,
                  repair.moves, repair.swaps, repair.merges);
    } else {
      std::printf("  t=%8.3f  kept the schedule (no repair beat the "
                  "projected %.3f)\n",
                  repair.time, repair.projectedBefore);
    }
  }

  const double recovered =
      run.unrepairedMakespan > run.staticMakespan
          ? (run.unrepairedMakespan - run.finalMakespan) /
                (run.unrepairedMakespan - run.staticMakespan)
          : 0.0;
  std::printf("\nfinal makespan %.3f%s — recovered %.0f%% of the "
              "degradation\n",
              run.finalMakespan,
              run.guardTripped ? " (guard fell back to the static schedule)"
                               : "",
              100.0 * recovered);
  return 0;
}
