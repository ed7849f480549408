// Fault-tolerant execution: when processors fail-stop or crash mid-run, how
// much of the damage does recovery-aware rescheduling undo compared to naive
// greedy re-execution? Not a paper figure — the paper's platforms are
// reliable; this bench executes both schedulers' schedules through the
// fault-injecting online driver (src/sim/fault + src/resched) on a cluster
// augmented with spare processors, across a ladder of per-processor fault
// rates. Every replication races the recovery-aware repair against greedy
// re-execution under the identical fault draw, so `recovered` and
// `improvement` are paired comparisons.
//
// Fault instants are SplitMix64 uniforms and the execution arithmetic is the
// deterministic block-synchronous model — no transcendental functions
// anywhere — so makespans and the exact fault tallies (total_fail_stops,
// total_tasks_killed, ...) are bit-stable across compilers and OpenMP thread
// counts; bench/baselines/BENCH_fault_recovery.quick.json gates them in CI
// (fault counts at zero tolerance).

#include <iostream>

#include "bench_common.hpp"
#include "experiments/faults.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(
      ctx, "Fault recovery: rescheduling vs. greedy re-execution under "
           "processor failures",
      "extension (no paper figure); expected shape: recovery-aware repair "
      "strictly beats greedy re-execution at every nonzero fault rate, with "
      "the gap widening as failures get more likely");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);

  std::vector<experiments::Instance> instances =
      experiments::makeRealInstances(ctx.env().seeds);
  for (experiments::Instance& inst : experiments::makeSyntheticInstances(
           ctx.env().smallSizes(), bench::SizeBand::kSmall,
           ctx.env().seeds)) {
    instances.push_back(std::move(inst));
  }

  const std::vector<experiments::FaultLevel> levels =
      experiments::defaultFaultLadder();

  experiments::FaultRunnerOptions options;
  options.part.sweep = ctx.sweep();
  options.seed = 42;
  switch (ctx.env().scale) {
    case support::BenchScale::kQuick: options.replications = 5; break;
    case support::BenchScale::kDefault: options.replications = 20; break;
    case support::BenchScale::kFull: options.replications = 60; break;
  }

  const std::vector<experiments::FaultOutcome> outcomes =
      experiments::runFaultRecovery(instances, cluster, levels, options);

  support::Table table({"faults", "scheduler", "instances", "fail-stops",
                        "killed", "evac", "aware slowdown", "greedy slowdown",
                        "recovered", "improvement"});
  for (const auto& [key, agg] :
       experiments::aggregateFaultRecovery(outcomes)) {
    table.addRow({key.first, key.second, std::to_string(agg.instances),
                  std::to_string(agg.totalFailStops),
                  std::to_string(agg.totalTasksKilled),
                  std::to_string(agg.totalEvacuations),
                  support::Table::num(agg.geomeanAwareSlowdown, 3) + "x",
                  support::Table::num(agg.geomeanGreedySlowdown, 3) + "x",
                  support::Table::percent(agg.meanRecoveredFraction),
                  support::Table::num(agg.improvement, 3) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nslowdown = simulated / static Eq.(1)-(2) makespan; "
               "recovered = share of the greedy\nre-execution degradation "
               "the repair search won back; improvement = greedy / aware\n"
               "slowdown (> 1 = recovery-aware rescheduling strictly beats "
               "greedy re-execution)\n";

  const std::map<std::string, std::string> meta = {
      {"scale", ctx.scaleName()},
      {"sweep", ctx.sweepName()},
      {"seeds", std::to_string(ctx.env().seeds)},
      {"replications", std::to_string(options.replications)},
      {"spares", std::to_string(experiments::kSpareProcessors)},
      {"comm", "block-synchronous"},
  };
  const experiments::BenchExport exported =
      experiments::faultRecoveryExport("fault_recovery", outcomes, meta);
  if (!experiments::exportBench(exported)) return 1;
  if (outcomes.empty()) {
    std::cerr << "error: no schedule could be executed\n";
    return 1;
  }
  for (const experiments::FaultOutcome& out : outcomes) {
    if (!out.ok) {
      std::cerr << "error: fault recovery failed on " << out.instance << " ("
                << out.level << "/" << out.scheduler << "): " << out.error
                << "\n";
      return 1;
    }
  }
  // The acceptance bar of this extension: at every nonzero fault rung the
  // recovery-aware repair must strictly beat greedy re-execution in
  // aggregate (improvement > 1). min(aware, greedy) per run makes >= 1
  // structural; strictness requires the repair search to actually win runs.
  for (const auto& [key, agg] :
       experiments::aggregateFaultRecovery(outcomes)) {
    if (key.first == "nofault") continue;
    if (!(agg.improvement > 1.0)) {
      std::cerr << "error: recovery-aware rescheduling did not strictly beat "
                   "greedy re-execution at "
                << key.first << "/" << key.second
                << " (improvement = " << agg.improvement << ")\n";
      return 1;
    }
  }
  return 0;
}
