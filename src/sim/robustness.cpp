#include "sim/robustness.hpp"

#include <algorithm>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace dagpm::sim {

RobustnessSummary evaluateRobustness(const SimPlan& plan,
                                     const RobustnessOptions& options) {
  RobustnessSummary summary;
  summary.replications = std::max(options.replications, 0);
  if (!plan.ok()) {
    summary.error = plan.error();
    return summary;
  }
  const platform::Cluster& cluster = *plan.data().cluster;
  summary.staticMakespan =
      scheduler::staticMakespan(*plan.data().quotient, cluster);

  if (summary.replications == 0) {
    summary.ok = true;
    return summary;
  }

  // Seeds are drawn sequentially up front; each replication is then a pure
  // function of its slot, so OpenMP scheduling cannot change any result.
  std::vector<std::uint64_t> seeds(
      static_cast<std::size_t>(summary.replications));
  support::Rng seeder(options.seed);
  for (std::uint64_t& s : seeds) s = seeder.next();

  // Only the scalar summary of each replication is kept; the full SimResult
  // (per-task events) would cost tens of MB per thread at bench scale.
  struct RunDigest {
    bool ok = false;
    std::string error;
    double makespan = 0.0;
    std::size_t memoryOverflows = 0;
    double maxMemoryExcess = 0.0;
  };
  std::vector<RunDigest> runs(seeds.size());
  auto runOne = [&](std::size_t i) {
    const std::unique_ptr<PerturbationModel> model =
        makePerturbation(options.perturbation, cluster.numProcessors());
    SimOptions sim = options.sim;
    sim.perturbation = model.get();
    sim.seed = seeds[i];
    const SimResult run = simulateSchedule(plan, sim);
    runs[i] = {run.ok, run.error, run.makespan, run.memoryOverflows,
               run.maxMemoryExcess};
  };
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < runs.size(); ++i) runOne(i);

  summary.ok = true;
  summary.makespans.reserve(runs.size());
  for (const RunDigest& run : runs) {
    if (!run.ok) {
      if (summary.ok) {
        summary.ok = false;
        summary.error = run.error;
      }
      continue;
    }
    summary.makespans.push_back(run.makespan);
    if (run.memoryOverflows > 0) ++summary.overflowRuns;
    summary.maxMemoryExcess =
        std::max(summary.maxMemoryExcess, run.maxMemoryExcess);
  }
  if (!summary.ok || summary.makespans.empty()) return summary;

  summary.meanMakespan = support::mean(summary.makespans);
  summary.p50Makespan = support::percentile(summary.makespans, 0.50);
  summary.p95Makespan = support::percentile(summary.makespans, 0.95);
  summary.minMakespan = support::minOf(summary.makespans);
  summary.maxMakespan = support::maxOf(summary.makespans);
  if (summary.staticMakespan > 0.0) {
    summary.meanSlowdown = summary.meanMakespan / summary.staticMakespan;
    summary.p95Slowdown = summary.p95Makespan / summary.staticMakespan;
  }
  return summary;
}

}  // namespace dagpm::sim
