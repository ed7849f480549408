#pragma once
// Online-rescheduling experiments: how much of the noise-induced degradation
// that the robustness experiments quantify can runtime repair win back? For
// every instance, both schedulers produce their static schedule; each
// feasible schedule is then executed through the online rescheduling driver
// under a ladder of perturbation strengths crossed with a ladder of trigger
// policies (always including the no-resched baseline), with the noise draw
// shared across policies so the comparison is paired. Aggregates export
// through the same DAGPM_JSON_OUT / DAGPM_CSV channels as the other benches.

#include <map>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "experiments/robustness.hpp"
#include "resched/resched.hpp"

namespace dagpm::experiments {

/// One rung of the trigger-policy ladder, e.g. {"lateness0.05", ...}.
struct PolicyConfig {
  std::string name;
  resched::ReschedulePolicy policy;
};

/// The bench ladder: "none" (baseline), "interval" (fixed fractions of the
/// predicted makespan), "lateness" (event-triggered on late task finishes).
std::vector<PolicyConfig> defaultPolicyLadder();

/// Straggler ladder named "straggler<p>x<factor>". Unlike the lognormal
/// ladder, straggler draws involve no transcendental functions, so the whole
/// execution is bit-stable across compilers and libms — which is what lets
/// the resched bench be regression-gated against a recorded baseline.
std::vector<NoiseLevel> stragglerLadder(
    const std::vector<double>& probabilities, double factor);

/// Outcome of one (noise level, policy, scheduler, instance) tuple,
/// aggregated over the replications.
struct ReschedOutcome : OutcomeKey {
  std::string policy;  // PolicyConfig::name
  bool ok = false;
  std::string error;
  double staticMakespan = 0.0;
  int replications = 0;
  /// Per-replication results in replication order (reproducibility checks).
  std::vector<double> finalMakespans;
  std::vector<double> unrepairedMakespans;
  double meanFinal = 0.0;
  double p95Final = 0.0;
  double meanUnrepaired = 0.0;
  double meanSlowdown = 0.0;            // meanFinal / static
  double p95Slowdown = 0.0;
  double meanUnrepairedSlowdown = 0.0;  // meanUnrepaired / static
  double meanReschedules = 0.0;         // accepted splices per replication
  double meanTriggers = 0.0;
  int guardTrips = 0;  // replications where the hindsight guard fell back
  friend bool operator==(const ReschedOutcome&,
                         const ReschedOutcome&) = default;
};

struct ReschedulingRunnerOptions {
  int replications = 8;
  std::uint64_t seed = 1;
  bool contention = false;
};

/// Runs every feasible schedule of `scheduled` (scheduleInstances of
/// `instances`) through the online driver at every (noise level,
/// defaultPolicyLadder() policy). Replication seeds depend only on
/// (instance, level, replication) — policies and schedulers see the
/// identical noise draw — and results are independent of thread count.
std::vector<ReschedOutcome> runRescheduling(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<NoiseLevel>& levels,
    const ReschedulingRunnerOptions& options);

/// The resched_recovery export: one CSV row per outcome and one JSON row
/// per (config, policy, scheduler) group.
BenchExport reschedulingExport(
    const std::string& bench, const std::vector<ReschedOutcome>& outcomes,
    const std::map<std::string, std::string>& meta = {});

}  // namespace dagpm::experiments
