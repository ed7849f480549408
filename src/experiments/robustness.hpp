#pragma once
// Robustness experiments: how well do static schedules survive execution
// noise? For every instance, both schedulers produce their schedule, and
// each feasible schedule is replayed through the discrete-event simulator
// under a ladder of perturbation strengths. Aggregates (geomean slowdown vs.
// the static Eq. (1)-(2) prediction, tail slowdown, memory-overflow rates)
// export through the same DAGPM_JSON_OUT / DAGPM_CSV channels as the
// makespan benches, so the robustness trajectory is machine-readable too.

#include <map>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "sim/robustness.hpp"

namespace dagpm::experiments {

/// One rung of the perturbation ladder, e.g. {"sigma0.2", lognormal(0.2)}.
struct NoiseLevel {
  std::string config;
  sim::PerturbationSpec spec;
};

/// Lognormal ladder named "sigma<value>"; sigma 0 degenerates to the
/// deterministic model (exact replay).
std::vector<NoiseLevel> lognormalLadder(const std::vector<double>& sigmas);

/// Simulation outcome of one (noise level, scheduler, instance) triple.
struct RobustnessOutcome : OutcomeKey {
  sim::RobustnessSummary summary;
  friend bool operator==(const RobustnessOutcome&,
                         const RobustnessOutcome&) = default;
};

/// Evaluates every feasible schedule of `scheduled` (scheduleInstances of
/// `instances`) at every noise level. `options` sets the replication count,
/// the engine semantics (comm model, contention) and the base seed;
/// per-triple seeds are derived from the slot, so results do not depend on
/// the parallel schedule. Infeasible (instance, scheduler) pairs are
/// skipped.
std::vector<RobustnessOutcome> runRobustness(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<NoiseLevel>& levels,
    const sim::RobustnessOptions& options);

/// The robustness_noise export: one CSV row per outcome (config, scheduler,
/// instance, distribution columns) and one JSON row per (config, scheduler)
/// group.
BenchExport robustnessExport(
    const std::string& bench, const std::vector<RobustnessOutcome>& outcomes,
    const std::map<std::string, std::string>& meta = {});

}  // namespace dagpm::experiments
