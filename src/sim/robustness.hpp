#pragma once
// Monte-Carlo robustness evaluation of one schedule.
//
// Replays a schedule through the discrete-event engine many times under a
// stochastic perturbation model and summarizes the distribution of achieved
// makespans against the static Eq. (1)-(2) prediction: expected and tail
// (p95) makespan, slowdown factors, and how many replications hit a memory
// overflow. Replications draw their seeds from a SplitMix64 stream derived
// from the base seed *before* the OpenMP-parallel loop runs, so the result
// vector is bit-identical for any thread count.

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace dagpm::sim {

struct RobustnessOptions {
  int replications = 100;
  std::uint64_t seed = 1;
  /// Engine configuration template; its `perturbation` and `seed` fields are
  /// overridden per replication from `perturbation` and the seed stream.
  SimOptions sim;
  PerturbationSpec perturbation;
};

struct RobustnessSummary {
  bool ok = false;
  std::string error;  // first failing replication's error, when !ok
  double staticMakespan = 0.0;  // computeTimeline / Eq. (1)-(2) prediction
  int replications = 0;
  // Makespan distribution over the replications.
  double meanMakespan = 0.0;
  double p50Makespan = 0.0;
  double p95Makespan = 0.0;
  double minMakespan = 0.0;
  double maxMakespan = 0.0;
  // Slowdown = simulated / static prediction (can be < 1 in kTaskEager mode,
  // where the static block barrier is provably conservative).
  double meanSlowdown = 0.0;
  double p95Slowdown = 0.0;
  // Memory robustness: replications with at least one overflow episode.
  int overflowRuns = 0;
  double maxMemoryExcess = 0.0;
  /// Per-replication makespans in replication order (for reproducibility
  /// checks and external plotting).
  std::vector<double> makespans;
  friend bool operator==(const RobustnessSummary&,
                         const RobustnessSummary&) = default;
};

/// Runs `options.replications` perturbed replays of the prepared `plan` and
/// summarizes them; a failed plan yields its error. The static prediction
/// is priced on the plan's quotient (not taken from schedule.makespan) so
/// partial schedules from custom pipelines evaluate consistently.
RobustnessSummary evaluateRobustness(const SimPlan& plan,
                                     const RobustnessOptions& options);

}  // namespace dagpm::sim
