#pragma once
// Monte-Carlo fault-recovery experiments: when processors die mid-execution,
// how much of the damage does recovery-aware rescheduling undo? For every
// instance, both schedulers produce their static schedule; each feasible
// schedule is executed through the online driver under a ladder of fault
// rates (fail-stop and transient-crash probabilities per processor), on a
// cluster augmented with spare processors so evacuations have somewhere to
// go. The driver races the recovery-aware repair against naive greedy
// re-execution under the identical fault draw (resched/resched.hpp), so each
// replication yields a paired (aware, greedy) makespan and the aggregate
// "recovered fraction" measures what the repair search adds on top of bare
// evacuation. All draws are SplitMix64 uniforms — no transcendental
// functions — so the whole bench is bit-stable across compilers and OpenMP
// thread counts and can be regression-gated like resched_recovery.

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "resched/resched.hpp"
#include "sim/fault.hpp"

namespace dagpm::experiments {

/// One rung of the fault ladder. Probabilities are per processor and per
/// run; the fault horizon (75%) and the crash downtime (5%) are fractions of
/// each schedule's static makespan, so faults land mid-execution at every
/// instance size. Each processor crashes at most twice.
struct FaultLevel {
  std::string name;  // "nofault", "fail0.15", "fail0.3+crash0.3", ...
  double failStopProbability = 0.0;
  double crashProbability = 0.0;
};

/// The bench ladder: a zero-rate control rung (bit-identical to the
/// fault-free driver by construction) and fail-stop rungs of increasing
/// severity, the last one mixed with transient crashes.
std::vector<FaultLevel> defaultFaultLadder();

/// Spare processors runFaultRecovery appends to every scaled cluster
/// (evacuation targets).
inline constexpr int kSpareProcessors = 2;

/// Clones the `spares` largest-memory processors of `cluster` (kind suffix
/// "-spare") so lost blocks have guaranteed evacuation targets; existing
/// processor ids are unchanged, so schedules built for `cluster` stay valid.
platform::Cluster addSpareProcessors(const platform::Cluster& cluster,
                                     int spares);
/// `pass` with `spares` spares added to every cluster: runFaultRecovery
/// prepares its plans on it, i.e. on the cluster the faults strike.
std::vector<ScheduledInstance> addSpareProcessors(
    std::span<const ScheduledInstance> pass, int spares);

/// Outcome of one (fault level, scheduler, instance) cell, aggregated over
/// the Monte-Carlo replications. Aware = the driver's finalMakespan (never
/// worse than greedy by construction); greedy = naive re-execution.
struct FaultOutcome : OutcomeKey {  // config = FaultLevel::name
  bool ok = false;
  std::string error;
  double staticMakespan = 0.0;
  int replications = 0;
  int faultyRuns = 0;    // replications with >= 1 applied fault event
  int failStops = 0;     // applied fail-stop events (winning executions)
  int crashes = 0;       // applied transient crashes
  int tasksKilled = 0;   // running tasks killed at a fault instant
  int evacuations = 0;   // lost blocks moved off dead processors
  int retries = 0;       // evacuation re-attempts after backoff
  int greedyWins = 0;    // replications where greedy beat the search repair
  int searchWins = 0;    // replications where the search beat greedy strictly
  int unrecovered = 0;   // replications neither mode could recover
  /// Paired per-replication makespans (replication order), finite runs only.
  std::vector<double> awareMakespans;
  std::vector<double> greedyMakespans;
  double meanAware = 0.0;
  double meanGreedy = 0.0;
  double meanAwareSlowdown = 0.0;   // meanAware / static
  double meanGreedySlowdown = 0.0;  // meanGreedy / static
  /// Mean recoveredShare (below) over the faulty replications that have one.
  double meanRecoveredFraction = 0.0;
  friend bool operator==(const FaultOutcome&, const FaultOutcome&) = default;
};

/// The share of the greedy re-execution's degradation that the repair won
/// back in one faulty replication, (greedy - aware) / (greedy - static): 1
/// = all of it, 0 = nothing; 1 when greedy re-execution failed outright
/// (infinite makespan) but the repair recovered, nullopt when greedy did not
/// degrade measurably.
std::optional<double> recoveredShare(double aware, double greedy,
                                     double staticMakespan);

struct FaultRunnerOptions {
  /// Policy of the search repair (fail-stops always trigger a repair). The
  /// greedy baseline is derived from it inside the driver (trigger = none,
  /// evacuation-only repairs).
  resched::ReschedulePolicy policy;
  int replications = 8;
  std::uint64_t seed = 1;
};

/// Runs every feasible schedule of `scheduled` (scheduleInstances of
/// `instances`) through the fault-injecting online driver at every fault
/// level. Replication seeds depend only on (instance, level, replication) —
/// both schedulers face the identical fault draw — and the fixed slot layout
/// keeps results independent of thread count.
std::vector<FaultOutcome> runFaultRecovery(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<FaultLevel>& levels, const FaultRunnerOptions& options);

/// The fault_recovery export: one CSV row per outcome and one JSON row per
/// (level, scheduler) group.
BenchExport faultRecoveryExport(
    const std::string& bench, const std::vector<FaultOutcome>& outcomes,
    const std::map<std::string, std::string>& meta = {});

}  // namespace dagpm::experiments
