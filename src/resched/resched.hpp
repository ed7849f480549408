#pragma once
// Online rescheduling driver.
//
// Executes a static schedule through the discrete-event simulator and, when
// execution drifts from the plan, pauses at a task-finish event, rebuilds
// the residual problem (residual.hpp), repairs it (repair.hpp) and resumes
// the simulation on the spliced schedule. Trigger policies:
//
//   kNone      never reschedule (the baseline the others are measured
//              against);
//   kInterval  consider repairing at fixed fractions of the predicted
//              makespan (but skip while observed drift is negligible — under
//              zero noise this makes every policy an exact no-op, a property
//              the tests pin to 1e-9);
//   kLateness  event-triggered: a task finishing more than a threshold
//              fraction of the makespan behind its prediction fires;
//   kStraggler event-triggered: a task overrunning its predicted finish by
//              more than (factor - 1) x its predicted duration fires.
//
// Predictions are the deterministic replay of the current schedule and are
// refreshed from the splice point after every accepted repair, so drift is
// always measured against the newest plan. A repair is only accepted when
// its projected residual makespan beats keeping the current schedule by
// `minGain`.
//
// One driver loop runs twice under the identical noise and fault draws: a
// baseline that triggers no policy repair (without faults its observer
// never pauses, so it is the unrepaired replay; under faults it is the
// naive greedy re-execution) and the search under the policy. A faulty run
// keeps the faster execution. A fault-free run reports the search's
// execution, and with the (evaluation-mode) hindsight guard enabled reports
// the faster makespan, so `finalMakespan` is monotone by construction — the
// raw online outcome stays available as `repairedMakespan`.
//
// Every repair projects with the observed per-processor slowdown (so blocks
// flee persistently slow processors; zero noise observes 1 everywhere) and,
// when the execution contends for the backbone, under the fair-share cost
// model. A fail-stop always pauses and forces a repair past the drift gate,
// minGain and maxReschedules; while no surviving processor can host a lost
// block, the driver retries after a doubling backoff (resched.cpp).
//
// Cf. Benoit, Rehn-Sonigo & Robert, "Optimizing Latency and Reliability of
// Pipeline Workflow Applications", and Ding et al., "A heuristic method for
// data allocation and task scheduling on heterogeneous multiprocessor
// systems under memory constraints": static mappings of memory-constrained
// workflows must be repaired at runtime when execution diverges.

#include <cstdint>
#include <string>
#include <vector>

#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "resched/repair.hpp"
#include "scheduler/solution.hpp"
#include "sim/engine.hpp"
#include "sim/perturbation.hpp"

namespace dagpm::resched {

enum class TriggerPolicy { kNone, kInterval, kLateness, kStraggler };

std::string triggerPolicyName(TriggerPolicy policy);

struct ReschedulePolicy {
  TriggerPolicy trigger = TriggerPolicy::kLateness;
  /// kInterval: consider repairing every `intervalFraction` of the
  /// predicted makespan.
  double intervalFraction = 0.2;
  /// kLateness: fire when a task finishes this fraction of the predicted
  /// makespan behind its prediction.
  double latenessThreshold = 0.05;
  /// kStraggler: fire when a task overruns its predicted finish by more
  /// than (stragglerFactor - 1) x its predicted duration.
  double stragglerFactor = 2.0;
  /// Skip the repair entirely while the worst observed lateness is below
  /// this fraction of the predicted makespan. Zero noise therefore never
  /// reschedules: the zero-noise no-op property the tests assert.
  double driftTolerance = 1e-9;
  /// Relative projected improvement required to adopt a repair.
  double minGain = 0.01;
  int maxReschedules = 8;  // accepted splices per run
  int maxTriggers = 64;    // pauses per run (repair attempts are costly)
  /// Evaluation-mode hindsight guard (see file comment).
  bool hindsightGuard = true;
};

/// One repair attempt (a pause that got past the drift gate).
struct RepairRecord {
  double time = 0.0;                 // splice instant
  graph::VertexId triggerTask = graph::kInvalidVertex;
  bool accepted = false;
  double projectedBefore = 0.0;      // keep-current residual projection
  double projectedAfter = 0.0;       // repaired residual projection
  /// Deterministic resumed-simulation makespan of the spliced schedule;
  /// under deterministic perturbation it matches projectedAfter to 1e-9
  /// (differential-tested). Under noise it can differ: re-sent transfers
  /// draw their realized volume factors at splice time, which the repair's
  /// projection (honestly online) cannot know. Accepted only.
  double resumedProjection = 0.0;
  int moves = 0;
  int swaps = 0;
  int merges = 0;
  bool faultRepair = false;  // fired by a fail-stop, not a policy trigger
  int evacuations = 0;       // lost blocks moved off dead processors
  scheduler::ScheduleResult schedule;         // spliced (accepted only)
  std::vector<char> completedTasksAtSplice;   // accepted only
  std::vector<char> startedTasksAtSplice;     // accepted only
};

struct RescheduleResult {
  bool ok = false;
  std::string error;
  double staticMakespan = 0.0;      // Eq. (1)-(2) of the input schedule
  double unrepairedMakespan = 0.0;  // same-noise baseline execution
  double repairedMakespan = 0.0;    // the online-rescheduled execution
  /// repairedMakespan, or unrepairedMakespan when the hindsight guard
  /// tripped (the repair turned out worse under the realized noise).
  double finalMakespan = 0.0;
  bool guardTripped = false;
  int triggersFired = 0;
  int reschedulesAccepted = 0;
  int reschedulesRejected = 0;  // repair attempts below minGain
  std::size_t memoryOverflows = 0;  // of `execution`
  // Fault-recovery bookkeeping (zero when no fault model is attached).
  int faultsInjected = 0;   // fault events the winning execution applied
  int evacuations = 0;      // lost blocks moved off dead processors
  int faultRetries = 0;     // evacuation re-attempts after backoff
  /// Makespan of the naive greedy re-execution baseline raced alongside the
  /// recovery-aware repair when faults are active (infinity when it failed
  /// to recover). `finalMakespan` is min(repaired, greedy): recovery is
  /// never worse than greedy re-execution by construction.
  double greedyMakespan = 0.0;
  bool greedyWon = false;  // the naive baseline beat the search repair
  std::vector<sim::FaultEvent> faultLog;  // of the winning execution
  std::vector<RepairRecord> repairs;
  /// The reported execution's full event history (the search's; under
  /// faults the faster one's); block ids refer to `finalSchedule`.
  sim::SimResult execution;
  scheduler::ScheduleResult finalSchedule;
};

struct RescheduleOptions {
  ReschedulePolicy policy;
  sim::PerturbationSpec perturbation;  // noise the execution experiences
  std::uint64_t seed = 1;
  bool contention = false;  // fair-share backbone during execution
  /// Fault model the execution runs under (null or an inactive spec = the
  /// exact legacy fault-free path, bit-identical to before faults existed).
  /// With active faults the driver races the recovery-aware repair against
  /// naive greedy re-execution and keeps the better execution.
  sim::FaultModel* faults = nullptr;
};

/// Runs the prepared `plan` online, block-synchronously (the model the
/// repairs price), on its workflow and cluster; `oracle` (over that
/// workflow) prices repairs and orders spliced blocks. The plan is only
/// read, so every run of a schedule can share one.
RescheduleResult runOnline(const sim::SimPlan& plan,
                           const memory::MemDagOracle& oracle,
                           const RescheduleOptions& options);

}  // namespace dagpm::resched
