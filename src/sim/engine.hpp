#pragma once
// Discrete-event execution simulator for DAGP-PM schedules.
//
// Executes a scheduler::ScheduleResult on a platform::Cluster at *task*
// granularity: every task gets ready/start/finish events, each processor runs
// the tasks of its block one at a time (FIFO) in the memory oracle's
// traversal order, and cross-processor file transfers move over the shared
// beta-bandwidth interconnect. Two communication semantics are supported:
//
//   kBlockSynchronous  replays the paper's static model Eq. (1)-(2): the
//                      files a block sends to a successor block leave as one
//                      aggregated transfer when the whole block finishes, and
//                      a block starts only after every inbound transfer has
//                      arrived. With the deterministic perturbation model and
//                      contention disabled this reproduces computeTimeline's
//                      makespan exactly (the cross-validation tests assert
//                      agreement to 1e-9).
//
//   kTaskEager         the task-level refinement: each cross-block edge
//                      becomes its own transfer dispatched when the producing
//                      *task* finishes, and a task waits only for its own
//                      inputs. Never slower than kBlockSynchronous under the
//                      deterministic model; quantifies how conservative the
//                      static block model is.
//
// Contention: when enabled, all in-flight transfers fair-share the single
// beta backbone (each of n concurrent transfers progresses at beta/n), a
// fluid-flow model the static, uncontended c/beta term cannot express.
// The schedulers price this same physics through comm::fairShareCommModel
// (closed-form over the processor-sharing virtual-time structure, no event
// replay); for block-synchronous deterministic runs the two agree to 1e-9,
// which is what lets contention-aware Step-3/4 search optimize exactly the
// makespan this engine will measure (differential-tested in test_comm).
//
// Plans: prepareSimulation checks a schedule with validateSchedule's
// scheduler::checkScheduleShape, and the engine reads block processors and
// block transfers from the placed quotient that check returns.
//
// Memory: per-step usage follows the oracle's traversal accounting
// (memory::simulateBlockOrder). In kTaskEager mode, remote inputs that
// arrive before their consumer starts are additionally buffered on the
// destination processor — early arrivals can therefore push a processor past
// its memory size even though the static requirement r_V fits; the simulator
// counts these overflow episodes instead of failing, which is exactly the
// robustness signal the Monte-Carlo evaluator aggregates.
//
// Observation / checkpoint / resume: the engine keeps its whole resumable
// state in one SimCheckpoint (completed tasks, per-block progress, in-flight
// transfers, event records, result counters, fault state). A SimObserver may
// pause a block-synchronous run at any task-finish event; the result then
// carries a copy of that state plus the running tasks with their drawn
// finish times, from which the run resumes bit-identically — or, after the
// online rescheduler (src/resched) repaired the remaining schedule, against
// a new plan built with PlanHints.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"
#include "scheduler/solution.hpp"
#include "sim/fault.hpp"
#include "sim/perturbation.hpp"

namespace dagpm::sim {

enum class CommModel { kBlockSynchronous, kTaskEager };

/// Per-task execution record (indexed by vertex id in SimResult::events).
struct TaskEvent {
  quotient::BlockId block = quotient::kNoBlock;
  platform::ProcessorId proc = platform::kNoProcessor;
  double ready = 0.0;   // all dependencies satisfied (inputs arrived)
  double start = 0.0;   // execution began (>= ready; FIFO may delay)
  double finish = 0.0;  // execution completed
};

/// Decision returned by SimObserver::onTaskFinish.
enum class ObserverAction { kContinue, kPause };

/// Execution observer: the hook the online rescheduler (src/resched) builds
/// on. The engine reports every task completion; returning kPause stops the
/// event loop at that instant and the SimResult carries a SimCheckpoint of
/// the full in-flight state, from which the run can later be resumed —
/// against the same plan, or against a repaired (re-scheduled) one whose
/// checkpoint was adapted by the rescheduler. Observation and resumption are
/// supported for the block-synchronous model only (the model rescheduling
/// repairs); kTaskEager runs reject them.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  /// Called right after task `v` completed at simulated time `now` (its
  /// block may have dispatched transfers and started its next task already).
  virtual ObserverAction onTaskFinish(graph::VertexId v, double now) = 0;
  /// Called right after a fault was applied (the running task, if any, is
  /// already killed and `fault.killedTask` names it). Returning kPause stops
  /// the run exactly like a task-finish pause; the default ignores faults.
  virtual ObserverAction onFault(const FaultEvent& fault, double now) {
    (void)fault;
    (void)now;
    return ObserverAction::kContinue;
  }
};

/// Mutable per-block execution state, exposed for checkpoint/resume.
struct BlockState {
  std::size_t nextStep = 0;       // next traversal index to start
  std::size_t done = 0;           // completed tasks of the block
  std::size_t pendingInputs = 0;  // outstanding inbound block transfers
  double barrierTime = 0.0;       // when the last inbound transfer arrived
};

/// A task executing at checkpoint time; it keeps its drawn finish time.
struct RunningTaskState {
  platform::ProcessorId proc = platform::kNoProcessor;
  graph::VertexId task = graph::kInvalidVertex;
  double finish = 0.0;
};

/// One in-flight transfer on the shared backbone at checkpoint time.
struct TransferState {
  double remaining = 0.0;   // perturbed volume left to move
  double total = 0.0;       // perturbed volume at dispatch
  double bytes = 0.0;       // unperturbed volume
  double dispatched = 0.0;  // simulated time the transfer was dispatched
  quotient::BlockId srcBlock = quotient::kNoBlock;
  quotient::BlockId dstBlock = quotient::kNoBlock;
  graph::VertexId dstTask = graph::kInvalidVertex;  // eager mode only
};

/// Perturbation key of the aggregated transfer from block `src` to block
/// `dst` (eager-mode transfers are keyed by their edge id instead); the
/// rescheduler's re-sends draw their volume factors under the same key.
inline std::uint64_t blockTransferId(quotient::BlockId src,
                                     quotient::BlockId dst) {
  return (static_cast<std::uint64_t>(src) << 32) |
         static_cast<std::uint64_t>(dst);
}

/// One completed transfer, recorded when SimOptions::recordTransfers is set
/// (the schedule-timeline trace exporter renders these as link slices).
struct TransferRecord {
  quotient::BlockId srcBlock = quotient::kNoBlock;
  quotient::BlockId dstBlock = quotient::kNoBlock;
  graph::VertexId dstTask = graph::kInvalidVertex;  // eager mode only
  double bytes = 0.0;  // unperturbed volume
  double start = 0.0;  // dispatch time
  double end = 0.0;    // delivery time (>= start)
};

/// Complete in-flight state of a paused block-synchronous run, and the
/// engine's own state while it runs (all but `running`, which it tracks per
/// processor). Block ids index the plan the checkpoint was captured from;
/// the rescheduler translates them when it splices a repaired schedule
/// (src/resched).
struct SimCheckpoint {
  double now = 0.0;
  std::size_t tasksDone = 0;
  std::vector<BlockState> blocks;         // indexed by block id
  std::vector<RunningTaskState> running;  // tasks in flight at `now`
  std::vector<TransferState> transfers;   // transfers in flight at `now`
  std::vector<char> taskCompleted;        // indexed by vertex id
  std::vector<double> readyTime;          // per task; event-record bookkeeping
  std::vector<TaskEvent> events;          // records of started/completed tasks
  // Result counters accumulated so far, carried into the resumed run.
  double makespanSoFar = 0.0;
  std::size_t numTransfers = 0;
  double transferVolume = 0.0;
  std::size_t memoryOverflows = 0;
  double maxMemoryExcess = 0.0;
  // Fault-injection state, populated only when the run had a fault model.
  // Processor-indexed, so it survives the rescheduler's block-id
  // translation untouched.
  std::vector<double> procDeadUntil;         // per processor; +inf = fail-stop
  std::vector<std::uint32_t> faultsApplied;  // events consumed per processor
  std::vector<FaultEvent> faultLog;          // faults recorded so far
};

struct SimOptions {
  CommModel comm = CommModel::kBlockSynchronous;
  bool contention = false;  // fair-share the beta backbone across transfers
  /// Null = deterministic replay. The engine calls beginRun(seed) itself.
  PerturbationModel* perturbation = nullptr;
  std::uint64_t seed = 1;  // run seed handed to the perturbation model
  /// Non-null: the engine reports task completions and may be paused
  /// (block-synchronous runs only).
  SimObserver* observer = nullptr;
  /// Non-null: start from this checkpoint instead of time 0. The checkpoint
  /// must match the plan (block count, task count) — typically it was
  /// captured from this plan, or adapted to it by the rescheduler.
  const SimCheckpoint* resume = nullptr;
  /// Record every completed transfer into SimResult::transferLog (used by
  /// the obs schedule-timeline exporter). A resumed run logs only the
  /// transfers delivered after the checkpoint.
  bool recordTransfers = false;
  /// Non-null: inject processor faults (block-synchronous runs only). The
  /// engine calls beginRun(seed) itself; a model that draws no events is a
  /// bit-exact no-op relative to leaving this null.
  FaultModel* faults = nullptr;
};

struct SimResult {
  bool ok = false;
  std::string error;  // empty when ok
  /// True when a SimObserver paused the run before completion; `checkpoint`
  /// then holds the in-flight state and `makespan` the latest finish so far.
  bool paused = false;
  SimCheckpoint checkpoint;  // populated only when paused
  double makespan = 0.0;
  std::vector<TaskEvent> events;  // one per task, indexed by vertex id
  std::size_t numTransfers = 0;   // cross-processor transfers dispatched
  double transferVolume = 0.0;    // total bytes moved (unperturbed volumes)
  /// Memory-overflow episodes: task-start or transfer-arrival instants where
  /// a processor's usage (traversal accounting + early-arrival buffers)
  /// exceeded its memory size.
  std::size_t memoryOverflows = 0;
  double maxMemoryExcess = 0.0;  // worst usage - memory over all episodes
  /// Completed transfers, populated only when SimOptions::recordTransfers.
  std::vector<TransferRecord> transferLog;
  /// Faults applied during the run (SimOptions::faults), in application
  /// order; killedTask names the task each fault interrupted, if any.
  std::vector<FaultEvent> faultLog;
};

namespace detail {
/// Perturbation-independent per-block data: traversal order and the
/// oracle-traversal memory profile (the processor is the quotient node's).
struct BlockPlan {
  std::vector<graph::VertexId> order;
  std::vector<double> stepMemory;
  std::vector<double> residentAfter;
  double startResident = 0.0;
};

/// Engine-internal payload of a SimPlan; treat as opaque outside src/sim.
struct PlanData {
  const graph::Dag* g = nullptr;
  const platform::Cluster* cluster = nullptr;
  const scheduler::ScheduleResult* schedule = nullptr;
  std::string error;
  std::vector<BlockPlan> blocks;
  /// The schedule's quotient from scheduler::checkScheduleShape (set on
  /// every ok plan): node(b).proc is block b's processor, in(b) its inbound
  /// block transfers, out(b) its aggregated outbound ones.
  std::optional<quotient::QuotientGraph> quotient;
  std::vector<std::size_t> remoteInputs;  // eager mode: remote in-edges/task
  /// Built with PlanHints::completedBlock: the distinct-processor rule was
  /// relaxed for blocks that only make sense as already-executed history,
  /// so this plan can only be simulated from a matching checkpoint.
  bool resumeOnly = false;
};
}  // namespace detail

/// Precomputed execution plan for one (workflow, cluster, schedule) triple:
/// the schedule's shape check and placed quotient, per-block traversal
/// orders and memory profiles. Building it is the expensive part of a
/// simulation, and replays only read it: resched::runOnline,
/// evaluateRobustness and experiments::replayScheduled take a prepared plan,
/// so every replay of a schedule shares one. Holds references to the
/// workflow, cluster and schedule, which must outlive the plan.
class SimPlan {
 public:
  [[nodiscard]] bool ok() const noexcept { return data_.error.empty(); }
  [[nodiscard]] const std::string& error() const noexcept {
    return data_.error;
  }
  [[nodiscard]] const detail::PlanData& data() const noexcept {
    return data_;
  }
  [[nodiscard]] detail::PlanData& data() noexcept { return data_; }

 private:
  detail::PlanData data_;
};

/// Construction hints for the plans of spliced (mid-execution) schedules,
/// which the rescheduler's splice builds (src/resched); an initial plan
/// takes none. Both vectors are indexed by block id and may be shorter than
/// the block count (missing entries = no hint):
///   * completedBlock — blocks fully executed at resume time are exempt
///     from the pairwise-distinct-processor rule, so a repaired schedule
///     may reuse the processor a finished block ran on (the static model
///     forbids this, which is one reason online repair can win);
///   * forcedOrder — the traversal order (a permutation of the block's
///     members) to use instead of the oracle's; a partially executed block
///     keeps the order its checkpoint's step indices refer to.
struct PlanHints {
  std::vector<char> completedBlock;
  std::vector<std::vector<graph::VertexId>> forcedOrder;
};

/// Checks `schedule` with scheduler::checkScheduleShape (completed blocks
/// exempt from the distinct-processor rule), then the forced orders, and
/// precomputes everything the event loop needs. Memory is not checked: the
/// engine counts overflows instead.
/// The oracle provides each block's traversal order — the same order the
/// static model's r_V is computed from, so simulation and feasibility check
/// agree on the memory model. A failed plan carries error() and every
/// simulation from it fails with that message.
SimPlan prepareSimulation(const graph::Dag& g,
                          const platform::Cluster& cluster,
                          const scheduler::ScheduleResult& schedule,
                          const memory::MemDagOracle& oracle,
                          const PlanHints* hints = nullptr);

/// Replays a prepared plan once under `options`.
SimResult simulateSchedule(const SimPlan& plan, const SimOptions& options);

/// Convenience: prepare + one replay.
SimResult simulateSchedule(const graph::Dag& g,
                           const platform::Cluster& cluster,
                           const scheduler::ScheduleResult& schedule,
                           const memory::MemDagOracle& oracle,
                           const SimOptions& options = {});

}  // namespace dagpm::sim
