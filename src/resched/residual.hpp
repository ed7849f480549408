#pragma once
// Residual view of a paused block-synchronous execution.
//
// When the simulator pauses at a checkpoint, the remaining scheduling
// problem is no longer the paper's static DAGP-PM instance: some blocks are
// done (their processors are free again), some are mid-execution (pinned to
// their processor, their traversal prefix burnt), transfers are in flight,
// and the running tasks' (perturbed) finish times are known. This module
// builds that residual problem from a (plan, checkpoint) pair and evaluates
// candidate repairs with a deterministic projection:
//
//   * pinned blocks finish at release + remainingWork / speed (release is
//     the running task's drawn finish time, or the end of the processor's
//     downtime; block-synchronous blocks execute contiguously once started);
//   * freed (unstarted) blocks start once the processor they sit on is up —
//     a transient crash's downtime belongs to the processor, so it follows
//     neither a block moved off it nor spares one moved onto it — and all
//     inputs are in: delivered
//     inputs at the recorded barrier, in-flight inputs at now + remaining /
//     beta, inputs from still-live predecessors at pred finish + cost /
//     beta; moving a freed block invalidates received data, which must be
//     re-sent from its (completed) producers at full volume;
//   * makespan = max block finish, floored by the history's latest finish.
//
// The residual is the plan's own quotient plus per-block execution state:
// completed blocks stay as nodes whose out-edges are the inputs they still
// owe (in flight, or re-sent when the destination moves), live blocks carry
// their processor and r_V on the quotient, and the repair's merges are the
// quotient's own merge/rollback transactions.
//
// The projection reproduces the resumed deterministic uncontended simulation
// exactly (the tests assert agreement to 1e-9), so the repair search in
// repair.hpp optimizes precisely the quantity the engine will realize when
// no further noise materializes.

#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "comm/cost_model.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"
#include "sim/engine.hpp"

namespace dagpm::resched {

/// Execution state of one block of the residual problem, indexed like the
/// plan's blocks. Completed blocks stay in the quotient (their out-edges are
/// the inputs they owe live blocks) but carry no other state.
struct ResidualBlock {
  platform::ProcessorId origProc = platform::kNoProcessor;  // plan's choice
  bool completed = false;  // fully executed before the pause
  bool pinned = false;     // a task started: the processor cannot change
  bool merged = false;     // absorbed another freed block during repair
  /// Stranded on a fail-stop processor. A lost block is never pinned — even
  /// a started one re-enters the residual with its unexecuted suffix
  /// (task-level preemptive restart): the repair must evacuate it, and the
  /// splice re-receives its checkpointed prefix plus its inputs.
  bool lost = false;
  /// Executed prefix length (tasks) of a lost started block; merging such a
  /// block is forbidden (a merge would discard the prefix's traversal).
  std::size_t doneSteps = 0;
  /// Bytes of the checkpointed prefix a moved lost block must re-receive
  /// from the checkpoint store before resuming (residentAfter[done-1]).
  double restoreBytes = 0.0;
  double remainingWork = 0.0;  // total work of not-yet-started tasks
  /// Earliest next start of a pinned block: its running task's drawn
  /// finish, else its processor's ready time. Unpinned blocks start no
  /// earlier than the ready time of whatever processor they sit on.
  double release = 0.0;
  double barrier = 0.0;  // latest delivered-input arrival
};

struct ResidualState {
  explicit ResidualState(quotient::QuotientGraph quotient)
      : q(std::move(quotient)) {}

  /// The plan's quotient, with every block's processor and every live
  /// block's memReq (oracle r_V of its members) set. Repair moves, swaps
  /// and merges act on it directly; absorbed blocks are its dead nodes.
  quotient::QuotientGraph q;
  std::vector<ResidualBlock> blocks;  // indexed by block id
  double now = 0.0;
  double makespanSoFar = 0.0;
  /// Perturbed volume still to move of each in-flight transfer from a
  /// completed block, keyed by (source, destination) block.
  std::map<std::pair<quotient::BlockId, quotient::BlockId>, double> inFlight;
  /// Output bytes of completed blocks still leaving each processor (their
  /// transfers are in flight); a block moving onto such a processor must fit
  /// beside them.
  std::vector<double> residentOnProc;
  std::vector<char> procHostsLive;  // processor currently holds a live block
  /// The checkpoint's fault state (empty when the run has no fault model):
  /// +infinity marks a fail-stop processor, and any assignment leaving a
  /// live block on one projects to +infinity; a later finite instant ends a
  /// transient crash's downtime, before which no block starts there.
  std::vector<double> procDeadUntil;
  /// Observed per-processor slowdown estimates (> 0; empty or 1.0 = trust
  /// the nominal speed). The driver fills this from execution history —
  /// actual vs. nominal durations of the tasks each processor completed —
  /// which is what lets the repair flee a persistently slow processor
  /// (transient-slowdown noise) instead of assuming the future is nominal.
  std::vector<double> procSlowdown;

  [[nodiscard]] bool dead(platform::ProcessorId p) const noexcept {
    return p < procDeadUntil.size() &&
           procDeadUntil[p] == std::numeric_limits<double>::infinity();
  }
  /// When processor `p` can next start a task (now, or the end of its
  /// downtime).
  [[nodiscard]] double readyAt(platform::ProcessorId p) const noexcept {
    return p < procDeadUntil.size() && procDeadUntil[p] > now && !dead(p)
               ? procDeadUntil[p]
               : now;
  }
  /// Not yet executed and not absorbed by a merge.
  [[nodiscard]] bool live(quotient::BlockId b) const noexcept {
    return !blocks[b].completed && q.node(b).alive;
  }
  /// A moved block loses its already-received data (it must be re-sent).
  [[nodiscard]] bool moved(quotient::BlockId b) const noexcept {
    return blocks[b].merged || q.node(b).proc != blocks[b].origProc;
  }
};

/// Builds the residual problem of a paused run. The checkpoint must belong
/// to `plan` (same block ids); `oracle` supplies block memory requirements
/// (memoized — the plan was built through the same oracle).
ResidualState buildResidual(const sim::SimPlan& plan,
                            const sim::SimCheckpoint& checkpoint,
                            const memory::MemDagOracle& oracle);

/// Deterministic projection of the residual makespan under the current
/// (possibly tentatively mutated) assignment. Returns +infinity when the
/// live-block quotient is cyclic (a repair candidate that must be
/// rejected). The default (null) model is the legacy uncontended pass;
/// passing &comm::fairShareCommModel() prices the in-flight remainders,
/// re-sends and live inter-block transfers jointly over the shared link, so
/// a repair driven by it optimizes the physics a contended execution
/// (SimOptions::contention) will realize.
double projectResidual(const ResidualState& state,
                       const platform::Cluster& cluster,
                       const comm::CommCostModel* comm = nullptr);

}  // namespace dagpm::resched
