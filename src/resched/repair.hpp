#pragma once
// Residual-schedule repair: the online analogue of DagHetPart Steps 3-4.
//
// Operating on the residual problem of residual.hpp, the repair search
// improves the projected residual makespan with three deterministic local
// moves, mirroring the static pipeline under the constraints execution has
// already imposed (pinned blocks cannot leave their processor, capacities
// shrink by data still resident from completed blocks):
//
//   * move   — a freed block relocates to an unoccupied processor (possibly
//              one a completed block ran on, which the static model's
//              injective mapping could never use) — Step 4's idle moves;
//   * swap   — two freed blocks exchange processors — Step 4's swaps;
//   * merge  — a freed block is absorbed into an adjacent freed block,
//              eliminating their communication — Step 3's merge refinement,
//              memory-checked through the oracle. Each candidate is a
//              QuotientGraph::merge on the residual's quotient, projected
//              (a cycle projects to +infinity) and rolled back, exactly as
//              Step 3 probes merges on the static quotient.
//
// Moves and swaps only re-label quotient nodes' processors. Merge partners
// are probed in ascending block id across a block's predecessors and
// successors. The best improving operation is applied until none remains
// (at most 16 rounds, and 64 oracle evaluations of merge candidates), and
// the whole
// repair is accepted only when the final projection beats the keep-current
// projection by `minGain` — the splice then rewrites the schedule, adapts
// the checkpoint (block-id translation, transfer re-sends for moved blocks)
// and hands both back for the engine to resume from.

#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "resched/residual.hpp"
#include "scheduler/solution.hpp"
#include "sim/engine.hpp"
#include "sim/perturbation.hpp"

namespace dagpm::resched {

struct RepairConfig {
  /// Naive greedy re-execution mode: evacuate lost blocks off dead
  /// processors (largest free memory wins) and stop — no improvement
  /// rounds. The fault-tolerant driver races this baseline against the full
  /// search and keeps the better execution, so recovery is never worse than
  /// greedy re-execution by construction.
  bool evacuateOnly = false;
  /// Relative projected improvement required to accept the repair; below
  /// it the schedule is kept unchanged (splicing has real costs: moved
  /// blocks lose their received data).
  double minGain = 0.01;
  /// Communication cost model every candidate projection is priced under.
  /// Null = the legacy uncontended pass; &comm::fairShareCommModel() makes
  /// the repair optimize the contended physics a fair-share execution
  /// realizes (the driver selects it when the engine runs with contention).
  const comm::CommCostModel* comm = nullptr;
};

struct RepairResult {
  bool accepted = false;
  /// Keep-current residual projection. When the residual contains lost
  /// blocks this is the projection *after* the mandatory evacuation pass
  /// (the keep-current assignment is unrecoverable, i.e. +infinity), so the
  /// before/after delta measures what the improvement rounds added on top
  /// of greedy evacuation.
  double projectedBefore = 0.0;
  double projectedAfter = 0.0;   // projection of the repaired residual
  int moves = 0;
  int swaps = 0;
  int merges = 0;
  int evacuationsNeeded = 0;  // lost blocks found on dead processors
  int evacuations = 0;        // lost blocks successfully moved off them
};

/// Improves `state` in place; `state` is only mutated by applied operations,
/// so when the result is not accepted the caller simply discards it.
RepairResult repairResidual(ResidualState& state,
                            const platform::Cluster& cluster,
                            const memory::MemDagOracle& oracle,
                            const RepairConfig& cfg);

/// A repaired schedule spliced into the paused execution: the new schedule
/// (compact block ids; its makespan field carries the usual history-free
/// static Eq. (1)-(2) value — note a spliced schedule may reuse processors
/// of completed blocks, which validateSchedule's distinct-processor rule
/// predates), the plan hints that let completed blocks share processors and
/// keep executed traversal prefixes stable, and the adapted checkpoint the
/// engine resumes from.
struct Splice {
  scheduler::ScheduleResult schedule;
  sim::PlanHints hints;
  sim::SimCheckpoint checkpoint;
  std::vector<quotient::BlockId> oldToNew;  // old block id -> new block id
  std::size_t resendTransfers = 0;  // re-dispatched inputs of moved blocks
  double resendVolume = 0.0;
};

/// Builds the splice for a (possibly repaired) residual state: the alive
/// quotient nodes become the new blocks, and the inputs a moved block must
/// re-receive are its in-edges in the spliced schedule's own quotient.
/// `model` must have been seeded with beginRun(<run seed>) — re-sent
/// transfers draw their volume factors from it exactly like engine
/// dispatches do.
Splice buildSplice(const sim::SimPlan& plan,
                   const sim::SimCheckpoint& checkpoint,
                   const ResidualState& state,
                   const sim::PerturbationModel& model);

}  // namespace dagpm::resched
