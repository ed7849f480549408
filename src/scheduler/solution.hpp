#pragma once
// Schedules (solutions of the DAGP-PM problem) and their validation.
//
// A solution is an acyclic k'-way partition of the workflow plus an injective
// mapping of blocks to processors such that every block's traversal peak
// memory fits its processor; its quality is the makespan of the quotient DAG.
//
// The structural half of that definition lives in one place,
// checkScheduleShape: validateSchedule adds the block count, memory and
// makespan checks on top, sim::prepareSimulation its forced traversal
// orders, and both read the quotient (processors included) it returns.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "graph/dag.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::scheduler {

struct ScheduleStats {
  /// Wall-clock of the whole run, set by dagHetPart, scheduleBest and
  /// dagHetMem only (dagHetPartSingle leaves it 0).
  double seconds = 0.0;
  std::uint32_t kPrime = 0;    // number of blocks requested in Step 1
  std::uint32_t numBlocks = 0; // blocks in the final solution
  std::uint32_t mergesCommitted = 0;
  std::uint32_t swapsCommitted = 0;
  std::uint32_t idleMovesCommitted = 0;
  std::uint32_t splitsPerformed = 0;
};

struct ScheduleResult {
  bool feasible = false;
  double makespan = 0.0;
  std::vector<std::uint32_t> blockOf;  // task -> block, in [0, numBlocks)
  std::vector<platform::ProcessorId> procOfBlock;  // block -> processor
  ScheduleStats stats;

  [[nodiscard]] std::uint32_t numBlocks() const noexcept {
    return static_cast<std::uint32_t>(procOfBlock.size());
  }
};

/// The quotient of a schedule: one node per block, placed on the block's
/// processor (memory requirements unset). blockOf labels must be in range.
quotient::QuotientGraph quotientOf(const graph::Dag& g,
                                   const ScheduleResult& schedule);

/// The feasible schedule a placed quotient describes, reporting `makespan`:
/// its alive nodes become blocks 0, 1, ... in aliveNodes() order, and
/// stats.numBlocks counts them. Every alive node must have a processor.
ScheduleResult scheduleOf(const quotient::QuotientGraph& q, double makespan);

/// checkScheduleShape's verdict.
struct ScheduleShape {
  std::string error;  // empty when well formed
  std::optional<quotient::QuotientGraph> quotient;  // set when well formed
};

/// Checks that `schedule` is a well-formed mapping of `g` onto `cluster`, in
/// this order: the feasible flag; blockOf covers every task with a label in
/// range; no block is empty; every block's processor is in range, and the
/// processors are pairwise distinct except for blocks `completed` marks
/// (already executed at resume time; entries past its end are unmarked);
/// the quotient is acyclic. On success `quotient` is quotientOf(g, schedule),
/// every node placed on its block's processor. Memory and the makespan are
/// not checked, and zero blocks on an empty workflow are well formed.
ScheduleShape checkScheduleShape(const graph::Dag& g,
                                 const platform::Cluster& cluster,
                                 const ScheduleResult& schedule,
                                 std::span<const char> completed = {});

/// Outcome of validating a schedule against the problem constraints.
struct ValidationReport {
  bool valid = false;
  std::string error;  // empty when valid
};

/// Checks all DAGP-PM constraints: at least one and at most k blocks, the
/// shape of checkScheduleShape (no completed blocks), every block's memory
/// requirement (per `oracle`) within its processor's memory, and the reported
/// makespan matching a recomputation (relative tolerance 1e-9). Schedules
/// produced with SchedulerOptions::contentionAware report the fair-share
/// priced makespan; pass the matching model (commModelFor) so the makespan
/// cross-check recomputes under the same physics (null = uncontended).
ValidationReport validateSchedule(const graph::Dag& g,
                                  const platform::Cluster& cluster,
                                  const memory::MemDagOracle& oracle,
                                  const ScheduleResult& schedule,
                                  const comm::CommCostModel* comm = nullptr);

/// Static Eq. (1)-(2) forward-pass makespan of a schedule (modelMakespan
/// under the uncontended model; 0 when the quotient is cyclic), recomputed
/// from its quotient (not read from schedule.makespan). No feasibility
/// checking; blockOf labels must be in range.
double staticMakespan(const graph::Dag& g, const platform::Cluster& cluster,
                      const ScheduleResult& schedule);

/// The same number, bit for bit, priced on a schedule's placed quotient.
double staticMakespan(const quotient::QuotientGraph& q,
                      const platform::Cluster& cluster);

/// Model-priced makespan of a schedule, recomputed from its quotient.
/// nullopt when the quotient is cyclic. With the fair-share model this is
/// the makespan the deterministic contended simulation realizes (the
/// differential tests pin the agreement to 1e-9).
std::optional<double> modelMakespan(const graph::Dag& g,
                                    const platform::Cluster& cluster,
                                    const ScheduleResult& schedule,
                                    const comm::CommCostModel& model);

}  // namespace dagpm::scheduler
