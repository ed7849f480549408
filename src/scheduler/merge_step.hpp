#pragma once
// Step 3 of DagHetPart: MergeUnassignedToAssigned + FindMSOptMerge
// (paper Algorithms 3 and 4).
//
// Operating on the quotient DAG with its partial processor assignment, every
// unassigned node is merged into an assigned neighbor: preferentially one
// off the critical path (merges on the path tend to lengthen it), falling
// back to any assigned neighbor. A tentative merge that creates a cycle of
// length 2 is repaired by absorbing the third node (paper Fig. 2); longer
// cycles discard the candidate. Among feasible candidates (merged memory
// requirement within the host processor's memory), the one minimizing the
// estimated makespan wins. Nodes whose neighbors are still unassigned may be
// deferred up to two times; a stuck node is also retried while other merges
// keep landing (library extension); if a node can neither merge nor wait,
// the instance is infeasible for this block count.
//
// Abort: merges only contract the quotient, so the heaviest path work of
// the current quotient over the fastest speed bounds the final makespan of
// the arm from below (quotient::IncrementalEvaluator::heaviestPathWork).
// With a finite MergeStepConfig::abortAbove the step checks that bound once
// its evaluator is built and after every committed merge, and gives up
// (success = false, aborted = true) as soon as it exceeds the threshold by
// more than a relative 1e-9. Only the k' sweep sets the threshold, to the
// best makespan of its first wave; the fullReevaluation reference has no
// evaluator and never aborts.

#include <limits>
#include <optional>

#include "comm/cost_model.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::scheduler {

struct MergeStepConfig {
  bool preferOffCriticalPath = true;  // ablation: disable the A \ P pass
  /// Library extension: when no neighbor merge is feasible, allow merging
  /// into any assigned node (acyclicity- and memory-checked) before
  /// failing. Rescues saturation dead ends; off = the paper's exact rule.
  bool anyHostFallback = true;
  /// Communication cost model the candidate scoring and the critical-path
  /// preference evaluate under. Null = the paper's uncontended Eq. (1)-(2)
  /// recurrence (the legacy code path, bit-identical to pre-model builds);
  /// &comm::fairShareCommModel() = contention-aware merging.
  const comm::CommCostModel* comm = nullptr;
  /// Probe every merge candidate with the full recompute (acyclicity pass +
  /// whole-quotient makespan) instead of the quotient::IncrementalEvaluator
  /// delta path (differential reference; bit-identical results).
  bool fullReevaluation = false;
  /// Give up once the path-work lower bound on the final makespan exceeds
  /// this (see the header comment). +inf = never; set by the k' sweep only.
  double abortAbove = std::numeric_limits<double>::infinity();
};

struct MergeStepResult {
  bool success = false;
  /// The lower bound crossed MergeStepConfig::abortAbove (success = false).
  bool aborted = false;
  std::uint32_t mergesCommitted = 0;
};

/// Mutates `q` until every alive node is assigned (success) or returns
/// failure. On success the quotient is acyclic and all memory requirements
/// of merged nodes are set (recomputed through the oracle).
MergeStepResult mergeUnassignedToAssigned(quotient::QuotientGraph& q,
                                          const platform::Cluster& cluster,
                                          const memory::MemDagOracle& oracle,
                                          const MergeStepConfig& cfg = {});

}  // namespace dagpm::scheduler
