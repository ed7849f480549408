#pragma once
// Cross-cutting scheduler switches shared by DagHetPart and the experiment
// harness.

#include "comm/cost_model.hpp"

namespace dagpm::scheduler {

struct SchedulerOptions {
  /// Price inter-block transfers through the fair-share link model the
  /// simulator executes (comm::fairShareCommModel()) instead of the paper's
  /// uncontended c/beta. Off (the default) keeps every search and makespan
  /// bit-identical to the paper-faithful pipeline; on, the Step-3 merge
  /// scoring, the Step-4 swap/idle-move search, the k'-sweep selection and
  /// the reported makespan all optimize the contended physics.
  bool contentionAware = false;
  /// Price every Step-3/4 probe with the full O(V+E) recompute instead of
  /// the quotient::IncrementalEvaluator delta path. Each step runs its one
  /// search loop either way, and only the pricing (plus the critical path
  /// and the evaluator's commit) differs, so schedules are bit-identical
  /// (fuzz- and baseline-enforced); the full mode is the differential
  /// reference and the baseline of the bench/scheduler_scaling speedup.
  bool fullReevaluation = false;
};

/// The cost model selected by the options: nullptr = the legacy uncontended
/// code path (kept verbatim so the default stays bit-identical), otherwise
/// the shared fair-share instance.
inline const comm::CommCostModel* commModelFor(
    const SchedulerOptions& options) {
  return options.contentionAware ? &comm::fairShareCommModel() : nullptr;
}

/// The full-reevaluation switch for a scheduler run.
inline bool useFullReevaluation(const SchedulerOptions& options) {
  return options.fullReevaluation;
}

}  // namespace dagpm::scheduler
