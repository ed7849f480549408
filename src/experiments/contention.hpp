#pragma once
// Contention experiments: how optimistic is the static uncontended cost
// model under fair-share link contention, and how much of that optimism does
// contention-aware scheduling (SchedulerOptions::contentionAware) win back?
//
// For every instance and every rung of a CCR ladder (communication-to-
// computation ratio; the cluster bandwidth is 1/ccr, so higher rungs mean
// slower links and more contention), the caller's pass at that bandwidth
// holds the contention-oblivious DagHetPart schedule (the paper's pipeline)
// and runContention adds a contention-aware one on the same scaled cluster;
// both are executed through the deterministic fair-share block-synchronous
// simulator, the ground truth both cost models are judged against:
//
//   optimism gap       = simulated / static  of the oblivious schedule: how
//                        much the paper's Eq. (1)-(2) underestimates the
//                        contended execution;
//   aware gain         = oblivious-simulated / aware-simulated: the speedup
//                        contention-aware Step-3/4 search realizes;
//   recovered fraction = (obliviousSim - awareSim) / (obliviousSim -
//                        obliviousStatic): the share of the optimism gap the
//                        aware search closes (1 = all the way down to the
//                        static prediction, 0 = none).
//
// Everything is deterministic (no perturbation), so aggregates export
// through DAGPM_JSON_OUT / DAGPM_CSV and regress against a recorded
// baseline like the fig03/table04/resched benches.

#include <map>
#include <span>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"

namespace dagpm::experiments {

/// Outcome of one (ccr, instance) pair: both scheduling modes, each judged
/// by the fair-share simulation.
struct ContentionOutcome {
  std::string config;  // "ccr<value>"
  std::string instance;
  workflows::SizeBand band = workflows::SizeBand::kSmall;
  std::string family;
  int numTasks = 0;
  double ccr = 1.0;
  bool obliviousFeasible = false;
  bool awareFeasible = false;
  double obliviousStatic = 0.0;     // uncontended Eq. (1)-(2) prediction
  double obliviousPredicted = 0.0;  // fair-share model value of the schedule
  double obliviousSimulated = 0.0;  // fair-share sim ground truth
  double awareStatic = 0.0;
  double awarePredicted = 0.0;  // the value the aware search optimized
  double awareSimulated = 0.0;
  friend bool operator==(const ContentionOutcome&,
                         const ContentionOutcome&) = default;
};

/// For every instance and CCR rung r: reads the oblivious schedule and its
/// scaled cluster from `obliviousPasses[r]` (scheduled with `part` at
/// bandwidth 1/ccrLadder[r]), schedules the contention-aware arm on that
/// cluster and simulates both under fair-share contention. Throws
/// std::invalid_argument unless there is one covering pass per rung.
std::vector<ContentionOutcome> runContention(
    std::span<const Instance> instances, const std::vector<double>& ccrLadder,
    const std::vector<std::span<const ScheduledInstance>>& obliviousPasses,
    const scheduler::DagHetPartConfig& part);

/// The contention_gap export: one CSV row per outcome and one JSON row per
/// (config, band) group, plus an "all" band per config.
BenchExport contentionExport(
    const std::string& bench, const std::vector<ContentionOutcome>& outcomes,
    const std::map<std::string, std::string>& meta = {});

}  // namespace dagpm::experiments
