#pragma once
// Contention experiments: how optimistic is the static uncontended cost
// model under fair-share link contention, and how much of that optimism does
// contention-aware scheduling (SchedulerOptions::contentionAware) win back?
//
// For every instance and every rung of a CCR ladder (communication-to-
// computation ratio; the cluster bandwidth is set to 1/ccr, so higher rungs
// mean slower links and more contention), DagHetPart schedules the workflow
// twice — contention-oblivious (the paper's pipeline) and contention-aware —
// and both schedules are executed through the deterministic fair-share
// block-synchronous simulator, the ground truth both cost models are judged
// against:
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
};

struct ContentionRunnerOptions {
  scheduler::DagHetPartConfig part;  // options.contentionAware is overridden
};

/// Schedules every instance at every CCR rung with contention-aware search
/// off and on (cluster memories scaled per Sec. 5.1.2, bandwidth = 1/ccr)
/// and simulates both schedules under fair-share contention.
std::vector<ContentionOutcome> runContention(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const std::vector<double>& ccrLadder,
    const ContentionRunnerOptions& options);

/// Per-group aggregate: the bench table / JSON rows.
struct ContentionAggregate {
  int total = 0;
  int comparable = 0;  // both modes feasible (only those aggregate below)
  int awareWins = 0;   // awareSimulated < obliviousSimulated - 1e-9
  int awareLosses = 0;
  double geomeanObliviousStatic = 0.0;
  double geomeanObliviousSimulated = 0.0;
  double geomeanAwareSimulated = 0.0;
  double geomeanOptimismGap = 0.0;  // of obliviousSim / obliviousStatic
  double geomeanAwareGain = 0.0;    // of obliviousSim / awareSim (>1 = win)
  /// Mean over instances with a positive optimism gap of the recovered
  /// fraction, clamped to [0, 1].
  double meanRecoveredFraction = 0.0;
};

/// Groups outcomes by (config, band name) plus an "all" band per config.
std::map<std::pair<std::string, std::string>, ContentionAggregate>
aggregateContention(const std::vector<ContentionOutcome>& outcomes);

/// The contention_gap export: one CSV row per outcome and one JSON row per
/// (config, band) aggregate.
BenchExport contentionExport(
    const std::string& bench, const std::vector<ContentionOutcome>& outcomes,
    const std::map<std::string, std::string>& meta = {});

}  // namespace dagpm::experiments
