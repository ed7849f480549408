#pragma once
// Shared plumbing for the bench binaries. A bench builds the instance set
// for the active scale (DAGPM_QUICK / default / DAGPM_FULL), runs both
// schedulers through the experiment harness (OpenMP-parallel across
// instances), prints the rows/series the paper reports and exports one
// document per table or figure. paper_figures emits all of the paper's
// Sec. 5 figures and the extension studies from one process; the other
// benches emit one document each.

#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "support/env.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace dagpm::bench {

using experiments::Aggregate;
using experiments::Instance;
using experiments::RunOutcome;
using workflows::SizeBand;

/// Holds the environment and the scheduler options it selects.
class BenchContext {
 public:
  BenchContext() : env_(support::BenchEnv::fromEnvironment()) {}

  [[nodiscard]] const support::BenchEnv& env() const noexcept { return env_; }

  /// All four workflow groups at the active scale: real-world, small, mid
  /// and big, in that order.
  std::vector<Instance> allInstances(double workScale = 1.0) const {
    std::vector<Instance> instances =
        experiments::makeRealInstances(env_.seeds, workScale);
    append(instances, experiments::makeSyntheticInstances(
                          env_.smallSizes(), SizeBand::kSmall, env_.seeds,
                          workScale));
    append(instances,
           experiments::makeSyntheticInstances(
               env_.midSizes(), SizeBand::kMid, env_.seeds, workScale));
    append(instances,
           experiments::makeSyntheticInstances(
               env_.bigSizes(), SizeBand::kBig, env_.seeds, workScale));
    return instances;
  }

  /// Runner options with the active k' sweep.
  [[nodiscard]] experiments::RunnerOptions options() const {
    experiments::RunnerOptions opts;
    opts.part.sweep = sweep();
    return opts;
  }

  [[nodiscard]] scheduler::KPrimeSweep sweep() const {
    if (env_.sweep == "full") return scheduler::KPrimeSweep::kFull;
    if (env_.sweep == "single") return scheduler::KPrimeSweep::kSingle;
    return scheduler::KPrimeSweep::kDoubling;
  }

  [[nodiscard]] std::string sweepName() const {
    return env_.sweep.empty() ? "doubling" : env_.sweep;
  }

  /// The run parameters every exported document records as its "meta",
  /// plus a document's own `extra` ones.
  [[nodiscard]] std::map<std::string, std::string> meta(
      std::map<std::string, std::string> extra = {}) const {
    extra.insert({{"scale", scaleName()},
                  {"sweep", sweepName()},
                  {"seeds", std::to_string(env_.seeds)}});
    return extra;
  }

  [[nodiscard]] std::string scaleName() const {
    switch (env_.scale) {
      case support::BenchScale::kQuick: return "quick";
      case support::BenchScale::kDefault: return "default";
      case support::BenchScale::kFull: return "full";
    }
    return "?";
  }

 private:
  static void append(std::vector<Instance>& into, std::vector<Instance> from) {
    for (Instance& inst : from) into.push_back(std::move(inst));
  }

  support::BenchEnv env_;
};

/// Standard preamble: what this bench regenerates and at which scale.
inline void printPreamble(const BenchContext& ctx, const std::string& title,
                          const std::string& paperRef) {
  support::printHeading(std::cout, title);
  std::cout << "reproduces: " << paperRef << "\n"
            << "scale: " << ctx.scaleName()
            << " (DAGPM_QUICK=1 / DAGPM_FULL=1 to change), k' sweep: "
            << ctx.sweepName() << " (DAGPM_SWEEP=full for the paper's sweep)\n"
            << "relative makespan = geomean(DagHetPart/DagHetMem) per group;"
            << " lower is better, 100% = baseline\n\n";
}

/// Standard epilogue of one exported table or figure: writes the optional
/// <name>.csv / <name>.json exports (DAGPM_CSV / DAGPM_JSON_OUT, via
/// experiments::exportBench) and converts the harness outcomes into an exit
/// status so CI smoke runs fail loudly. Returns nonzero when the harness
/// produced no outcomes, when an export failed, or — unless
/// `requireFeasible` is false (figures that intentionally probe infeasible
/// regimes) — when not a single instance was schedulable by both
/// schedulers. Figures that sweep a parameter pass one named group per
/// configuration so the exported JSON keeps per-configuration rows;
/// single-configuration figures pass one group named "".
inline int finish(const BenchContext& ctx, const std::string& name,
                  const experiments::OutcomeGroups& groups,
                  bool requireFeasible = true) {
  const experiments::BenchExport exported =
      experiments::outcomesExport(name, groups, ctx.meta());
  if (!experiments::exportBench(exported)) return 1;
  bool anyOutcome = false, anyFeasible = false;
  for (const auto& [config, outcomes] : groups) {
    for (const RunOutcome& out : outcomes) {
      anyOutcome = true;
      anyFeasible = anyFeasible || (out.partFeasible && out.memFeasible);
    }
  }
  if (!anyOutcome) {
    std::cerr << "error: the harness produced no outcomes\n";
    return 1;
  }
  if (requireFeasible && !anyFeasible) {
    std::cerr << "error: no instance was schedulable by both schedulers\n";
    return 1;
  }
  return 0;
}

}  // namespace dagpm::bench
