#pragma once
// Shared plumbing for the bench binaries. A bench builds the instance set
// for the active scale (DAGPM_QUICK / default / DAGPM_FULL), runs both
// schedulers through the experiment harness (OpenMP-parallel across
// instances), prints the rows/series the paper reports and exports one
// document per table or figure. paper_figures emits all of the paper's
// Sec. 5 figures and the extension studies from one process; the other
// benches emit one document each.

#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments/export.hpp"
#include "experiments/harness.hpp"
#include "support/env.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace dagpm::bench {

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

/// The number `key` of an exported JSON object; throws when it has none.
inline double number(const support::JsonValue& row, const std::string& key) {
  const support::JsonValue* value = row.find(key);
  if (value == nullptr || !value->isNumber()) {
    throw std::logic_error("exported row has no number " + key);
  }
  return value->asNumber();
}

/// Console text of `key` in an exported JSON row: a string as is, a number
/// as a count ('#'), a ratio ('x'), a percentage ('%') or to two decimals
/// ('2'). A key the row lacks, or of the other kind, throws.
inline std::string cell(const support::JsonValue& row, const std::string& key,
                        char format = 's') {
  const support::JsonValue* value = row.find(key);
  if (value == nullptr ||
      (format == 's' ? !value->isString() : !value->isNumber())) {
    throw std::logic_error("exported row has no cell " + key);
  }
  const double v = value->asNumber();
  if (format == '#') return std::to_string(static_cast<long>(v));
  if (format == 'x') return support::Table::num(v, 3) + "x";
  if (format == '%') return support::Table::percent(v);
  if (format == '2') return support::Table::num(v, 2);
  return value->asString();
}

/// Standard epilogue of one harness figure: writes its optional <name>.csv
/// and <name>.json (DAGPM_CSV / DAGPM_JSON_OUT, via experiments::exportBench)
/// and returns nonzero, so CI smoke runs fail loudly, when an export failed
/// or the exported "overall" counts no outcome or — unless `requireFeasible`
/// is false (figures probing infeasible regimes) — none scheduled by both.
/// A figure sweeping a parameter passes one named group per configuration;
/// a single-configuration figure passes one group named "".
inline int finish(const BenchContext& ctx, const std::string& name,
                  const experiments::OutcomeGroups& groups,
                  bool requireFeasible = true) {
  const experiments::BenchExport exported =
      experiments::outcomesExport(name, groups, ctx.meta());
  if (!experiments::exportBench(exported)) return 1;
  const support::JsonValue& overall = exported.extra.at("overall");
  if (number(overall, "total") == 0.0) {
    std::cerr << "error: the harness produced no outcomes\n";
    return 1;
  }
  if (requireFeasible && number(overall, "scheduled_both") == 0.0) {
    std::cerr << "error: no instance was schedulable by both schedulers\n";
    return 1;
  }
  return 0;
}

}  // namespace dagpm::bench
