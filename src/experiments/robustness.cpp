#include "experiments/robustness.hpp"

#include <algorithm>
#include <sstream>

#include "experiments/export.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

std::vector<NoiseLevel> lognormalLadder(const std::vector<double>& sigmas) {
  std::vector<NoiseLevel> levels;
  levels.reserve(sigmas.size());
  for (const double sigma : sigmas) {
    NoiseLevel level;
    if (sigma <= 0.0) {
      level.spec.kind = sim::PerturbationKind::kDeterministic;
    } else {
      level.spec.kind = sim::PerturbationKind::kLognormal;
      level.spec.sigma = sigma;
    }
    std::ostringstream name;
    name << "sigma" << sigma;
    level.config = name.str();
    levels.push_back(std::move(level));
  }
  return levels;
}

std::vector<RobustnessOutcome> runRobustness(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<NoiseLevel>& levels,
    const sim::RobustnessOptions& options) {
  return replayScheduled<RobustnessOutcome>(
      instances, scheduled, levels, &NoiseLevel::config, 1,
      [&](RobustnessOutcome& out, const ReplayCell& cell) {
        sim::RobustnessOptions ro = options;
        ro.perturbation = levels[cell.level].spec;
        ro.seed = sim::mixSeed(options.seed, cell.slot);
        out.summary = sim::evaluateRobustness(cell.dag, cell.scaled,
                                              cell.schedule, cell.oracle, ro);
      });
}

std::map<std::pair<std::string, std::string>, RobustnessAggregate>
aggregateRobustness(const std::vector<RobustnessOutcome>& outcomes) {
  std::map<std::pair<std::string, std::string>,
           std::vector<const RobustnessOutcome*>>
      groups;
  for (const RobustnessOutcome& out : outcomes) {
    groups[{out.config, out.scheduler}].push_back(&out);
  }
  std::map<std::pair<std::string, std::string>, RobustnessAggregate> result;
  for (const auto& [key, group] : groups) {
    RobustnessAggregate agg;
    std::vector<double> statics, means, p95s, meanSlow, p95Slow;
    long totalReplications = 0;
    for (const RobustnessOutcome* out : group) {
      const sim::RobustnessSummary& s = out->summary;
      if (!s.ok || s.makespans.empty()) continue;
      ++agg.instances;
      agg.replications = s.replications;
      totalReplications += s.replications;
      // Degenerate all-zero-work schedules yield zero makespans, which the
      // geometric mean cannot absorb; skip them like the ratios below.
      if (s.staticMakespan > 0.0) statics.push_back(s.staticMakespan);
      if (s.meanMakespan > 0.0) means.push_back(s.meanMakespan);
      if (s.p95Makespan > 0.0) p95s.push_back(s.p95Makespan);
      if (s.staticMakespan > 0.0) {
        meanSlow.push_back(s.meanMakespan / s.staticMakespan);
        p95Slow.push_back(s.p95Makespan / s.staticMakespan);
        agg.maxSlowdown =
            std::max(agg.maxSlowdown, s.maxMakespan / s.staticMakespan);
      }
      agg.overflowRuns += s.overflowRuns;
    }
    agg.geomeanStaticMakespan = support::geometricMean(statics);
    agg.geomeanMeanMakespan = support::geometricMean(means);
    agg.geomeanP95Makespan = support::geometricMean(p95s);
    agg.geomeanMeanSlowdown = support::geometricMean(meanSlow);
    agg.geomeanP95Slowdown = support::geometricMean(p95Slow);
    agg.overflowFraction =
        totalReplications > 0
            ? static_cast<double>(agg.overflowRuns) /
                  static_cast<double>(totalReplications)
            : 0.0;
    result[key] = agg;
  }
  return result;
}

BenchExport robustnessExport(
    const std::string& bench, const std::vector<RobustnessOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  BenchExport result;
  result.bench = bench;
  result.meta = metaJson(meta);
  result.csvHeader = {"config", "scheduler", "instance", "band", "family",
                      "tasks", "ok", "static_makespan", "mean_makespan",
                      "p50_makespan", "p95_makespan", "min_makespan",
                      "max_makespan", "mean_slowdown", "p95_slowdown",
                      "overflow_runs", "replications"};
  const auto& fmt = formatG6;
  for (const RobustnessOutcome& out : outcomes) {
    const sim::RobustnessSummary& s = out.summary;
    const std::vector<std::string> cells = {
        s.ok ? "1" : "0",
        fmt(s.staticMakespan),
        fmt(s.meanMakespan),
        fmt(s.p50Makespan),
        fmt(s.p95Makespan),
        fmt(s.minMakespan),
        fmt(s.maxMakespan),
        fmt(s.meanSlowdown),
        fmt(s.p95Slowdown),
        std::to_string(s.overflowRuns),
        std::to_string(s.replications),
    };
    result.csvRows.push_back(keyRow(out, cells));
  }
  for (const auto& [key, agg] : aggregateRobustness(outcomes)) {
    support::JsonObject row;
    row["config"] = support::JsonValue(key.first);
    row["scheduler"] = support::JsonValue(key.second);
    row["instances"] = support::JsonValue(static_cast<double>(agg.instances));
    row["replications"] =
        support::JsonValue(static_cast<double>(agg.replications));
    row["geomean_static_makespan"] =
        support::JsonValue(agg.geomeanStaticMakespan);
    row["geomean_mean_makespan"] =
        support::JsonValue(agg.geomeanMeanMakespan);
    row["geomean_p95_makespan"] = support::JsonValue(agg.geomeanP95Makespan);
    row["geomean_mean_slowdown"] =
        support::JsonValue(agg.geomeanMeanSlowdown);
    row["geomean_p95_slowdown"] = support::JsonValue(agg.geomeanP95Slowdown);
    row["max_slowdown"] = support::JsonValue(agg.maxSlowdown);
    row["overflow_runs"] =
        support::JsonValue(static_cast<double>(agg.overflowRuns));
    row["overflow_fraction"] = support::JsonValue(agg.overflowFraction);
    result.rows.push_back(support::JsonValue(std::move(row)));
  }
  return result;
}

}  // namespace dagpm::experiments
