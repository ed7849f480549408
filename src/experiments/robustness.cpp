#include "experiments/robustness.hpp"

#include <sstream>

#include "experiments/export.hpp"

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
        out.summary = sim::evaluateRobustness(cell.plan, ro);
      });
}

BenchExport robustnessExport(
    const std::string& bench, const std::vector<RobustnessOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  using Out = RobustnessOutcome;
  using Summary = sim::RobustnessSummary;
  StudyTable<Out> table({"config", "scheduler"}, [](const Out& out) {
    return std::vector<GroupKey>{{out.config, out.scheduler}};
  });
  // A summary field as an outcome value.
  const auto field = [](auto Summary::*member) {
    return [=](const Out& out) { return out.summary.*member; };
  };
  table.csv("config", &Out::config);
  table.csv("scheduler", &Out::scheduler);
  table.instanceColumns();
  table.csv("ok", field(&Summary::ok));
  table.csv("static_makespan", field(&Summary::staticMakespan));
  table.csv("mean_makespan", field(&Summary::meanMakespan));
  table.csv("p50_makespan", field(&Summary::p50Makespan));
  table.csv("p95_makespan", field(&Summary::p95Makespan));
  table.csv("min_makespan", field(&Summary::minMakespan));
  table.csv("max_makespan", field(&Summary::maxMakespan));
  table.csv("mean_slowdown", field(&Summary::meanSlowdown));
  table.csv("p95_slowdown", field(&Summary::p95Slowdown));
  table.csv("overflow_runs", field(&Summary::overflowRuns));
  table.csv("replications", field(&Summary::replications));

  const auto ok = [](const Out& out) {
    return out.summary.ok && !out.summary.makespans.empty();
  };
  // The worst replication's slowdown; 0 without a positive static makespan,
  // like the summary's mean and p95 slowdowns.
  const auto worst = [](const Out& out) {
    const Summary& s = out.summary;
    return s.staticMakespan > 0.0 ? s.maxMakespan / s.staticMakespan : 0.0;
  };
  const auto runs = field(&Summary::replications);
  const auto overflows = field(&Summary::overflowRuns);
  table.json("instances", countOf(ok));
  // Every outcome of the study runs the same replication count.
  table.json("replications", largestOf(runs, ok));
  table.json("geomean_static_makespan",
             geomeanOf(field(&Summary::staticMakespan), ok));
  table.json("geomean_mean_makespan",
             geomeanOf(field(&Summary::meanMakespan), ok));
  table.json("geomean_p95_makespan",
             geomeanOf(field(&Summary::p95Makespan), ok));
  table.json("geomean_mean_slowdown",
             geomeanOf(field(&Summary::meanSlowdown), ok));
  table.json("geomean_p95_slowdown",
             geomeanOf(field(&Summary::p95Slowdown), ok));
  table.json("max_slowdown", largestOf(worst, ok));
  table.json("overflow_runs", sumOf(overflows, ok));
  table.json("overflow_fraction",
             ratioOf(sumOf(overflows, ok), sumOf(runs, ok)));
  return table.exportRows(bench, outcomes, meta);
}

}  // namespace dagpm::experiments
