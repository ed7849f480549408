#include "experiments/faults.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "experiments/export.hpp"
#include "sim/perturbation.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

namespace {

/// Fault instants are uniform over [0, kHorizonFraction x static makespan).
constexpr double kHorizonFraction = 0.75;
/// Crash downtime as a fraction of the static makespan.
constexpr double kDowntimeFraction = 0.05;
constexpr std::uint32_t kMaxCrashesPerProcessor = 2;

std::string levelName(const FaultLevel& level) {
  if (level.failStopProbability <= 0.0 && level.crashProbability <= 0.0) {
    return "nofault";
  }
  std::ostringstream name;
  if (level.failStopProbability > 0.0) {
    name << "fail" << level.failStopProbability;
  }
  if (level.crashProbability > 0.0) {
    if (level.failStopProbability > 0.0) name << "+";
    name << "crash" << level.crashProbability;
  }
  return name.str();
}

}  // namespace

std::vector<FaultLevel> defaultFaultLadder() {
  std::vector<FaultLevel> levels(4);
  levels[1].failStopProbability = 0.15;
  levels[2].failStopProbability = 0.3;
  levels[3].failStopProbability = 0.3;
  levels[3].crashProbability = 0.3;
  for (FaultLevel& level : levels) level.name = levelName(level);
  return levels;
}

platform::Cluster addSpareProcessors(const platform::Cluster& cluster,
                                     int spares) {
  std::vector<platform::Processor> processors;
  processors.reserve(cluster.numProcessors() + static_cast<std::size_t>(
                                                   std::max(spares, 0)));
  for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    processors.push_back(cluster.processor(p));
  }
  // Clone the largest-memory processors (cycling when spares > processors):
  // a spare that cannot host the biggest lost block is no spare at all.
  const std::vector<platform::ProcessorId> byMemory =
      cluster.byDecreasingMemory();
  for (int s = 0; s < spares && !byMemory.empty(); ++s) {
    platform::Processor spare = cluster.processor(
        byMemory[static_cast<std::size_t>(s) % byMemory.size()]);
    spare.kind += "-spare";
    processors.push_back(std::move(spare));
  }
  return platform::Cluster(std::move(processors), cluster.bandwidth());
}

std::vector<FaultOutcome> runFaultRecovery(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<FaultLevel>& levels,
    const FaultRunnerOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t numLevels = levels.size();
  const int replications = std::max(options.replications, 0);
  return replayScheduled<FaultOutcome>(
      instances, scheduled, levels, &FaultLevel::name, 1,
      [&](FaultOutcome& out, const ReplayCell& cell) {
        const FaultLevel& level = levels[cell.level];
        const double makespan = cell.schedule.makespan;
        const platform::Cluster augmented =
            addSpareProcessors(cell.scaled, kSpareProcessors);
        out.replications = replications;
        out.staticMakespan = makespan;
        out.ok = true;

        sim::FaultSpec spec;
        spec.failStopProbability = level.failStopProbability;
        spec.crashProbability = level.crashProbability;
        spec.horizon = std::max(makespan * kHorizonFraction, 1e-9);
        spec.downtime = makespan * kDowntimeFraction;
        spec.maxCrashesPerProcessor = kMaxCrashesPerProcessor;

        // Replication seeds depend on (instance, level, replication) only,
        // so both schedulers face the identical fault draw.
        const std::uint64_t draw =
            (cell.instance * numLevels + cell.level) * 1000003ULL;
        std::vector<double> recoveries;
        for (int r = 0; r < replications; ++r) {
          sim::FaultModel faults(spec, augmented.numProcessors());
          resched::RescheduleOptions ro;
          ro.policy = options.policy;
          ro.seed = sim::mixSeed(options.seed, draw + r);
          ro.faults = &faults;
          const resched::RescheduleResult run = resched::runOnline(
              cell.dag, augmented, cell.schedule, cell.oracle, ro);
          if (!run.ok) {
            // Neither the repair nor greedy re-execution could recover this
            // draw (e.g. every capable processor died): data, not an error.
            ++out.unrecovered;
            continue;
          }
          if (run.faultsInjected > 0) ++out.faultyRuns;
          for (const sim::FaultEvent& event : run.faultLog) {
            if (event.kind == sim::FaultKind::kFailStop) {
              ++out.failStops;
            } else {
              ++out.crashes;
            }
            if (event.killedTask != graph::kInvalidVertex) ++out.tasksKilled;
          }
          out.evacuations += run.evacuations;
          out.retries += run.faultRetries;
          if (run.greedyWon) ++out.greedyWins;
          const double aware = run.finalMakespan;
          const double greedy =
              spec.active() ? run.greedyMakespan : run.unrepairedMakespan;
          if (greedy == kInf) {
            // Greedy re-execution failed outright; the search recovered.
            ++out.searchWins;
            if (run.faultsInjected > 0) recoveries.push_back(1.0);
            continue;
          }
          out.awareMakespans.push_back(aware);
          out.greedyMakespans.push_back(greedy);
          if (aware < greedy * (1.0 - 1e-12)) ++out.searchWins;
          const double degradation = greedy - out.staticMakespan;
          if (run.faultsInjected > 0 &&
              degradation > 1e-9 * std::max(1.0, out.staticMakespan)) {
            recoveries.push_back((greedy - aware) / degradation);
          }
        }
        if (!out.awareMakespans.empty()) {
          out.meanAware = support::mean(out.awareMakespans);
          out.meanGreedy = support::mean(out.greedyMakespans);
          if (out.staticMakespan > 0.0) {
            out.meanAwareSlowdown = out.meanAware / out.staticMakespan;
            out.meanGreedySlowdown = out.meanGreedy / out.staticMakespan;
          }
        }
        out.meanRecoveredFraction = support::mean(recoveries);
      });
}

std::map<FaultKey, FaultAggregate> aggregateFaultRecovery(
    const std::vector<FaultOutcome>& outcomes) {
  std::map<FaultKey, std::vector<const FaultOutcome*>> groups;
  for (const FaultOutcome& out : outcomes) {
    groups[{out.config, out.scheduler}].push_back(&out);
  }
  std::map<FaultKey, FaultAggregate> result;
  for (const auto& [key, group] : groups) {
    FaultAggregate agg;
    std::vector<double> aware, greedy, recovered;
    for (const FaultOutcome* out : group) {
      if (!out->ok) continue;
      ++agg.instances;
      agg.replications = out->replications;
      agg.faultyRuns += out->faultyRuns;
      agg.totalFailStops += out->failStops;
      agg.totalCrashes += out->crashes;
      agg.totalTasksKilled += out->tasksKilled;
      agg.totalEvacuations += out->evacuations;
      agg.totalRetries += out->retries;
      agg.greedyWins += out->greedyWins;
      agg.searchWins += out->searchWins;
      agg.unrecovered += out->unrecovered;
      if (out->meanAwareSlowdown > 0.0) {
        aware.push_back(out->meanAwareSlowdown);
        greedy.push_back(out->meanGreedySlowdown);
      }
      if (out->faultyRuns > 0) recovered.push_back(out->meanRecoveredFraction);
    }
    agg.geomeanAwareSlowdown = support::geometricMean(aware);
    agg.geomeanGreedySlowdown = support::geometricMean(greedy);
    if (agg.geomeanAwareSlowdown > 0.0) {
      agg.improvement = agg.geomeanGreedySlowdown / agg.geomeanAwareSlowdown;
    }
    agg.meanRecoveredFraction = support::mean(recovered);
    result[key] = agg;
  }
  return result;
}

BenchExport faultRecoveryExport(
    const std::string& bench, const std::vector<FaultOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  BenchExport result;
  result.bench = bench;
  result.meta = metaJson(meta);
  result.csvHeader = {"level", "scheduler", "instance", "band", "family",
                      "tasks", "ok", "static_makespan", "mean_aware_makespan",
                      "mean_greedy_makespan", "mean_aware_slowdown",
                      "mean_greedy_slowdown", "recovered_fraction",
                      "faulty_runs", "fail_stops", "crashes", "tasks_killed",
                      "evacuations", "retries", "greedy_wins", "search_wins",
                      "unrecovered", "replications"};
  const auto& fmt = formatG6;
  for (const FaultOutcome& out : outcomes) {
    const std::vector<std::string> cells = {
        out.ok ? "1" : "0",
        fmt(out.staticMakespan),
        fmt(out.meanAware),
        fmt(out.meanGreedy),
        fmt(out.meanAwareSlowdown),
        fmt(out.meanGreedySlowdown),
        fmt(out.meanRecoveredFraction),
        std::to_string(out.faultyRuns),
        std::to_string(out.failStops),
        std::to_string(out.crashes),
        std::to_string(out.tasksKilled),
        std::to_string(out.evacuations),
        std::to_string(out.retries),
        std::to_string(out.greedyWins),
        std::to_string(out.searchWins),
        std::to_string(out.unrecovered),
        std::to_string(out.replications),
    };
    result.csvRows.push_back(keyRow(out, cells));
  }
  for (const auto& [key, agg] : aggregateFaultRecovery(outcomes)) {
    support::JsonObject row;
    row["level"] = support::JsonValue(key.first);
    row["scheduler"] = support::JsonValue(key.second);
    row["instances"] = support::JsonValue(static_cast<double>(agg.instances));
    row["replications"] =
        support::JsonValue(static_cast<double>(agg.replications));
    row["faulty_runs"] =
        support::JsonValue(static_cast<double>(agg.faultyRuns));
    // Exact-integer fault tallies: the CI checker matches these suffixes at
    // zero tolerance (a drifted fault count is a determinism bug, not noise).
    row["total_fail_stops"] =
        support::JsonValue(static_cast<double>(agg.totalFailStops));
    row["total_crashes"] =
        support::JsonValue(static_cast<double>(agg.totalCrashes));
    row["total_tasks_killed"] =
        support::JsonValue(static_cast<double>(agg.totalTasksKilled));
    row["total_retries"] =
        support::JsonValue(static_cast<double>(agg.totalRetries));
    row["evacuations"] =
        support::JsonValue(static_cast<double>(agg.totalEvacuations));
    row["greedy_wins"] =
        support::JsonValue(static_cast<double>(agg.greedyWins));
    row["search_wins"] =
        support::JsonValue(static_cast<double>(agg.searchWins));
    row["unrecovered"] =
        support::JsonValue(static_cast<double>(agg.unrecovered));
    row["geomean_aware_slowdown"] =
        support::JsonValue(agg.geomeanAwareSlowdown);
    row["geomean_greedy_slowdown"] =
        support::JsonValue(agg.geomeanGreedySlowdown);
    row["improvement"] = support::JsonValue(agg.improvement);
    row["recovered_fraction"] =
        support::JsonValue(agg.meanRecoveredFraction);
    result.rows.push_back(support::JsonValue(std::move(row)));
  }
  return result;
}

}  // namespace dagpm::experiments
