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

std::vector<ScheduledInstance> addSpareProcessors(
    std::span<const ScheduledInstance> pass, int spares) {
  std::vector<ScheduledInstance> spared(pass.begin(), pass.end());
  for (auto& e : spared) e.scaled = addSpareProcessors(e.scaled, spares);
  return spared;
}

std::optional<double> recoveredShare(double aware, double greedy,
                                     double staticMakespan) {
  if (greedy == std::numeric_limits<double>::infinity()) return 1.0;
  const double degradation = greedy - staticMakespan;
  if (degradation > 1e-9 * std::max(1.0, staticMakespan)) {
    return (greedy - aware) / degradation;
  }
  return std::nullopt;
}

std::vector<FaultOutcome> runFaultRecovery(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<FaultLevel>& levels,
    const FaultRunnerOptions& options) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t numLevels = levels.size();
  const int replications = std::max(options.replications, 0);
  requireCovered(instances.size(), scheduled);
  const std::vector<ScheduledInstance> spared = addSpareProcessors(
      scheduled.first(instances.size()), kSpareProcessors);
  return replayScheduled<FaultOutcome>(
      instances, spared, levels, &FaultLevel::name, 1,
      [&](FaultOutcome& out, const ReplayCell& cell) {
        const FaultLevel& level = levels[cell.level];
        const double makespan = cell.plan.data().schedule->makespan;
        const std::size_t numProcs = cell.plan.data().cluster->numProcessors();
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
          sim::FaultModel faults(spec, numProcs);
          resched::RescheduleOptions ro;
          ro.policy = options.policy;
          ro.seed = sim::mixSeed(options.seed, draw + r);
          ro.faults = &faults;
          const resched::RescheduleResult run =
              resched::runOnline(cell.plan, cell.oracle, ro);
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
          if (run.faultsInjected > 0) {
            if (const std::optional<double> share =
                    recoveredShare(aware, greedy, out.staticMakespan)) {
              recoveries.push_back(*share);
            }
          }
          if (greedy == kInf) {
            // Greedy re-execution failed outright; the search recovered.
            ++out.searchWins;
            continue;
          }
          out.awareMakespans.push_back(aware);
          out.greedyMakespans.push_back(greedy);
          if (aware < greedy * (1.0 - 1e-12)) ++out.searchWins;
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

BenchExport faultRecoveryExport(
    const std::string& bench, const std::vector<FaultOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  using Out = FaultOutcome;
  StudyTable<Out> table({"level", "scheduler"}, [](const Out& out) {
    return std::vector<GroupKey>{{out.config, out.scheduler}};
  });
  table.csv("level", &Out::config);
  table.csv("scheduler", &Out::scheduler);
  table.instanceColumns();
  table.csv("ok", &Out::ok);
  table.csv("static_makespan", &Out::staticMakespan);
  table.csv("mean_aware_makespan", &Out::meanAware);
  table.csv("mean_greedy_makespan", &Out::meanGreedy);
  table.csv("mean_aware_slowdown", &Out::meanAwareSlowdown);
  table.csv("mean_greedy_slowdown", &Out::meanGreedySlowdown);
  table.csv("recovered_fraction", &Out::meanRecoveredFraction);
  table.csv("faulty_runs", &Out::faultyRuns);
  table.csv("fail_stops", &Out::failStops);
  table.csv("crashes", &Out::crashes);
  table.csv("tasks_killed", &Out::tasksKilled);
  table.csv("evacuations", &Out::evacuations);
  table.csv("retries", &Out::retries);
  table.csv("greedy_wins", &Out::greedyWins);
  table.csv("search_wins", &Out::searchWins);
  table.csv("unrecovered", &Out::unrecovered);
  table.csv("replications", &Out::replications);

  const auto ok = [](const Out& out) { return out.ok; };
  // Both slowdown geomeans read the cells with a positive aware slowdown.
  const auto slowed = [](const Out& out) {
    return out.ok && out.meanAwareSlowdown > 0.0;
  };
  const auto faulty = [](const Out& out) {
    return out.ok && out.faultyRuns > 0;
  };
  const auto aware = geomeanOf(&Out::meanAwareSlowdown, slowed);
  const auto greedy = geomeanOf(&Out::meanGreedySlowdown, slowed);
  table.json("instances", countOf(ok));
  // Every outcome of the study runs the same replication count.
  table.json("replications", largestOf(&Out::replications, ok));
  // Exact-integer fault tallies: the CI checker matches these at zero
  // tolerance (a drifted fault count is a determinism bug, not noise).
  table.json("faulty_runs", sumOf(&Out::faultyRuns, ok));
  table.json("total_fail_stops", sumOf(&Out::failStops, ok));
  table.json("total_crashes", sumOf(&Out::crashes, ok));
  table.json("total_tasks_killed", sumOf(&Out::tasksKilled, ok));
  table.json("total_retries", sumOf(&Out::retries, ok));
  table.json("evacuations", sumOf(&Out::evacuations, ok));
  table.json("greedy_wins", sumOf(&Out::greedyWins, ok));
  table.json("search_wins", sumOf(&Out::searchWins, ok));
  table.json("unrecovered", sumOf(&Out::unrecovered, ok));
  table.json("geomean_aware_slowdown", aware);
  table.json("geomean_greedy_slowdown", greedy);
  // > 1: the recovery-aware repair strictly beats naive re-execution.
  table.json("improvement", ratioOf(greedy, aware));
  table.json("recovered_fraction", meanOf(&Out::meanRecoveredFraction, faulty));
  return table.exportRows(bench, outcomes, meta);
}

}  // namespace dagpm::experiments
