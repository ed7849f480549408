#include "experiments/resched.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "experiments/export.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

std::vector<PolicyConfig> defaultPolicyLadder() {
  std::vector<PolicyConfig> policies;
  {
    PolicyConfig none;
    none.name = "none";
    none.policy.trigger = resched::TriggerPolicy::kNone;
    policies.push_back(std::move(none));
  }
  {
    PolicyConfig interval;
    interval.name = "interval";
    interval.policy.trigger = resched::TriggerPolicy::kInterval;
    policies.push_back(std::move(interval));
  }
  {
    PolicyConfig lateness;
    lateness.name = "lateness";
    lateness.policy.trigger = resched::TriggerPolicy::kLateness;
    policies.push_back(std::move(lateness));
  }
  return policies;
}

std::vector<NoiseLevel> stragglerLadder(
    const std::vector<double>& probabilities, double factor) {
  std::vector<NoiseLevel> levels;
  levels.reserve(probabilities.size());
  for (const double p : probabilities) {
    NoiseLevel level;
    if (p <= 0.0) {
      level.spec.kind = sim::PerturbationKind::kDeterministic;
      level.config = "deterministic";
    } else {
      level.spec.kind = sim::PerturbationKind::kStraggler;
      level.spec.stragglerProbability = p;
      level.spec.stragglerFactor = factor;
      std::ostringstream name;
      name << "straggler" << p << "x" << factor;
      level.config = name.str();
    }
    levels.push_back(std::move(level));
  }
  return levels;
}

std::vector<ReschedOutcome> runRescheduling(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<NoiseLevel>& levels,
    const ReschedulingRunnerOptions& options) {
  const std::vector<PolicyConfig> policies = defaultPolicyLadder();
  const std::size_t numLevels = levels.size();
  const int replications = std::max(options.replications, 0);
  return replayScheduled<ReschedOutcome>(
      instances, scheduled, levels, &NoiseLevel::config, policies.size(),
      [&](ReschedOutcome& out, const ReplayCell& cell) {
        out.policy = policies[cell.policy].name;
        out.replications = replications;
        out.ok = true;
        // Replication seeds depend on (instance, level, replication) only,
        // so every policy and both schedulers face the identical noise draw.
        const std::uint64_t draw =
            (cell.instance * numLevels + cell.level) * 1000003ULL;
        double accepted = 0.0;
        double triggers = 0.0;
        for (int r = 0; r < replications; ++r) {
          resched::RescheduleOptions ro;
          ro.policy = policies[cell.policy].policy;
          ro.perturbation = levels[cell.level].spec;
          ro.seed = sim::mixSeed(options.seed, draw + r);
          ro.contention = options.contention;
          const resched::RescheduleResult run = resched::runOnline(
              cell.dag, cell.scaled, cell.schedule, cell.oracle, ro);
          if (!run.ok) {
            out.ok = false;
            out.error = run.error;
            break;
          }
          out.staticMakespan = run.staticMakespan;
          out.finalMakespans.push_back(run.finalMakespan);
          out.unrepairedMakespans.push_back(run.unrepairedMakespan);
          accepted += run.reschedulesAccepted;
          triggers += run.triggersFired;
          if (run.guardTripped) ++out.guardTrips;
        }
        if (out.ok && !out.finalMakespans.empty()) {
          const double n = static_cast<double>(out.finalMakespans.size());
          out.meanFinal = support::mean(out.finalMakespans);
          out.p95Final = support::percentile(out.finalMakespans, 0.95);
          out.meanUnrepaired = support::mean(out.unrepairedMakespans);
          if (out.staticMakespan > 0.0) {
            out.meanSlowdown = out.meanFinal / out.staticMakespan;
            out.p95Slowdown = out.p95Final / out.staticMakespan;
            out.meanUnrepairedSlowdown =
                out.meanUnrepaired / out.staticMakespan;
          }
          out.meanReschedules = accepted / n;
          out.meanTriggers = triggers / n;
        }
      });
}

std::map<ReschedKey, ReschedAggregate> aggregateRescheduling(
    const std::vector<ReschedOutcome>& outcomes) {
  std::map<ReschedKey, std::vector<const ReschedOutcome*>> groups;
  for (const ReschedOutcome& out : outcomes) {
    groups[{out.config, out.policy, out.scheduler}].push_back(&out);
  }
  std::map<ReschedKey, ReschedAggregate> result;
  for (const auto& [key, group] : groups) {
    ReschedAggregate agg;
    std::vector<double> statics, finals, p95s, slow, p95Slow, unrepSlow;
    std::vector<double> recoveries;
    double rescheds = 0.0;
    double triggers = 0.0;
    long totalReplications = 0;
    long totalGuardTrips = 0;
    for (const ReschedOutcome* out : group) {
      if (!out->ok || out->finalMakespans.empty()) continue;
      ++agg.instances;
      agg.replications = out->replications;
      totalReplications += out->replications;
      totalGuardTrips += out->guardTrips;
      rescheds += out->meanReschedules;
      triggers += out->meanTriggers;
      if (out->staticMakespan > 0.0) {
        statics.push_back(out->staticMakespan);
        slow.push_back(out->meanSlowdown);
        p95Slow.push_back(out->p95Slowdown);
        unrepSlow.push_back(out->meanUnrepairedSlowdown);
      }
      if (out->meanFinal > 0.0) finals.push_back(out->meanFinal);
      if (out->p95Final > 0.0) p95s.push_back(out->p95Final);
      const double degradation = out->meanUnrepaired - out->staticMakespan;
      if (degradation > 1e-9 * std::max(1.0, out->staticMakespan)) {
        recoveries.push_back((out->meanUnrepaired - out->meanFinal) /
                             degradation);
      }
    }
    agg.geomeanStaticMakespan = support::geometricMean(statics);
    agg.geomeanMeanMakespan = support::geometricMean(finals);
    agg.geomeanP95Makespan = support::geometricMean(p95s);
    agg.geomeanMeanSlowdown = support::geometricMean(slow);
    agg.geomeanP95Slowdown = support::geometricMean(p95Slow);
    agg.geomeanUnrepairedSlowdown = support::geometricMean(unrepSlow);
    if (agg.instances > 0) {
      agg.meanReschedules = rescheds / agg.instances;
      agg.meanTriggers = triggers / agg.instances;
    }
    agg.recoveredFraction = support::mean(recoveries);
    agg.guardTripFraction =
        totalReplications > 0
            ? static_cast<double>(totalGuardTrips) /
                  static_cast<double>(totalReplications)
            : 0.0;
    result[key] = agg;
  }
  return result;
}

BenchExport reschedulingExport(
    const std::string& bench, const std::vector<ReschedOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  BenchExport result;
  result.bench = bench;
  result.meta = metaJson(meta);
  result.csvHeader = {"config", "policy", "scheduler", "instance", "band",
                      "family", "tasks", "ok", "static_makespan",
                      "mean_final_makespan", "p95_final_makespan",
                      "mean_unrepaired_makespan", "mean_slowdown",
                      "p95_slowdown", "mean_unrepaired_slowdown",
                      "mean_reschedules", "mean_triggers", "guard_trips",
                      "replications"};
  const auto& fmt = formatG6;
  for (const ReschedOutcome& out : outcomes) {
    const std::vector<std::string> cells = {
        out.ok ? "1" : "0",
        fmt(out.staticMakespan),
        fmt(out.meanFinal),
        fmt(out.p95Final),
        fmt(out.meanUnrepaired),
        fmt(out.meanSlowdown),
        fmt(out.p95Slowdown),
        fmt(out.meanUnrepairedSlowdown),
        fmt(out.meanReschedules),
        fmt(out.meanTriggers),
        std::to_string(out.guardTrips),
        std::to_string(out.replications),
    };
    std::vector<std::string> row = keyRow(out, cells);
    row.insert(row.begin() + 1, out.policy);  // after the config column
    result.csvRows.push_back(std::move(row));
  }
  for (const auto& [key, agg] : aggregateRescheduling(outcomes)) {
    support::JsonObject row;
    row["config"] = support::JsonValue(std::get<0>(key));
    row["policy"] = support::JsonValue(std::get<1>(key));
    row["scheduler"] = support::JsonValue(std::get<2>(key));
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
    row["geomean_unrepaired_slowdown"] =
        support::JsonValue(agg.geomeanUnrepairedSlowdown);
    row["mean_reschedules"] = support::JsonValue(agg.meanReschedules);
    row["mean_triggers"] = support::JsonValue(agg.meanTriggers);
    row["recovered_fraction"] = support::JsonValue(agg.recoveredFraction);
    row["guard_trip_fraction"] = support::JsonValue(agg.guardTripFraction);
    result.rows.push_back(support::JsonValue(std::move(row)));
  }
  return result;
}

}  // namespace dagpm::experiments
