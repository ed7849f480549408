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
          const resched::RescheduleResult run =
              resched::runOnline(cell.plan, cell.oracle, ro);
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

BenchExport reschedulingExport(
    const std::string& bench, const std::vector<ReschedOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  using Out = ReschedOutcome;
  StudyTable<Out> table({"config", "policy", "scheduler"}, [](const Out& out) {
    return std::vector<GroupKey>{{out.config, out.policy, out.scheduler}};
  });
  table.csv("config", &Out::config);
  table.csv("policy", &Out::policy);
  table.csv("scheduler", &Out::scheduler);
  table.instanceColumns();
  table.csv("ok", &Out::ok);
  table.csv("static_makespan", &Out::staticMakespan);
  table.csv("mean_final_makespan", &Out::meanFinal);
  table.csv("p95_final_makespan", &Out::p95Final);
  table.csv("mean_unrepaired_makespan", &Out::meanUnrepaired);
  table.csv("mean_slowdown", &Out::meanSlowdown);
  table.csv("p95_slowdown", &Out::p95Slowdown);
  table.csv("mean_unrepaired_slowdown", &Out::meanUnrepairedSlowdown);
  table.csv("mean_reschedules", &Out::meanReschedules);
  table.csv("mean_triggers", &Out::meanTriggers);
  table.csv("guard_trips", &Out::guardTrips);
  table.csv("replications", &Out::replications);

  const auto ok = [](const Out& out) {
    return out.ok && !out.finalMakespans.empty();
  };
  const auto degradation = [](const Out& out) {
    return out.meanUnrepaired - out.staticMakespan;
  };
  const auto degraded = [=](const Out& out) {
    return ok(out) &&
           degradation(out) > 1e-9 * std::max(1.0, out.staticMakespan);
  };
  // 1 = repaired back to the static prediction, 0 = no recovery.
  const auto recovered = [=](const Out& out) {
    return (out.meanUnrepaired - out.meanFinal) / degradation(out);
  };
  table.json("instances", countOf(ok));
  // Every outcome of the study runs the same replication count.
  table.json("replications", largestOf(&Out::replications, ok));
  table.json("geomean_static_makespan", geomeanOf(&Out::staticMakespan, ok));
  table.json("geomean_mean_makespan", geomeanOf(&Out::meanFinal, ok));
  table.json("geomean_p95_makespan", geomeanOf(&Out::p95Final, ok));
  // The slowdowns are 0 (so skipped) without a positive static makespan.
  table.json("geomean_mean_slowdown", geomeanOf(&Out::meanSlowdown, ok));
  table.json("geomean_p95_slowdown", geomeanOf(&Out::p95Slowdown, ok));
  table.json("geomean_unrepaired_slowdown",
             geomeanOf(&Out::meanUnrepairedSlowdown, ok));
  table.json("mean_reschedules", meanOf(&Out::meanReschedules, ok));
  table.json("mean_triggers", meanOf(&Out::meanTriggers, ok));
  table.json("recovered_fraction", meanOf(recovered, degraded));
  table.json("guard_trip_fraction", ratioOf(sumOf(&Out::guardTrips, ok),
                                            sumOf(&Out::replications, ok)));
  return table.exportRows(bench, outcomes, meta);
}

}  // namespace dagpm::experiments
