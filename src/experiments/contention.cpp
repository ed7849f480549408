#include "experiments/contention.hpp"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "experiments/export.hpp"
#include "memory/oracle.hpp"
#include "scheduler/solution.hpp"
#include "sim/engine.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

namespace {

/// The static Eq. (1)-(2), fair-share predicted and fair-share simulated
/// makespans of a feasible schedule, all read from its one simulation plan
/// (the deterministic simulation is the ground truth both cost models are
/// judged against). All 0 when the plan fails.
std::tuple<double, double, double> priceSchedule(
    const graph::Dag& g, const platform::Cluster& cluster,
    const scheduler::ScheduleResult& schedule,
    const memory::MemDagOracle& oracle) {
  const sim::SimPlan plan = sim::prepareSimulation(g, cluster, schedule, oracle);
  if (!plan.ok()) return {0.0, 0.0, 0.0};
  const quotient::QuotientGraph& q = *plan.data().quotient;
  sim::SimOptions options;
  options.comm = sim::CommModel::kBlockSynchronous;
  options.contention = true;
  const sim::SimResult run = sim::simulateSchedule(plan, options);
  return {scheduler::staticMakespan(q, cluster),
          quotient::makespanValue(q, cluster, &comm::fairShareCommModel())
              .value_or(0.0),
          run.ok ? run.makespan : 0.0};
}

}  // namespace

std::vector<ContentionOutcome> runContention(
    std::span<const Instance> instances, const std::vector<double>& ccrLadder,
    const std::vector<std::span<const ScheduledInstance>>& obliviousPasses,
    const scheduler::DagHetPartConfig& part) {
  if (obliviousPasses.size() != ccrLadder.size()) {
    throw std::invalid_argument("runContention needs one pass per CCR rung");
  }
  for (std::size_t r = 0; r < ccrLadder.size(); ++r) {
    requireCovered(instances.size(), obliviousPasses[r]);
    if (!instances.empty() &&
        obliviousPasses[r][0].scaled.bandwidth() != 1.0 / ccrLadder[r]) {
      throw std::invalid_argument("pass not scheduled at bandwidth 1/ccr");
    }
  }
  scheduler::DagHetPartConfig awareConfig = part;
  awareConfig.options.contentionAware = true;
  // Fixed slot layout (instance-major, then rung) keeps the result order
  // independent of thread scheduling.
  std::vector<ContentionOutcome> slots(instances.size() * ccrLadder.size());
  // States the team's fork and join in atomics ThreadSanitizer sees, as in
  // scheduleInstances: the workers read the caller's passes, which the
  // caller may free right after this returns.
  std::atomic<std::size_t> done;
  done.store(0, std::memory_order_release);
#pragma omp parallel for schedule(dynamic)
  for (std::size_t slot = 0; slot < slots.size(); ++slot) {
    (void)done.load(std::memory_order_acquire);
    const std::size_t i = slot / ccrLadder.size();
    const std::size_t r = slot % ccrLadder.size();
    const Instance& inst = instances[i];
    const double ccr = ccrLadder[r];

    ContentionOutcome& out = slots[slot];
    std::ostringstream config;
    config << "ccr" << ccr;
    out.config = config.str();
    out.instance = inst.name;
    out.band = inst.band;
    out.family = inst.family;
    out.numTasks = inst.numTasks;
    out.ccr = ccr;

    const platform::Cluster& scaled = obliviousPasses[r][i].scaled;
    const scheduler::ScheduleResult& oblivious = obliviousPasses[r][i].part;
    const scheduler::ScheduleResult aware =
        scheduler::dagHetPart(inst.dag, scaled, awareConfig);

    const memory::MemDagOracle oracle(inst.dag, part.oracle);
    out.obliviousFeasible = oblivious.feasible;
    if (oblivious.feasible) {
      std::tie(out.obliviousStatic, out.obliviousPredicted,
               out.obliviousSimulated) =
          priceSchedule(inst.dag, scaled, oblivious, oracle);
    }
    out.awareFeasible = aware.feasible;
    if (aware.feasible) {
      std::tie(out.awareStatic, out.awarePredicted, out.awareSimulated) =
          priceSchedule(inst.dag, scaled, aware, oracle);
    }
    done.fetch_add(1, std::memory_order_acq_rel);
  }
  (void)done.load(std::memory_order_acquire);
  return slots;
}

std::map<std::pair<std::string, std::string>, ContentionAggregate>
aggregateContention(const std::vector<ContentionOutcome>& outcomes) {
  std::map<std::pair<std::string, std::string>,
           std::vector<const ContentionOutcome*>>
      groups;
  for (const ContentionOutcome& out : outcomes) {
    groups[{out.config, workflows::sizeBandName(out.band)}].push_back(&out);
    groups[{out.config, "all"}].push_back(&out);
  }
  std::map<std::pair<std::string, std::string>, ContentionAggregate> result;
  for (const auto& [key, group] : groups) {
    ContentionAggregate agg;
    std::vector<double> statics, oblSims, awareSims, gaps, gains, recovered;
    for (const ContentionOutcome* out : group) {
      ++agg.total;
      if (!out->obliviousFeasible || !out->awareFeasible) continue;
      ++agg.comparable;
      // Degenerate zero-makespan schedules cannot enter a geometric mean.
      if (out->obliviousStatic <= 0.0 || out->obliviousSimulated <= 0.0 ||
          out->awareSimulated <= 0.0) {
        continue;
      }
      statics.push_back(out->obliviousStatic);
      oblSims.push_back(out->obliviousSimulated);
      awareSims.push_back(out->awareSimulated);
      gaps.push_back(out->obliviousSimulated / out->obliviousStatic);
      gains.push_back(out->obliviousSimulated / out->awareSimulated);
      const double tol = 1e-9 * out->obliviousSimulated;
      if (out->awareSimulated < out->obliviousSimulated - tol) {
        ++agg.awareWins;
      } else if (out->awareSimulated > out->obliviousSimulated + tol) {
        ++agg.awareLosses;
      }
      const double gap = out->obliviousSimulated - out->obliviousStatic;
      if (gap > tol) {
        const double share =
            (out->obliviousSimulated - out->awareSimulated) / gap;
        recovered.push_back(std::clamp(share, 0.0, 1.0));
      }
    }
    agg.geomeanObliviousStatic = support::geometricMean(statics);
    agg.geomeanObliviousSimulated = support::geometricMean(oblSims);
    agg.geomeanAwareSimulated = support::geometricMean(awareSims);
    agg.geomeanOptimismGap = support::geometricMean(gaps);
    agg.geomeanAwareGain = support::geometricMean(gains);
    agg.meanRecoveredFraction = support::mean(recovered);
    result[key] = agg;
  }
  return result;
}

BenchExport contentionExport(
    const std::string& bench, const std::vector<ContentionOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  BenchExport result;
  result.bench = bench;
  result.meta = metaJson(meta);
  result.csvHeader = {"config", "instance", "band", "family", "tasks", "ccr",
                      "oblivious_feasible", "aware_feasible",
                      "oblivious_static", "oblivious_predicted",
                      "oblivious_simulated", "aware_static", "aware_predicted",
                      "aware_simulated"};
  const auto& fmt = formatG6;
  for (const ContentionOutcome& out : outcomes) {
    result.csvRows.push_back({
        out.config,
        out.instance,
        workflows::sizeBandName(out.band),
        out.family,
        std::to_string(out.numTasks),
        fmt(out.ccr),
        out.obliviousFeasible ? "1" : "0",
        out.awareFeasible ? "1" : "0",
        fmt(out.obliviousStatic),
        fmt(out.obliviousPredicted),
        fmt(out.obliviousSimulated),
        fmt(out.awareStatic),
        fmt(out.awarePredicted),
        fmt(out.awareSimulated),
    });
  }
  for (const auto& [key, agg] : aggregateContention(outcomes)) {
    support::JsonObject row;
    row["config"] = support::JsonValue(key.first);
    row["band"] = support::JsonValue(key.second);
    row["workflows"] = support::JsonValue(static_cast<double>(agg.total));
    row["comparable"] =
        support::JsonValue(static_cast<double>(agg.comparable));
    row["aware_wins"] = support::JsonValue(static_cast<double>(agg.awareWins));
    row["aware_losses"] =
        support::JsonValue(static_cast<double>(agg.awareLosses));
    row["geomean_oblivious_static"] =
        support::JsonValue(agg.geomeanObliviousStatic);
    row["geomean_oblivious_simulated"] =
        support::JsonValue(agg.geomeanObliviousSimulated);
    row["geomean_aware_simulated"] =
        support::JsonValue(agg.geomeanAwareSimulated);
    row["geomean_optimism_gap"] = support::JsonValue(agg.geomeanOptimismGap);
    row["geomean_aware_gain"] = support::JsonValue(agg.geomeanAwareGain);
    row["recovered_fraction"] =
        support::JsonValue(agg.meanRecoveredFraction);
    result.rows.push_back(support::JsonValue(std::move(row)));
  }
  return result;
}

}  // namespace dagpm::experiments
