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
  const sim::SimPlan plan =
      sim::prepareSimulation(g, cluster, schedule, oracle);
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

BenchExport contentionExport(
    const std::string& bench, const std::vector<ContentionOutcome>& outcomes,
    const std::map<std::string, std::string>& meta) {
  using Out = ContentionOutcome;
  StudyTable<Out> table({"config", "band"}, [](const Out& out) {
    const std::string band = workflows::sizeBandName(out.band);
    return std::vector<GroupKey>{{out.config, band}, {out.config, "all"}};
  });
  table.csv("config", &Out::config);
  table.instanceColumns();
  table.csv("ccr", &Out::ccr);
  table.csv("oblivious_feasible", &Out::obliviousFeasible);
  table.csv("aware_feasible", &Out::awareFeasible);
  table.csv("oblivious_static", &Out::obliviousStatic);
  table.csv("oblivious_predicted", &Out::obliviousPredicted);
  table.csv("oblivious_simulated", &Out::obliviousSimulated);
  table.csv("aware_static", &Out::awareStatic);
  table.csv("aware_predicted", &Out::awarePredicted);
  table.csv("aware_simulated", &Out::awareSimulated);

  const auto comparable = [](const Out& out) {
    return out.obliviousFeasible && out.awareFeasible;
  };
  // Degenerate zero-makespan schedules cannot enter a geometric mean; they
  // count as neither a win nor a loss either.
  const auto priced = [=](const Out& out) {
    return comparable(out) && out.obliviousStatic > 0.0 &&
           out.obliviousSimulated > 0.0 && out.awareSimulated > 0.0;
  };
  const auto tol = [](const Out& out) { return 1e-9 * out.obliviousSimulated; };
  const auto wins = [=](const Out& out) {
    return priced(out) &&
           out.awareSimulated < out.obliviousSimulated - tol(out);
  };
  const auto losses = [=](const Out& out) {
    return priced(out) &&
           out.awareSimulated > out.obliviousSimulated + tol(out);
  };
  const auto optimismGap = [](const Out& out) {
    return out.obliviousSimulated / out.obliviousStatic;
  };
  const auto awareGain = [](const Out& out) {
    return out.obliviousSimulated / out.awareSimulated;
  };
  const auto gap = [](const Out& out) {
    return out.obliviousSimulated - out.obliviousStatic;
  };
  const auto hasGap = [=](const Out& out) {
    return priced(out) && gap(out) > tol(out);
  };
  const auto recovered = [=](const Out& out) {
    const double share =
        (out.obliviousSimulated - out.awareSimulated) / gap(out);
    return std::clamp(share, 0.0, 1.0);
  };
  table.json("workflows", countOf(kAll));
  table.json("comparable", countOf(comparable));
  table.json("aware_wins", countOf(wins));
  table.json("aware_losses", countOf(losses));
  table.json("geomean_oblivious_static",
             geomeanOf(&Out::obliviousStatic, priced));
  table.json("geomean_oblivious_simulated",
             geomeanOf(&Out::obliviousSimulated, priced));
  table.json("geomean_aware_simulated",
             geomeanOf(&Out::awareSimulated, priced));
  table.json("geomean_optimism_gap", geomeanOf(optimismGap, priced));
  table.json("geomean_aware_gain", geomeanOf(awareGain, priced));
  table.json("recovered_fraction", meanOf(recovered, hasGap));
  return table.exportRows(bench, outcomes, meta);
}

}  // namespace dagpm::experiments
