#include "experiments/harness.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "scheduler/solution.hpp"
#include "support/stats.hpp"

namespace dagpm::experiments {

using workflows::Family;
using workflows::SizeBand;

std::vector<Instance> makeSyntheticInstances(const std::vector<int>& sizes,
                                             SizeBand band, int seeds,
                                             double workScale) {
  std::vector<Instance> instances;
  for (const Family family : workflows::allFamilies()) {
    for (const int n : sizes) {
      for (int seed = 1; seed <= seeds; ++seed) {
        workflows::GenConfig cfg;
        cfg.numTasks = n;
        cfg.seed = static_cast<std::uint64_t>(seed);
        cfg.workScale = workScale;
        Instance inst;
        inst.family = workflows::familyName(family);
        inst.numTasks = n;
        inst.band = band;
        std::ostringstream name;
        name << inst.family << "-n" << n << "-s" << seed;
        if (workScale != 1.0) name << "-w" << workScale;
        inst.name = name.str();
        inst.dag = workflows::generate(family, cfg);
        instances.push_back(std::move(inst));
      }
    }
  }
  return instances;
}

std::vector<Instance> makeRealInstances(int seeds, double workScale) {
  std::vector<Instance> instances;
  for (int seed = 1; seed <= seeds; ++seed) {
    workflows::RealWorldConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(seed);
    cfg.workScale = workScale;
    for (workflows::RealWorkflow& wf : workflows::realWorldSuite(cfg)) {
      Instance inst;
      inst.family = wf.name;
      inst.numTasks = static_cast<int>(wf.dag.numVertices());
      inst.band = SizeBand::kReal;
      std::ostringstream name;
      name << "real-" << wf.name << "-s" << seed;
      if (workScale != 1.0) name << "-w" << workScale;
      inst.name = name.str();
      inst.dag = std::move(wf.dag);
      instances.push_back(std::move(inst));
    }
  }
  return instances;
}

namespace {

/// Throws when a feasible schedule fails the independent validator.
void requireValid(const char* algorithm, const Instance& inst,
                  const platform::Cluster& scaled,
                  const memory::MemDagOracle& oracle,
                  const scheduler::ScheduleResult& schedule,
                  const comm::CommCostModel* comm = nullptr) {
  if (!schedule.feasible) return;
  const auto report =
      scheduler::validateSchedule(inst.dag, scaled, oracle, schedule, comm);
  if (!report.valid) {
    throw std::logic_error(std::string("invalid ") + algorithm +
                           " schedule on " + inst.name + ": " + report.error);
  }
}

}  // namespace

std::vector<RunOutcome> runComparison(const std::vector<Instance>& instances,
                                      const platform::Cluster& cluster,
                                      const RunnerOptions& options) {
  std::vector<RunOutcome> outcomes(instances.size());
  forEachScheduledInstance(
      instances, cluster, options.part, options.mem,
      [&](std::size_t i, const Instance& inst,
          const platform::Cluster& scaled,
          const scheduler::ScheduleResult& part,
          const scheduler::ScheduleResult& mem,
          const memory::MemDagOracle& partOracle,
          const memory::MemDagOracle& memOracle) {
        if (options.validate) {
          // Contention-aware runs report the fair-share priced makespan;
          // the cross-check must recompute under the same model.
          requireValid("DagHetPart", inst, scaled, partOracle, part,
                       scheduler::commModelFor(options.part.options));
          requireValid("DagHetMem", inst, scaled, memOracle, mem);
        }
        RunOutcome& out = outcomes[i];
        out.instance = inst.name;
        out.band = inst.band;
        out.family = inst.family;
        out.numTasks = inst.numTasks;
        out.partFeasible = part.feasible;
        out.partMakespan = part.makespan;
        out.partSeconds = part.stats.seconds;
        out.memFeasible = mem.feasible;
        out.memMakespan = mem.makespan;
        out.memSeconds = mem.stats.seconds;
      });
  return outcomes;
}

namespace {

Aggregate aggregateGroup(const std::vector<const RunOutcome*>& group) {
  Aggregate agg;
  std::vector<double> ratios, partMs, memMs, partSec, memSec, runtimeRatios;
  for (const RunOutcome* out : group) {
    ++agg.total;
    if (out->partFeasible) ++agg.partScheduled;
    if (out->memFeasible) ++agg.memScheduled;
    if (out->partFeasible && out->memFeasible) {
      ++agg.scheduledBoth;
      if (out->memMakespan > 0.0) {
        ratios.push_back(out->partMakespan / out->memMakespan);
      }
      partMs.push_back(out->partMakespan);
      memMs.push_back(out->memMakespan);
      partSec.push_back(out->partSeconds);
      memSec.push_back(out->memSeconds);
      if (out->memSeconds > 0.0 && out->partSeconds > 0.0) {
        runtimeRatios.push_back(out->partSeconds / out->memSeconds);
      }
    }
  }
  agg.geomeanRatio = support::geometricMean(ratios);
  agg.geomeanPartMakespan = support::geometricMean(partMs);
  agg.geomeanMemMakespan = support::geometricMean(memMs);
  agg.meanPartSeconds = support::mean(partSec);
  agg.meanMemSeconds = support::mean(memSec);
  agg.geomeanRuntimeRatio = support::geometricMean(runtimeRatios);
  return agg;
}

}  // namespace

std::map<SizeBand, Aggregate> aggregateByBand(
    const std::vector<RunOutcome>& outcomes) {
  std::map<SizeBand, std::vector<const RunOutcome*>> groups;
  for (const RunOutcome& out : outcomes) groups[out.band].push_back(&out);
  std::map<SizeBand, Aggregate> result;
  for (const auto& [band, group] : groups) {
    result[band] = aggregateGroup(group);
  }
  return result;
}

std::map<std::string, Aggregate> aggregateBy(
    const std::vector<RunOutcome>& outcomes,
    const std::function<std::string(const RunOutcome&)>& keyOf) {
  std::map<std::string, std::vector<const RunOutcome*>> groups;
  for (const RunOutcome& out : outcomes) groups[keyOf(out)].push_back(&out);
  std::map<std::string, Aggregate> result;
  for (const auto& [key, group] : groups) {
    result[key] = aggregateGroup(group);
  }
  return result;
}

void forEachScheduledInstance(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const scheduler::DagHetPartConfig& part,
    const scheduler::DagHetMemConfig& mem,
    const std::function<void(std::size_t, const Instance&,
                             const platform::Cluster&,
                             const scheduler::ScheduleResult&,
                             const scheduler::ScheduleResult&,
                             const memory::MemDagOracle&,
                             const memory::MemDagOracle&)>& consume) {
  const obs::Span batchSpan("harness.for_each_scheduled",
                            "instances=" + std::to_string(instances.size()));
  const int instanceParent = batchSpan.depth();
  auto runOne = [&](std::size_t i) {
    const Instance& inst = instances[i];
    const obs::Span instSpan("harness.instance", inst.name, instanceParent);
    platform::Cluster scaled = cluster;
    scaled.scaleMemoriesToFit(inst.dag.maxTaskMemoryRequirement());
    const scheduler::ScheduleResult partSchedule =
        scheduler::dagHetPart(inst.dag, scaled, part);
    const scheduler::ScheduleResult memSchedule =
        scheduler::dagHetMem(inst.dag, scaled, mem);
    const memory::MemDagOracle partOracle(inst.dag, part.oracle);
    const memory::MemDagOracle memOracle(inst.dag, mem.oracle);
    consume(i, inst, scaled, partSchedule, memSchedule, partOracle,
            memOracle);
  };
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < instances.size(); ++i) runOne(i);
}

}  // namespace dagpm::experiments
