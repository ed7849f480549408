#include "experiments/harness.hpp"

#include <atomic>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "scheduler/solution.hpp"

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

std::vector<ScheduledInstance> scheduleInstances(
    std::span<const Instance> instances, const platform::Cluster& cluster,
    const std::optional<scheduler::DagHetPartConfig>& part,
    const std::optional<scheduler::DagHetMemConfig>& mem) {
  const obs::Span batchSpan("harness.for_each_scheduled",
                            "instances=" + std::to_string(instances.size()));
  const int instanceParent = batchSpan.depth();
  std::vector<ScheduledInstance> scheduled(instances.size());
  // libgomp is not ThreadSanitizer-instrumented, so TSan cannot see that
  // the team's fork orders the caller's writes before every iteration and
  // its join orders every iteration before the caller's next access (the
  // replay threads that read these schedules, the thread that frees them).
  // This counter states both edges in atomics TSan understands.
  std::atomic<std::size_t> done;
  done.store(0, std::memory_order_release);
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < instances.size(); ++i) {
    (void)done.load(std::memory_order_acquire);
    const Instance& inst = instances[i];
    const obs::Span instSpan("harness.instance", inst.name, instanceParent);
    ScheduledInstance& out = scheduled[i];
    out.scaled = cluster;
    out.scaled.scaleMemoriesToFit(inst.dag.maxTaskMemoryRequirement());
    if (part) out.part = scheduler::dagHetPart(inst.dag, out.scaled, *part);
    if (mem) out.mem = scheduler::dagHetMem(inst.dag, out.scaled, *mem);
    done.fetch_add(1, std::memory_order_acq_rel);
  }
  (void)done.load(std::memory_order_acquire);
  return scheduled;
}

std::vector<RunOutcome> outcomesOf(std::span<const Instance> instances,
                                   std::span<const ScheduledInstance> scheduled,
                                   const RunnerOptions& options) {
  requireCovered(instances.size(), scheduled);
  std::vector<RunOutcome> outcomes(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Instance& inst = instances[i];
    const auto& [scaled, part, mem] = scheduled[i];
    if (options.validate) {
      // Contention-aware runs report the fair-share priced makespan; the
      // cross-check must recompute under the same model.
      requireValid("DagHetPart", inst, scaled,
                   memory::MemDagOracle(inst.dag, options.part.oracle), part,
                   scheduler::commModelFor(options.part.options));
      requireValid("DagHetMem", inst, scaled,
                   memory::MemDagOracle(inst.dag, options.mem.oracle), mem);
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
  }
  return outcomes;
}

std::vector<RunOutcome> runComparison(std::span<const Instance> instances,
                                      const platform::Cluster& cluster,
                                      const RunnerOptions& options) {
  return outcomesOf(
      instances,
      scheduleInstances(instances, cluster, options.part, options.mem),
      options);
}

}  // namespace dagpm::experiments
