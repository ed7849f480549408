#pragma once
// Experiment harness: builds the paper's instance sets and runs both
// schedulers over them (OpenMP-parallel across instances), one RunOutcome
// per instance. It aggregates nothing: the paper's geometric means of
// per-workflow ratios are reductions of the harness's study table
// (outcomesTable, export.hpp). Instances are scheduled independently, so
// every entry point takes spans: a caller hands it a prefix of a longer pass
// without copying.

#include <array>
#include <atomic>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"
#include "sim/engine.hpp"
#include "workflows/families.hpp"
#include "workflows/real_world.hpp"

namespace dagpm::experiments {

struct Instance {
  std::string name;  // "BLAST-n1000-s1" or "real-sarek-s1"
  workflows::SizeBand band = workflows::SizeBand::kSmall;
  std::string family;  // family or real-workflow name
  int numTasks = 0;
  graph::Dag dag;
};

/// Synthetic instances: every family that can be generated at each size.
std::vector<Instance> makeSyntheticInstances(const std::vector<int>& sizes,
                                             workflows::SizeBand band,
                                             int seeds, double workScale = 1.0);

/// The five real-world-like workflows.
std::vector<Instance> makeRealInstances(int seeds, double workScale = 1.0);

/// One scheduling comparison on one instance.
struct RunOutcome {
  std::string config;  // its configuration group, set by outcomesExport
  std::string instance;
  workflows::SizeBand band = workflows::SizeBand::kSmall;
  std::string family;
  int numTasks = 0;
  bool partFeasible = false;
  bool memFeasible = false;
  double partMakespan = 0.0;
  double memMakespan = 0.0;
  double partSeconds = 0.0;
  double memSeconds = 0.0;
};

struct RunnerOptions {
  scheduler::DagHetPartConfig part;
  scheduler::DagHetMemConfig mem;
  bool validate = false;  // re-validate every feasible schedule
};

/// One instance scheduled by both algorithms (or one, see
/// scheduleInstances) on its memory-scaled copy of the cluster (Sec. 5.1.2).
struct ScheduledInstance {
  platform::Cluster scaled;
  scheduler::ScheduleResult part;
  scheduler::ScheduleResult mem;
};

/// The harness's scheduling pass, read by the comparison, the contention
/// study and the Monte-Carlo runners: entry i holds instances[i] scheduled
/// by DagHetPart and DagHetMem on its memory-scaled cluster copy. An
/// algorithm passed as std::nullopt is not run; its half of every entry
/// stays a default (infeasible) ScheduleResult.
/// OpenMP-parallel across instances (the loops nested below, e.g. the k'
/// sweep, then run on the thread that reached them).
std::vector<ScheduledInstance> scheduleInstances(
    std::span<const Instance> instances, const platform::Cluster& cluster,
    const std::optional<scheduler::DagHetPartConfig>& part =
        scheduler::DagHetPartConfig{},
    const std::optional<scheduler::DagHetMemConfig>& mem =
        scheduler::DagHetMemConfig{});

/// Feasibility, makespan and scheduler runtime of both algorithms per
/// instance of a pass, each feasible schedule re-validated first when
/// `options.validate` is set. Throws std::invalid_argument on a short pass.
std::vector<RunOutcome> outcomesOf(std::span<const Instance> instances,
                                   std::span<const ScheduledInstance> scheduled,
                                   const RunnerOptions& options);

/// scheduleInstances followed by outcomesOf.
std::vector<RunOutcome> runComparison(std::span<const Instance> instances,
                                      const platform::Cluster& cluster,
                                      const RunnerOptions& options);

/// Throws std::invalid_argument when `pass` has fewer than `count` entries.
inline void requireCovered(std::size_t count,
                           std::span<const ScheduledInstance> pass) {
  if (pass.size() < count) {
    throw std::invalid_argument("schedule pass shorter than its instances");
  }
}

/// What identifies one Monte-Carlo outcome (robustness, rescheduling, fault
/// recovery): the replayed schedule and the level it was replayed at.
struct OutcomeKey {
  std::string config;     // noise or fault level
  std::string scheduler;  // "part" | "mem"
  std::string instance;
  workflows::SizeBand band = workflows::SizeBand::kSmall;
  std::string family;
  int numTasks = 0;
  friend bool operator==(const OutcomeKey&, const OutcomeKey&) = default;
};

/// One replay of a Monte-Carlo runner: a feasible schedule of instance
/// `instance` at level `level` and policy `policy`; `slot` is the cell's
/// index in the fixed instance-major layout; `plan` was prepared with
/// `oracle` from the pass's own workflow, cluster and schedule.
struct ReplayCell {
  std::size_t instance = 0;
  std::size_t level = 0;
  std::size_t policy = 0;
  std::size_t slot = 0;
  const sim::SimPlan& plan;
  const memory::MemDagOracle& oracle;
};

/// The Monte-Carlo runners' slot loop: calls `replay(outcome, cell)` for
/// every (instance, level, policy, scheduler) cell whose schedule is
/// feasible, after filling the outcome's key (`levelName` projects a level
/// to its name). Every replay of an instance shares one default-option
/// oracle, and every replay of one (instance, scheduler) one plan prepared
/// with it. OpenMP-parallel across instances; the fixed slot layout
/// (instance-major, then level, policy, scheduler) makes the result order
/// and every seed derived from a cell independent of thread scheduling.
/// Returns the filled slots in layout order. Throws std::invalid_argument
/// when `scheduled` is shorter than `instances`.
template <class Outcome, class Level, class LevelName, class Replay>
std::vector<Outcome> replayScheduled(
    std::span<const Instance> instances,
    std::span<const ScheduledInstance> scheduled,
    const std::vector<Level>& levels, LevelName levelName,
    std::size_t numPolicies, Replay replay) {
  requireCovered(instances.size(), scheduled);
  const std::size_t numLevels = levels.size();
  std::vector<Outcome> slots(instances.size() * numLevels * numPolicies * 2);
  std::vector<char> filled(slots.size(), 0);
  // States the team's fork and join in atomics ThreadSanitizer sees, as in
  // scheduleInstances: libgomp's own barriers are invisible to it.
  std::atomic<std::size_t> replayed;
  replayed.store(0, std::memory_order_release);
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < instances.size(); ++i) {
    (void)replayed.load(std::memory_order_acquire);
    const Instance& inst = instances[i];
    const memory::MemDagOracle oracle(inst.dag);
    std::array<std::optional<sim::SimPlan>, 2> plans;
    for (std::size_t s = 0; s < 2; ++s) {
      const scheduler::ScheduleResult& schedule =
          s == 0 ? scheduled[i].part : scheduled[i].mem;
      if (!schedule.feasible) continue;
      plans[s] = sim::prepareSimulation(inst.dag, scheduled[i].scaled,
                                        schedule, oracle);
    }
    for (std::size_t l = 0; l < numLevels; ++l) {
      for (std::size_t p = 0; p < numPolicies; ++p) {
        for (std::size_t s = 0; s < 2; ++s) {
          if (!plans[s]) continue;
          const std::size_t slot =
              ((i * numLevels + l) * numPolicies + p) * 2 + s;
          Outcome& out = slots[slot];
          out.config = std::invoke(levelName, levels[l]);
          out.scheduler = s == 0 ? "part" : "mem";
          out.instance = inst.name;
          out.band = inst.band;
          out.family = inst.family;
          out.numTasks = inst.numTasks;
          replay(out, {i, l, p, slot, *plans[s], oracle});
          filled[slot] = 1;
        }
      }
    }
    replayed.fetch_add(1, std::memory_order_acq_rel);
  }
  (void)replayed.load(std::memory_order_acquire);
  std::vector<Outcome> outcomes;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    if (filled[k] != 0) outcomes.push_back(std::move(slots[k]));
  }
  return outcomes;
}

}  // namespace dagpm::experiments
