#pragma once
// Experiment harness: builds the paper's instance sets, runs both schedulers
// over them (OpenMP-parallel across instances), and aggregates relative
// makespans the way the paper reports them (geometric mean of per-workflow
// ratios).

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"
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

/// Runs DagHetPart and DagHetMem on every instance through
/// forEachScheduledInstance (memories scaled per Sec. 5.1.2) and records
/// feasibility, makespan and scheduler runtime of both.
std::vector<RunOutcome> runComparison(const std::vector<Instance>& instances,
                                      const platform::Cluster& cluster,
                                      const RunnerOptions& options);

/// The harness's scheduling loop, shared by the comparison, robustness,
/// rescheduling and fault runners: schedules every instance with both
/// algorithms on its memory-scaled cluster copy (Sec. 5.1.2) and hands the
/// results plus the matching oracles to `consume`, OpenMP-parallel across
/// instances (the loops nested below, e.g. the k' sweep, then run on the
/// thread that reached them). `consume` runs inside the parallel region —
/// callers write to disjoint, deterministically laid-out slots instead of
/// sharing state.
void forEachScheduledInstance(
    const std::vector<Instance>& instances, const platform::Cluster& cluster,
    const scheduler::DagHetPartConfig& part,
    const scheduler::DagHetMemConfig& mem,
    const std::function<void(std::size_t index, const Instance& instance,
                             const platform::Cluster& scaled,
                             const scheduler::ScheduleResult& partSchedule,
                             const scheduler::ScheduleResult& memSchedule,
                             const memory::MemDagOracle& partOracle,
                             const memory::MemDagOracle& memOracle)>& consume);

/// Per-group aggregation (the paper reports geometric means of ratios).
struct Aggregate {
  int total = 0;
  int scheduledBoth = 0;   // both schedulers found a valid mapping
  int partScheduled = 0;
  int memScheduled = 0;
  double geomeanRatio = 0.0;      // geomean(part/mem makespan), both feasible
  double geomeanPartMakespan = 0.0;
  double geomeanMemMakespan = 0.0;
  double meanPartSeconds = 0.0;
  double meanMemSeconds = 0.0;
  double geomeanRuntimeRatio = 0.0;  // geomean(part/mem runtime)
};

/// Groups outcomes by size band.
std::map<workflows::SizeBand, Aggregate> aggregateByBand(
    const std::vector<RunOutcome>& outcomes);

/// Groups outcomes by an arbitrary key (family, size, ...).
std::map<std::string, Aggregate> aggregateBy(
    const std::vector<RunOutcome>& outcomes,
    const std::function<std::string(const RunOutcome&)>& keyOf);

}  // namespace dagpm::experiments
