#pragma once
// Block-level execution timeline (Gantt view) of a scheduled quotient DAG.
//
// The paper's makespan model (Eq. (1)-(2)) is a longest-path computation
// over bottom weights. The equivalent *forward* pass yields per-block start
// and finish times: start(v) = max over parents (finish(parent) + c/beta),
// finish(v) = start(v) + w_v/s_v, and makespan = max finish = max bottom
// weight (both are the weight of the heaviest path, so the two computations
// cross-validate each other; the tests assert exact agreement).

#include <iosfwd>
#include <string>
#include <vector>

#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::quotient {

struct TimelineEntry {
  BlockId block = kNoBlock;
  platform::ProcessorId proc = platform::kNoProcessor;
  double start = 0.0;
  double finish = 0.0;
  std::size_t numTasks = 0;
};

struct Timeline {
  double makespan = 0.0;
  std::vector<TimelineEntry> entries;  // in start-time order
};

/// Forward-pass timeline under a communication cost model; requires an
/// acyclic quotient. Unassigned blocks compute with speed 1 (the paper's
/// estimated-makespan convention). The default uncontended model is the
/// forward pass above; comm::fairShareCommModel() makes transfers contend
/// the way the simulator executes them, so the Gantt view shows the
/// makespan the fair-share replay will realize.
Timeline computeTimeline(
    const QuotientGraph& q, const platform::Cluster& cluster,
    const comm::CommCostModel& model = comm::uncontendedCommModel());

/// ASCII Gantt rendering, one row per block, `width` characters of time
/// axis. Rows are labelled with processor kind and block size.
void renderTimeline(std::ostream& os, const Timeline& timeline,
                    const platform::Cluster& cluster, int width = 60);
std::string timelineToString(const Timeline& timeline,
                             const platform::Cluster& cluster, int width = 60);

}  // namespace dagpm::quotient
