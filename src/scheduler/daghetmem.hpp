#pragma once
// DagHetMem (paper Sec. 4.1): the memory-aware baseline.
//
// Computes the memDag memory-efficient traversal of the whole workflow, then
// greedily cuts it into contiguous segments: tasks are appended to the
// current block as long as the block's streaming peak memory fits the current
// processor (processors are visited in decreasing memory order, ignoring
// speeds). A task that no longer fits starts the next block on the next
// processor. Fails when tasks remain but processors run out, or when a
// single task exceeds every remaining processor's memory. Throws
// std::invalid_argument on a cyclic workflow.

#include "scheduler/solution.hpp"

namespace dagpm::scheduler {

struct DagHetMemConfig {
  memory::OracleOptions oracle;
};

ScheduleResult dagHetMem(const graph::Dag& g, const platform::Cluster& cluster,
                         const DagHetMemConfig& cfg = {});

}  // namespace dagpm::scheduler
