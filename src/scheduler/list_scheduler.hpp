#pragma once
// Memory-oblivious HEFT-style list scheduler (reference comparator).
//
// The paper's related work (Ozkaya et al. [25] and classic heterogeneous
// list schedulers [2, 12]) optimizes the makespan while *ignoring memory
// constraints*, which is exactly why the paper needed new algorithms: such
// schedules are invalid whenever a processor's working set exceeds its
// memory. This module implements the classic insertion-based HEFT recipe --
// upward-rank priorities, earliest-finish-time processor selection with
// idle-slot insertion -- at task granularity, plus a diagnostic that checks
// the resulting per-processor mapping against the paper's block-memory
// model. paper_figures' `price_of_memory` table uses it to quantify (a) how
// much makespan the memory constraints cost and (b) how often the
// unconstrained schedule would actually be invalid.
//
// Task-level semantics differ from the paper's block model (a successor may
// start as soon as its predecessor task finishes, not when the whole block
// finishes), so HEFT's makespan is an optimistic reference, not a
// comparable data point for Figs. 3-7.

#include <vector>

#include "graph/dag.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"

namespace dagpm::scheduler {

struct ListScheduleEntry {
  graph::VertexId task = graph::kInvalidVertex;
  platform::ProcessorId proc = platform::kNoProcessor;
  double start = 0.0;
  double finish = 0.0;
};

struct ListScheduleResult {
  double makespan = 0.0;
  std::vector<ListScheduleEntry> entries;          // one per task
  std::vector<platform::ProcessorId> procOfTask;   // task -> processor
  std::uint32_t processorsUsed = 0;
};

/// Classic HEFT: upward ranks with average execution/communication costs,
/// then earliest-finish-time placement with insertion into idle slots.
/// Memory capacities are ignored entirely, and every transfer is priced at
/// the paper's uncontended c/beta. Throws std::invalid_argument on a cyclic
/// workflow.
ListScheduleResult heftSchedule(const graph::Dag& g,
                                const platform::Cluster& cluster);

/// Diagnoses the memory feasibility of a task->processor mapping under the
/// paper's model: each processor's task set forms a block whose traversal
/// peak (memDag oracle) must fit the processor's memory.
struct MemoryDiagnosis {
  std::uint32_t processorsUsed = 0;
  std::uint32_t processorsOverCapacity = 0;
  double worstOvershoot = 0.0;  // max over processors of (peak - memory)
  bool feasible() const noexcept { return processorsOverCapacity == 0; }
};

MemoryDiagnosis diagnoseMemory(
    const graph::Dag& g, const platform::Cluster& cluster,
    const memory::MemDagOracle& oracle,
    const std::vector<platform::ProcessorId>& procOfTask);

}  // namespace dagpm::scheduler
