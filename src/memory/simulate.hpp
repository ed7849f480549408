#pragma once
// Ground-truth peak-memory simulation of block traversals.
//
// Memory model (the paper's block model): executing the tasks of a block B
// in a topological order sigma, memory holds
//   * internal files (x,y), both in B: from x's step until y's step completes;
//   * external inputs (x outside B): materialized lazily at the consumer step;
//   * external outputs (y outside B): from x's step until the end of the block.
// While executing u: resident files + m_u + files being written (all outputs
// of u) + external inputs of u. The peak over all steps is the traversal's
// memory requirement; for a single task it equals the paper's
// r_u = sum_in c + sum_out c + m_u.
//
// The same simulator doubles as the *branch* evaluator inside the SP-tree
// scheduler: passing a member subset treats every in-edge from a non-member
// as already produced (crossing from the start), which is exactly the cut
// semantics needed for Liu profile composition.
//
// A task's costs under this model are static: MemDagOracle::evaluate
// derives them once per evaluation into a BlockCosts, which the exact DP,
// the SP schedule, both greedy rules, the layered SP-ization and every
// candidate's simulation read (the oracle prices a candidate by its peak
// alone, simulateBlockPeak; the profile run and the peak run share one
// step loop). Summation order keeps peaks bit-stable: the simulator sums a
// step left to right as resident + m + out + extOut + extIn (resident +
// footprint rounds differently) and adds `delta`; the exact DP prices a
// step as resident + footprint, its resident the sum of the executed
// tasks' deltas in ascending vertex order, built by the recurrence
// resident(S) = resident(S minus its highest vertex) + delta of that vertex.

#include <span>
#include <vector>

#include "graph/dag.hpp"
#include "graph/subgraph.hpp"

namespace dagpm::memory {

struct SimResult {
  double peak = 0.0;            // max memory over all steps
  double startResident = 0.0;   // resident before the first step
  double finalResident = 0.0;   // resident after the last step
  std::vector<double> residentAfter;  // resident after each step
  std::vector<double> stepMemory;     // memory while executing each step
};

/// Per-task costs of a block's local vertices, derived once from a SubDag.
/// Refers to the sub's DAG, so the sub must outlive it.
struct BlockCosts {
  struct Task {
    double memory = 0.0;       // m_u
    double out = 0.0;          // internal outputs (written at u's step)
    double externalOut = 0.0;  // sticky outputs, resident to the block's end
    double externalIn = 0.0;   // lazy inputs, charged at u's step only
    double footprint = 0.0;    // memory + out + externalOut + externalIn
    double delta = 0.0;        // out + externalOut - internal inputs
  };

  explicit BlockCosts(const graph::SubDag& sub);
  explicit BlockCosts(graph::SubDag&&) = delete;  // would dangle

  [[nodiscard]] std::size_t size() const noexcept { return task.size(); }

  const graph::Dag& dag;   // the sub's induced DAG, local ids
  std::vector<Task> task;  // per local vertex
};

/// Simulates executing `order` (local vertex ids, a subset of the block)
/// with `isMember[v]` marking exactly the vertices of `order`: an SP branch.
/// Non-member producers are treated as already executed. `order` must
/// respect all internal edges among members (checked in debug builds).
/// O(k log k + edges of the members) for a k-vertex branch.
SimResult simulateOrder(const BlockCosts& costs,
                        std::span<const graph::VertexId> order,
                        const std::vector<bool>& isMember);

/// Full-block simulation: `order` holds every vertex, so every producer is
/// a member and the run starts at resident 0. O(n).
SimResult simulateBlockOrder(const BlockCosts& costs,
                             std::span<const graph::VertexId> order);

/// simulateBlockOrder(costs, order).peak, bit-identical, without recording
/// the per-step profile: how MemDagOracle prices its candidate orders.
[[nodiscard]] double simulateBlockPeak(const BlockCosts& costs,
                                       std::span<const graph::VertexId> order);

/// Streaming per-block memory accounting over a global traversal of the whole
/// workflow; used by the DagHetMem baseline to grow blocks until a processor
/// memory is exhausted. Semantics match simulateBlockOrder on the block's
/// final content in insertion order.
class IncrementalBlockMemory {
 public:
  explicit IncrementalBlockMemory(const graph::Dag& g);

  /// Starts a fresh (empty) block.
  void beginBlock();

  /// Peak the current block would have after adding u (u not yet added; all
  /// of u's predecessors must have been executed in this or earlier blocks).
  [[nodiscard]] double peakIfAdded(graph::VertexId u) const;

  /// Commits u to the current block.
  void add(graph::VertexId u);

  [[nodiscard]] double currentPeak() const noexcept { return peak_; }
  [[nodiscard]] double currentResident() const noexcept { return resident_; }
  [[nodiscard]] std::size_t blockSize() const noexcept { return blockSize_; }

 private:
  struct StepCost {
    double stepMemory;     // memory while executing u
    double residentDelta;  // resident change after u completes
  };
  [[nodiscard]] StepCost costOf(graph::VertexId u) const;

  const graph::Dag& g_;
  std::vector<std::uint32_t> memberEpoch_;
  std::uint32_t epoch_ = 0;
  double resident_ = 0.0;
  double peak_ = 0.0;
  std::size_t blockSize_ = 0;
};

}  // namespace dagpm::memory
