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

/// Per-vertex boundary cost sums of a SubDag, precomputed once.
struct BoundaryCosts {
  explicit BoundaryCosts(const graph::SubDag& sub);
  std::vector<double> externalIn;   // lazy inputs, per local vertex
  std::vector<double> externalOut;  // sticky outputs, per local vertex
};

/// Simulates executing `order` (local vertex ids, a subset of sub's vertices)
/// with `isMember[v]` marking exactly the vertices of `order`. Non-member
/// producers are treated as already executed. `order` must respect all
/// internal edges among members (checked in debug builds). A release build
/// spends O(k log k + edges of the members) on a k-vertex subset and
/// O(n + m) on the whole block.
SimResult simulateOrder(const graph::SubDag& sub, const BoundaryCosts& costs,
                        std::span<const graph::VertexId> order,
                        const std::vector<bool>& isMember);

/// Convenience: full-block simulation (all vertices are members).
SimResult simulateBlockOrder(const graph::SubDag& sub,
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
