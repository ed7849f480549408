#pragma once
// Two-terminal series-parallel (TTSP) recognition via the classic
// Valdes–Tarjan–Lawler reduction, producing a scheduling-oriented SP tree.
//
// The block DAG (with a virtual source/sink attached when it has several
// sources/sinks) is reduced by repeatedly applying
//   * series reductions at vertices with in-degree = out-degree = 1, and
//   * parallel reductions of multi-edges between the same vertex pair.
// The graph is TTSP iff it reduces to a single source->sink edge. During the
// reduction every live edge carries the interior tasks it has absorbed as an
// SP expression; the final edge's expression is the SP tree over *tasks*:
//   Series(children...)   -- children execute strictly in sequence
//   Parallel(children...) -- children are independent, any interleaving
//   Task(v)               -- a single interior task
// Terminals themselves are not part of the expression; the scheduler places
// them around it (virtual terminals are dropped).
//
// Cost: O(n + m) expected for n tasks and m edges, whether or not the graph
// is TTSP. The reduction runs once on flat arrays and builds no expression:
//   * each vertex keeps its live in- and out-degree and the XOR of its live
//     in- and out-edge ids, which names the single live edge at degree 1;
//   * the one live edge of a vertex pair is found through an open-addressing
//     pair index (slot function in sp_pair_slot.hpp);
//   * the reductions are recorded, and a graph that is not TTSP is rejected
//     right after the pass.
// A TTSP graph replays the recorded reductions to build its expression, and
// no replayed reduction copies one:
//   * a live edge's expression is referenced by that edge alone (asserted in
//     debug builds), so a parallel reduction appends to it in place;
//   * a series reduction nests Series(a, Task, b) in O(1), and the nested
//     series are flattened once, iteratively, when the tree is returned.
// The returned arena holds only the final tree (no garbage from the
// reduction): at most 4n + 3m nodes, one more than Σ children.size().

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/dag.hpp"

namespace dagpm::memory {

struct SpNode {
  enum class Kind : std::uint8_t { kTask, kSeries, kParallel };
  Kind kind = Kind::kTask;
  graph::VertexId task = graph::kInvalidVertex;  // for kTask
  std::vector<std::uint32_t> children;           // for kSeries / kParallel
};

struct SpTree {
  std::vector<SpNode> nodes;   // arena of the tree; root is nodes[root]
  std::uint32_t root = 0;      // root expression (may be an empty Series)
  graph::VertexId source = graph::kInvalidVertex;  // real terminal or invalid
  graph::VertexId sink = graph::kInvalidVertex;    // real terminal or invalid

  /// All tasks in the expression rooted at `node`, in-order.
  [[nodiscard]] std::vector<graph::VertexId> tasksUnder(
      std::uint32_t node) const;
};

/// Attempts the TTSP reduction of `g` (a block's induced DAG, any weights).
/// Virtual terminals with zero-cost edges are added automatically when the
/// graph has multiple sources/sinks. Returns std::nullopt if the (augmented)
/// graph is not two-terminal series-parallel.
std::optional<SpTree> buildSpTree(const graph::Dag& g);

}  // namespace dagpm::memory
