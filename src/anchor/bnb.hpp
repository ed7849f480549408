#pragma once
// Exact branch-and-bound reference solver for small DAGP-PM instances
// (ROADMAP item 3: optimality anchors).
//
// The heuristics are benchmarked against each other everywhere else; this
// solver closes small instances *exactly* so bench/optimality_gap can report
// heuristic/optimal ratios instead of heuristic/heuristic ones.
//
// Search space: tasks are processed in one fixed topological order; each
// task either joins an existing block or opens a new block on an unused
// processor. Restricted-growth enumeration (a new block always takes the
// next index) plus a processor-kind symmetry reduction (among unused
// processors with identical speed and memory only the lowest id is tried)
// cover every distinct schedule exactly once. Prunes:
//   * memory: max over members of the task-level requirement r_u (inputs +
//     m_u + outputs) never decreases as members join, so an overflow of that
//     bound is final. The exact oracle requirement is NOT monotone (absorbing
//     a consumer can free a sticky external output early), so it is only
//     checked at complete assignments, never used to cut a subtree;
//   * acyclicity: contracting more tasks only adds quotient edges, so a
//     cyclic partial quotient can never be completed into an acyclic one;
//   * bound: a task-level critical-path relaxation (assigned tasks at their
//     processor's speed, unassigned tasks at the fastest speed, only
//     cross-block edges priced) is admissible against the block-serialized
//     Eq. (1)-(2) makespan — subtrees whose bound cannot beat the incumbent
//     are cut.
// The incumbent is seeded with scheduleBest (the DagHetPart/DagHetMem
// winner) before searching, so the bound prune cuts from the first node on.
// Complete assignments are priced through quotient::IncrementalEvaluator,
// the same evaluation every heuristic probe uses, so "optimal" and
// "heuristic" makespans are bit-comparable. The expansion order is a pure
// function of the instance: the optimum, the visited-node count, and the
// prune tallies are bit-reproducible run-to-run and across thread counts.

#include <cstdint>

#include "graph/dag.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "scheduler/solution.hpp"

namespace dagpm::anchor {

struct BnbConfig {
  /// Node-expansion budget; the search reports closed = false once
  /// exhausted and returns the best incumbent + proved lower bound so far.
  std::uint64_t maxNodes = 2'000'000;
  memory::OracleOptions oracle;
};

struct BnbResult {
  /// True when the search space was exhausted within maxNodes: `optimum`
  /// is then the exact DAGP-PM optimum (or the instance is infeasible).
  bool closed = false;
  bool feasible = false;  ///< an incumbent schedule exists
  double optimum = 0.0;   ///< best makespan found (exact when closed)
  /// Largest lower bound proved for the whole instance: the root
  /// relaxation, raised to the optimum when the search closes.
  double lowerBound = 0.0;
  std::uint64_t nodesVisited = 0;  ///< expanded assignment nodes
  std::uint64_t nodesPruned = 0;   ///< subtrees cut (memory/cycle/bound)
  scheduler::ScheduleResult schedule;  ///< the incumbent, compact block ids
};

/// Exhaustive branch-and-bound over all acyclic, memory-feasible
/// (partition, processor assignment) pairs. Intended for small instances
/// (roughly numVertices <= 15 and clusters of <= 8 distinct processors);
/// larger instances exhaust maxNodes and report closed = false.
BnbResult solveExact(const graph::Dag& g, const platform::Cluster& cluster,
                     const BnbConfig& cfg = {});

/// Cheap instance-wide relaxation lower bound (no search): the maximum of
///   * the critical path with every task at the fastest speed and free
///     communication, and
///   * total work divided by the aggregate speed of the cluster.
/// Valid for every schedule of the instance; used by bench/optimality_gap
/// to bound the gap on instances too big to close exactly.
double relaxationLowerBound(const graph::Dag& g,
                            const platform::Cluster& cluster);

}  // namespace dagpm::anchor
