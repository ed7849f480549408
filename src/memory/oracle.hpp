#pragma once
// MemDagOracle: the library's stand-in for the memDag algorithm of
// Kayaaslan et al. [18], which the paper uses both (a) to compute the memory
// requirement r_V of a block (the minimum traversal peak) and (b) to obtain
// the memory-efficient traversal that drives the DagHetMem baseline.
//
// Strategy per block (memDag itself is not reimplemented):
//   * <= 12 tasks: exact subset DP (provably optimal);
//   * two-terminal series-parallel blocks: SP-tree schedule with Liu merges
//     (optimal for SP structure, validated against the DP in tests);
//   * otherwise: portfolio of greedy min-peak traversals and DFS orders,
//     keeping the best simulated peak.
// Each evaluation derives the block's per-task costs once, into one
// BlockCosts that every member and every candidate's simulation reads
// (simulate.hpp states the summation order that keeps peaks bit-stable).
// The returned peak belongs to a concrete valid traversal, so feasibility
// checks are self-consistent with the model: the heuristic members return
// the simulated peak of their order, and the exact DP (blocks of <= 12
// tasks) returns its own peak, which the tests pin to the simulated peak of
// the DP's order within 1e-9.
//
// The oracle is the only cache of r_V: its memo is keyed exactly by the
// sorted member set (a hash collision compares full keys, so it can never
// return another block's requirement). The memo is written by const
// methods without a lock, so an oracle is owned by one thread: every sweep
// arm, annealing restart, portfolio arm and service request builds its own.

#include <cstddef>
#include <span>
#include <unordered_map>
#include <vector>

#include "graph/dag.hpp"

namespace dagpm::memory {

struct TraversalResult {
  double peak = 0.0;
  std::vector<graph::VertexId> order;  // original vertex ids
};

struct OracleOptions {
  bool useSpization = true;  // layer-barrier SP-ization order
};

class MemDagOracle {
 public:
  explicit MemDagOracle(const graph::Dag& g, OracleOptions options = {});

  /// Best traversal found for the block (original vertex ids, no duplicates).
  [[nodiscard]] TraversalResult bestTraversal(
      std::span<const graph::VertexId> blockVertices) const;

  /// Memory requirement r_V = peak of bestTraversal; memoized per member
  /// set (any order of the same vertices is served from the memo).
  [[nodiscard]] double blockRequirement(
      std::span<const graph::VertexId> blockVertices) const;

  [[nodiscard]] const graph::Dag& workflow() const noexcept { return g_; }

  /// Number of oracle invocations that missed the memo (profiling aid).
  [[nodiscard]] std::size_t evaluations() const noexcept { return evals_; }

 private:
  /// Best traversal of the block of `sorted` vertices, in local ids (the
  /// positions in `sorted`).
  [[nodiscard]] TraversalResult evaluate(
      std::span<const graph::VertexId> sorted) const;

  struct MemberSetHash {
    std::size_t operator()(
        const std::vector<graph::VertexId>& sorted) const noexcept;
  };

  const graph::Dag& g_;
  OracleOptions options_;
  mutable std::unordered_map<std::vector<graph::VertexId>, double,
                             MemberSetHash>
      memo_;
  mutable std::size_t evals_ = 0;
};

}  // namespace dagpm::memory
