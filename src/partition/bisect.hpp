#pragma once
// Multilevel acyclic bisection (internal API). `side[v]` is 0 or 1; side 0
// is always a down-set (closed under predecessors), which both makes the
// two-block quotient acyclic and, applied recursively, keeps the global
// quotient acyclic.

#include <cstdint>
#include <vector>

#include "graph/dag.hpp"
#include "support/rng.hpp"

namespace dagpm::partition::detail {

struct BisectionTargets {
  double target0 = 0.0;  // ideal weight of side 0
  double target1 = 0.0;  // ideal weight of side 1
  double epsilon = 0.10;
};

/// Best topo-prefix bisection over a handful of topological orders.
std::vector<std::uint8_t> initialBisection(
    const graph::Dag& dag, const std::vector<double>& vertexWeight,
    const BisectionTargets& targets);

/// One FM refinement with down-set-preserving moves; mutates `side`.
/// Returns the cut improvement achieved (>= 0).
double fmRefine(const graph::Dag& dag, const std::vector<double>& vertexWeight,
                const BisectionTargets& targets,
                std::vector<std::uint8_t>& side);

/// Full multilevel bisection of `dag`: coarsen to at most 64 vertices,
/// initial bisection, project, and at most 8 FM passes per level.
/// Guarantees side 0 is a non-empty down-set and side 1 non-empty (unless
/// the graph has fewer than 2 vertices).
std::vector<std::uint8_t> multilevelBisect(
    const graph::Dag& dag, const std::vector<double>& vertexWeight,
    const BisectionTargets& targets, support::Rng& rng);

}  // namespace dagpm::partition::detail
