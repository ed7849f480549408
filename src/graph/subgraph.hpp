#pragma once
// Induced subgraph extraction. Blocks of a partition are DAGs themselves;
// the memory oracle runs on the induced subgraph plus its boundary edges
// (files received from / sent to other blocks).

#include <span>
#include <vector>

#include "graph/dag.hpp"

namespace dagpm::graph {

/// An induced subgraph together with its boundary.
struct SubDag {
  Dag dag;                           // induced subgraph, local vertex ids
  std::vector<VertexId> toOriginal;  // local id -> original id

  struct BoundaryEdge {
    VertexId local;  // endpoint inside the subgraph (local id)
    double cost;     // file size crossing the block boundary
  };
  std::vector<BoundaryEdge> externalInputs;   // produced outside, consumed in
  std::vector<BoundaryEdge> externalOutputs;  // produced inside, sent out
};

/// Extracts the subgraph induced by `vertices` (original ids, no duplicates).
/// Vertex work/memory and internal edge costs are copied, labels are not (the
/// sub-DAG's are empty); boundary edges are summarized in
/// externalInputs/externalOutputs.
SubDag inducedSubgraph(const Dag& g, std::span<const VertexId> vertices);

}  // namespace dagpm::graph
