#include "graph/subgraph.hpp"

namespace dagpm::graph {

SubDag inducedSubgraph(const Dag& g, std::span<const VertexId> vertices) {
  SubDag sub;
  sub.toOriginal.assign(vertices.begin(), vertices.end());
  std::vector<VertexId> localOf(g.numVertices(), kInvalidVertex);
  for (VertexId local = 0; local < vertices.size(); ++local) {
    assert(localOf[vertices[local]] == kInvalidVertex &&
           "duplicate vertex in subgraph request");
    localOf[vertices[local]] = local;
  }
  sub.dag.reserve(vertices.size(), vertices.size());
  for (const VertexId v : vertices) {
    sub.dag.addVertex(g.work(v), g.memory(v));
  }
  for (VertexId local = 0; local < vertices.size(); ++local) {
    const VertexId v = vertices[local];
    for (const EdgeId e : g.outEdges(v)) {
      const Edge& edge = g.edge(e);
      const VertexId dstLocal = localOf[edge.dst];
      if (dstLocal != kInvalidVertex) {
        sub.dag.addEdge(local, dstLocal, edge.cost);
      } else {
        sub.externalOutputs.push_back({local, edge.cost});
      }
    }
    for (const EdgeId e : g.inEdges(v)) {
      const Edge& edge = g.edge(e);
      if (localOf[edge.src] == kInvalidVertex) {
        sub.externalInputs.push_back({local, edge.cost});
      }
    }
  }
  return sub;
}

}  // namespace dagpm::graph
