#include "graph/topology.hpp"

#include <algorithm>
#include <cstdint>

namespace dagpm::graph {

std::optional<std::vector<VertexId>> topologicalOrder(const Dag& g) {
  const std::size_t n = g.numVertices();
  std::vector<std::uint32_t> indeg(n);
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<VertexId> ready;
  for (VertexId v = 0; v < n; ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.inDegree(v));
    if (indeg[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    const VertexId v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (const EdgeId e : g.outEdges(v)) {
      const VertexId w = g.edge(e).dst;
      if (--indeg[w] == 0) ready.push_back(w);
    }
  }
  if (order.size() != n) return std::nullopt;
  return order;
}

bool isAcyclic(const Dag& g) { return topologicalOrder(g).has_value(); }

std::vector<std::uint32_t> topLevels(const Dag& g) {
  const auto order = topologicalOrder(g);
  assert(order.has_value() && "topLevels requires an acyclic graph");
  std::vector<std::uint32_t> level(g.numVertices(), 0);
  for (const VertexId v : *order) {
    for (const EdgeId e : g.outEdges(v)) {
      const VertexId w = g.edge(e).dst;
      level[w] = std::max(level[w], level[v] + 1);
    }
  }
  return level;
}

std::vector<double> bottomWorkLevels(const Dag& g) {
  const auto order = topologicalOrder(g);
  assert(order.has_value() && "bottomWorkLevels requires an acyclic graph");
  std::vector<double> bl(g.numVertices(), 0.0);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const VertexId v = *it;
    double best = 0.0;
    for (const EdgeId e : g.outEdges(v)) {
      best = std::max(best, bl[g.edge(e).dst]);
    }
    bl[v] = g.work(v) + best;
  }
  return bl;
}

std::vector<VertexId> dfsTopologicalOrder(const Dag& g, bool reverseChildren) {
  const std::size_t n = g.numVertices();
  std::vector<std::uint32_t> indeg(n);
  std::vector<VertexId> stack;
  std::vector<VertexId> order;
  order.reserve(n);
  for (VertexId v = 0; v < n; ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.inDegree(v));
    if (indeg[v] == 0) stack.push_back(v);
  }
  // Stack-based Kahn = DFS-flavoured topological order: newly released
  // children are visited before older ready vertices.
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    order.push_back(v);
    const auto out = g.outEdges(v);
    if (reverseChildren) {
      for (auto it = out.rbegin(); it != out.rend(); ++it) {
        const VertexId w = g.edge(*it).dst;
        if (--indeg[w] == 0) stack.push_back(w);
      }
    } else {
      for (const EdgeId e : out) {
        const VertexId w = g.edge(e).dst;
        if (--indeg[w] == 0) stack.push_back(w);
      }
    }
  }
  assert(order.size() == n && "dfsTopologicalOrder requires an acyclic graph");
  return order;
}

bool isTopologicalOrder(const Dag& g, const std::vector<VertexId>& order) {
  if (order.size() != g.numVertices()) return false;
  std::vector<std::uint32_t> position(
      g.numVertices(), std::numeric_limits<std::uint32_t>::max());
  for (std::uint32_t i = 0; i < order.size(); ++i) {
    if (order[i] >= g.numVertices()) return false;
    if (position[order[i]] != std::numeric_limits<std::uint32_t>::max()) {
      return false;  // duplicate
    }
    position[order[i]] = i;
  }
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    if (position[g.edge(e).src] >= position[g.edge(e).dst]) return false;
  }
  return true;
}

std::vector<bool> reachableFrom(const Dag& g, VertexId start) {
  std::vector<bool> seen(g.numVertices(), false);
  std::vector<VertexId> stack{start};
  seen[start] = true;
  while (!stack.empty()) {
    const VertexId v = stack.back();
    stack.pop_back();
    for (const EdgeId e : g.outEdges(v)) {
      const VertexId w = g.edge(e).dst;
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return seen;
}

}  // namespace dagpm::graph
