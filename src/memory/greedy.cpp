#include "memory/greedy.hpp"

#include <queue>

namespace dagpm::memory {

using graph::EdgeId;
using graph::VertexId;

std::vector<VertexId> greedyOrder(const BlockCosts& costs, GreedyRule rule) {
  const graph::Dag& g = costs.dag;
  const std::size_t n = costs.size();

  struct Entry {
    double primary;
    double secondary;
    VertexId v;
    bool operator>(const Entry& other) const {
      if (primary != other.primary) return primary > other.primary;
      if (secondary != other.secondary) return secondary > other.secondary;
      return v > other.v;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
  auto push = [&](VertexId v) {
    const BlockCosts::Task& t = costs.task[v];
    if (rule == GreedyRule::kMinFootprint) {
      ready.push(Entry{t.footprint, t.delta, v});
    } else {
      ready.push(Entry{t.delta, t.footprint, v});
    }
  };

  std::vector<std::uint32_t> indeg(n);
  for (VertexId v = 0; v < n; ++v) {
    indeg[v] = static_cast<std::uint32_t>(g.inDegree(v));
    if (indeg[v] == 0) push(v);
  }

  std::vector<VertexId> order;
  order.reserve(n);
  while (!ready.empty()) {
    const VertexId v = ready.top().v;
    ready.pop();
    order.push_back(v);
    for (const EdgeId e : g.outEdges(v)) {
      const VertexId w = g.edge(e).dst;
      if (--indeg[w] == 0) push(w);
    }
  }
  return order;
}

}  // namespace dagpm::memory
