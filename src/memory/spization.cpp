#include "memory/spization.hpp"

#include <algorithm>

#include "graph/topology.hpp"

namespace dagpm::memory {

using graph::VertexId;

std::vector<VertexId> layeredSpizationOrder(const BlockCosts& costs) {
  const graph::Dag& g = costs.dag;
  const auto levels = graph::topLevels(g);

  std::uint32_t maxLevel = 0;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    maxLevel = std::max(maxLevel, levels[v]);
  }
  std::vector<std::vector<VertexId>> layer(maxLevel + 1);
  for (VertexId v = 0; v < g.numVertices(); ++v) layer[levels[v]].push_back(v);

  std::vector<VertexId> order;
  order.reserve(g.numVertices());
  for (auto& tasks : layer) {
    // Liu rule within the layer: memory-releasing tasks first (smallest
    // footprint leading), then accumulating tasks by decreasing
    // footprint - delta.
    std::sort(tasks.begin(), tasks.end(), [&](VertexId a, VertexId b) {
      const BlockCosts::Task& ta = costs.task[a];
      const BlockCosts::Task& tb = costs.task[b];
      const bool aDrops = ta.delta < 0.0;
      const bool bDrops = tb.delta < 0.0;
      if (aDrops != bDrops) return aDrops;
      if (aDrops) {
        if (ta.footprint != tb.footprint) return ta.footprint < tb.footprint;
      } else {
        const double ka = ta.footprint - ta.delta;
        const double kb = tb.footprint - tb.delta;
        if (ka != kb) return ka > kb;
      }
      return a < b;
    });
    order.insert(order.end(), tasks.begin(), tasks.end());
  }
  return order;
}

}  // namespace dagpm::memory
