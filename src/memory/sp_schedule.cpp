#include "memory/sp_schedule.hpp"

#include <cassert>

#include "memory/profile.hpp"

namespace dagpm::memory {

using graph::VertexId;

namespace {

class SpScheduler {
 public:
  SpScheduler(const BlockCosts& costs, const SpTree& tree)
      : costs_(costs), tree_(tree), member_(costs.size(), false) {}

  std::vector<VertexId> schedule() { return scheduleNode(tree_.root); }

 private:
  /// Bottom-up: produces the task order for the subnetwork rooted at `node`.
  std::vector<VertexId> scheduleNode(std::uint32_t node) {
    const SpNode& n = tree_.nodes[node];
    switch (n.kind) {
      case SpNode::Kind::kTask:
        return {n.task};
      case SpNode::Kind::kSeries: {
        std::vector<VertexId> order;
        for (const std::uint32_t child : n.children) {
          const auto childOrder = scheduleNode(child);
          order.insert(order.end(), childOrder.begin(), childOrder.end());
        }
        return order;
      }
      case SpNode::Kind::kParallel: {
        std::vector<Profile> profiles;
        profiles.reserve(n.children.size());
        for (const std::uint32_t child : n.children) {
          const auto childOrder = scheduleNode(child);
          if (childOrder.empty()) continue;  // pure connector edge
          profiles.push_back(profileOf(childOrder));
        }
        return mergeProfiles(profiles);
      }
    }
    return {};
  }

  /// Simulates `order` as a standalone branch: every in-edge from a vertex
  /// outside the branch counts as crossing from the start (its producer is a
  /// terminal or an ancestor in the composed schedule). Marks and clears only
  /// the branch's bits of the shared scratch bitmap, so a profile costs time
  /// in the branch's size, not the block's.
  Profile profileOf(const std::vector<VertexId>& order) {
    for (const VertexId v : order) member_[v] = true;
    const SimResult sim = simulateOrder(costs_, order, member_);
    for (const VertexId v : order) member_[v] = false;
    return decomposeProfile(order, sim.stepMemory, sim.residentAfter,
                            sim.startResident);
  }

  const BlockCosts& costs_;
  const SpTree& tree_;
  std::vector<bool> member_;  // all false between profileOf calls
};

}  // namespace

std::optional<std::vector<VertexId>> spOptimalOrder(const BlockCosts& costs) {
  const auto tree = buildSpTree(costs.dag);
  if (!tree) return std::nullopt;
  SpScheduler scheduler(costs, *tree);
  auto order = scheduler.schedule();
  assert(order.size() == costs.size());
  return order;
}

}  // namespace dagpm::memory
