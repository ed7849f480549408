#include "memory/simulate.hpp"

#include <algorithm>
#include <cassert>

namespace dagpm::memory {

using graph::EdgeId;
using graph::VertexId;

BoundaryCosts::BoundaryCosts(const graph::SubDag& sub)
    : externalIn(sub.dag.numVertices(), 0.0),
      externalOut(sub.dag.numVertices(), 0.0) {
  for (const auto& b : sub.externalInputs) externalIn[b.local] += b.cost;
  for (const auto& b : sub.externalOutputs) externalOut[b.local] += b.cost;
}

SimResult simulateOrder(const graph::SubDag& sub, const BoundaryCosts& costs,
                        std::span<const VertexId> order,
                        const std::vector<bool>& isMember) {
  const graph::Dag& g = sub.dag;
  SimResult result;
  result.residentAfter.reserve(order.size());
  result.stepMemory.reserve(order.size());

#ifndef NDEBUG
  {
    std::vector<bool> done(g.numVertices(), false);
    assert(static_cast<std::size_t>(
               std::count(isMember.begin(), isMember.end(), true)) ==
               order.size() &&
           "the members are not exactly the vertices of the order");
    for (const VertexId u : order) {
      assert(isMember[u] && "order contains a non-member vertex");
      for (const EdgeId e : g.inEdges(u)) {
        const VertexId p = g.edge(e).src;
        assert((!isMember[p] || done[p]) &&
               "order violates a precedence constraint among members");
      }
      done[u] = true;
    }
  }
#endif

  // Edges from non-members into members cross the prefix from the start.
  // They are summed in ascending member id, whatever the order: a branch
  // sorts its members (O(k log k)), the whole block walks its ids.
  double resident = 0.0;
  auto addCrossingInputs = [&](VertexId v) {
    for (const EdgeId e : g.inEdges(v)) {
      if (!isMember[g.edge(e).src]) resident += g.edge(e).cost;
    }
  };
  if (order.size() == g.numVertices()) {
    for (VertexId v = 0; v < g.numVertices(); ++v) addCrossingInputs(v);
  } else {
    std::vector<VertexId> members(order.begin(), order.end());
    std::sort(members.begin(), members.end());
    for (const VertexId v : members) addCrossingInputs(v);
  }
  result.startResident = resident;
  double peak = 0.0;

  for (const VertexId u : order) {
    double outCost = 0.0;
    for (const EdgeId e : g.outEdges(u)) outCost += g.edge(e).cost;
    double inCost = 0.0;
    for (const EdgeId e : g.inEdges(u)) inCost += g.edge(e).cost;

    const double step = resident + g.memory(u) + outCost +
                        costs.externalOut[u] + costs.externalIn[u];
    peak = std::max(peak, step);
    // Outputs (internal + sticky external) become resident; all inputs that
    // were crossing (internal or from non-members) are consumed. Lazy
    // external inputs were never resident, so nothing to subtract for them.
    resident += outCost + costs.externalOut[u] - inCost;
    result.stepMemory.push_back(step);
    result.residentAfter.push_back(resident);
  }
  result.peak = peak;
  result.finalResident = resident;
  return result;
}

SimResult simulateBlockOrder(const graph::SubDag& sub,
                             std::span<const VertexId> order) {
  const BoundaryCosts costs(sub);
  const std::vector<bool> everyone(sub.dag.numVertices(), true);
  return simulateOrder(sub, costs, order, everyone);
}

IncrementalBlockMemory::IncrementalBlockMemory(const graph::Dag& g)
    : g_(g), memberEpoch_(g.numVertices(), 0) {}

void IncrementalBlockMemory::beginBlock() {
  ++epoch_;
  resident_ = 0.0;
  peak_ = 0.0;
  blockSize_ = 0;
}

IncrementalBlockMemory::StepCost IncrementalBlockMemory::costOf(
    VertexId u) const {
  double outCost = 0.0;
  for (const EdgeId e : g_.outEdges(u)) outCost += g_.edge(e).cost;
  double inFromBlock = 0.0;
  double inExternal = 0.0;
  for (const EdgeId e : g_.inEdges(u)) {
    if (memberEpoch_[g_.edge(e).src] == epoch_) {
      inFromBlock += g_.edge(e).cost;
    } else {
      inExternal += g_.edge(e).cost;
    }
  }
  StepCost c{};
  c.stepMemory = resident_ + g_.memory(u) + outCost + inExternal;
  c.residentDelta = outCost - inFromBlock;
  return c;
}

double IncrementalBlockMemory::peakIfAdded(VertexId u) const {
  return std::max(peak_, costOf(u).stepMemory);
}

void IncrementalBlockMemory::add(VertexId u) {
  assert(memberEpoch_[u] != epoch_ && "task added to the same block twice");
  const StepCost c = costOf(u);
  peak_ = std::max(peak_, c.stepMemory);
  resident_ += c.residentDelta;
  memberEpoch_[u] = epoch_;
  ++blockSize_;
}

}  // namespace dagpm::memory
