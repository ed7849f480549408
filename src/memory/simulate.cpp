#include "memory/simulate.hpp"

#include <algorithm>
#include <cassert>

namespace dagpm::memory {

using graph::EdgeId;
using graph::VertexId;

BlockCosts::BlockCosts(const graph::SubDag& sub)
    : dag(sub.dag), task(sub.dag.numVertices()) {
  for (const auto& b : sub.externalInputs) task[b.local].externalIn += b.cost;
  for (const auto& b : sub.externalOutputs) task[b.local].externalOut += b.cost;
  for (VertexId v = 0; v < task.size(); ++v) {
    Task& t = task[v];
    t.memory = dag.memory(v);
    t.out = dag.outCost(v);
    t.footprint = t.memory + t.out + t.externalOut + t.externalIn;
    t.delta = t.out + t.externalOut - dag.inCost(v);
  }
}

namespace {

#ifndef NDEBUG
void assertValidOrder(const graph::Dag& g, std::span<const VertexId> order,
                      const std::vector<bool>& isMember) {
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

/// Walks `order` from `resident` and returns the peak step memory; `onStep`
/// sees each step's memory and the resident after it. The one step loop of
/// both the profile run and the peak-only run.
template <typename OnStep>
double walk(const BlockCosts& costs, std::span<const VertexId> order,
            double& resident, OnStep&& onStep) {
  double peak = 0.0;
  for (const VertexId u : order) {
    const BlockCosts::Task& t = costs.task[u];
    // Summed left to right; resident + footprint would round differently.
    const double step =
        resident + t.memory + t.out + t.externalOut + t.externalIn;
    peak = std::max(peak, step);
    // Outputs (internal + sticky external) become resident; all inputs that
    // were crossing (internal or from non-members) are consumed. Lazy
    // external inputs were never resident, so nothing to subtract for them.
    resident += t.delta;
    onStep(step, resident);
  }
  return peak;
}

SimResult run(const BlockCosts& costs, std::span<const VertexId> order,
              double resident) {
  SimResult result;
  result.startResident = resident;
  result.residentAfter.reserve(order.size());
  result.stepMemory.reserve(order.size());
  result.peak = walk(costs, order, resident, [&](double step, double after) {
    result.stepMemory.push_back(step);
    result.residentAfter.push_back(after);
  });
  result.finalResident = resident;
  return result;
}

}  // namespace

SimResult simulateOrder(const BlockCosts& costs,
                        std::span<const VertexId> order,
                        const std::vector<bool>& isMember) {
  const graph::Dag& g = costs.dag;
#ifndef NDEBUG
  assertValidOrder(g, order, isMember);
#endif
  // Edges from non-members into members cross the prefix from the start.
  // They are summed in ascending member id, whatever the order.
  std::vector<VertexId> members(order.begin(), order.end());
  std::sort(members.begin(), members.end());
  double resident = 0.0;
  for (const VertexId v : members) {
    for (const EdgeId e : g.inEdges(v)) {
      if (!isMember[g.edge(e).src]) resident += g.edge(e).cost;
    }
  }
  return run(costs, order, resident);
}

SimResult simulateBlockOrder(const BlockCosts& costs,
                             std::span<const VertexId> order) {
#ifndef NDEBUG
  assertValidOrder(costs.dag, order, std::vector<bool>(costs.size(), true));
#endif
  return run(costs, order, 0.0);
}

double simulateBlockPeak(const BlockCosts& costs,
                         std::span<const VertexId> order) {
#ifndef NDEBUG
  assertValidOrder(costs.dag, order, std::vector<bool>(costs.size(), true));
#endif
  double resident = 0.0;
  return walk(costs, order, resident, [](double, double) {});
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
