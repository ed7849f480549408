#include "comm/cost_model.hpp"

#include <cassert>

namespace dagpm::comm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The FluidProblem layout: every edge has src < dst, and edges and
/// injections are each grouped by destination with destinations ascending.
bool inLayout(const FluidProblem& p) {
  const std::size_t n = p.nodes.size();
  std::uint32_t last = 0;
  for (const FluidEdge& e : p.edges) {
    if (e.src >= e.dst || e.dst >= n || e.dst < last) return false;
    last = e.dst;
  }
  last = 0;
  for (const FluidInjection& j : p.injections) {
    if (j.dst >= n || j.dst < last) return false;
    last = j.dst;
  }
  return true;
}

}  // namespace

FluidResult UncontendedCommModel::evaluate(const FluidProblem& p,
                                           double beta) const {
  FluidResult result;
  const std::size_t n = p.nodes.size();
  result.start.assign(n, 0.0);
  result.finish.assign(n, 0.0);
  result.bindingEdge.assign(n, kNoFluidEdge);
  if (!inLayout(p)) return result;

  // The forward recurrence of the paper's model: ready starts at the
  // release, then folds every inbound delivery (finish + volume/beta) in
  // stored order. max is exact in floating point, so only the additive terms
  // matter for bit-identity. The layout makes each node's injections and
  // in-edges the next run of its list, so one cursor per list suffices.
  std::uint32_t e = 0;
  std::size_t j = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    double ready = p.nodes[v].earliestStart;
    for (; j < p.injections.size() && p.injections[j].dst == v; ++j) {
      const FluidInjection& inj = p.injections[j];
      ready = std::max(ready, inj.time + inj.volume / beta);
    }
    for (; e < p.edges.size() && p.edges[e].dst == v; ++e) {
      const double delivery =
          result.finish[p.edges[e].src] + p.edges[e].volume / beta;
      if (delivery > ready) {
        ready = delivery;
        result.bindingEdge[v] = e;
      }
    }
    result.start[v] = ready;
    result.finish[v] = ready + p.nodes[v].duration;
    result.makespan = std::max(result.makespan, result.finish[v]);
  }
  result.ok = true;
  return result;
}

FluidResult FairShareCommModel::evaluate(const FluidProblem& p,
                                         double beta) const {
  FluidResult result;
  const std::size_t n = p.nodes.size();
  result.start.assign(n, 0.0);
  result.finish.assign(n, 0.0);
  result.bindingEdge.assign(n, kNoFluidEdge);
  if (!inLayout(p)) return result;

  const std::uint32_t numEdges = static_cast<std::uint32_t>(p.edges.size());

  // Transfer ids on the link: [0, numEdges) are edges, numEdges + j are
  // injections.
  FairShareLink link(beta);
  // Per-node pending input counts and per-source out-edges (flattened by
  // source, edge-index order within one source: the dispatch order).
  std::vector<std::size_t> pending(n, 0);
  std::vector<std::uint32_t> outBegin(n + 1, 0);
  for (const FluidEdge& edge : p.edges) {
    ++pending[edge.dst];
    ++outBegin[edge.src + 1];
  }
  for (const FluidInjection& inj : p.injections) ++pending[inj.dst];
  for (std::size_t v = 0; v < n; ++v) outBegin[v + 1] += outBegin[v];
  std::vector<std::uint32_t> outEdges(numEdges);
  {
    std::vector<std::uint32_t> next(outBegin.begin(), outBegin.end() - 1);
    for (std::uint32_t e = 0; e < numEdges; ++e) {
      outEdges[next[p.edges[e].src]++] = e;
    }
  }
  std::vector<double> inputReady(n, 0.0);
  std::size_t finishedCount = 0;

  struct FinishEvent {
    double time = 0.0;
    std::uint32_t node = 0;
  };
  struct LaterFinish {
    bool operator()(const FinishEvent& a, const FinishEvent& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.node > b.node;
    }
  };
  std::priority_queue<FinishEvent, std::vector<FinishEvent>, LaterFinish>
      finishHeap;

  auto startNode = [&](std::uint32_t v, double at) {
    result.start[v] = at;
    result.finish[v] = at + p.nodes[v].duration;
    finishHeap.push({result.finish[v], v});
  };

  for (std::uint32_t v = 0; v < n; ++v) {
    inputReady[v] = p.nodes[v].earliestStart;
    if (pending[v] == 0) startNode(v, inputReady[v]);
  }

  // Injections sorted by dispatch time (stable: problem order breaks ties).
  std::vector<std::uint32_t> injOrder(p.injections.size());
  for (std::uint32_t j = 0; j < injOrder.size(); ++j) injOrder[j] = j;
  std::stable_sort(injOrder.begin(), injOrder.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return p.injections[a].time < p.injections[b].time;
                   });
  std::size_t nextInj = 0;

  auto deliver = [&](std::uint32_t id) {
    const double at = link.now();
    std::uint32_t dst;
    std::uint32_t edge = kNoFluidEdge;
    if (id < numEdges) {
      dst = p.edges[id].dst;
      edge = id;
    } else {
      dst = p.injections[id - numEdges].dst;
    }
    if (at > inputReady[dst]) {
      inputReady[dst] = at;
      result.bindingEdge[dst] = edge;
    }
    assert(pending[dst] > 0);
    if (--pending[dst] == 0) {
      startNode(dst, std::max(inputReady[dst], p.nodes[dst].earliestStart));
    }
  };

  // Event loop: completions deliver first at equal instants (the engine's
  // rule: a block starting at t may only consume data fully arrived by t);
  // with the fluid rates only changing at events, same-instant ordering
  // cannot change any computed time.
  while (true) {
    const double tLink = link.nextCompletionTime();
    const double tInj = nextInj < injOrder.size()
                            ? p.injections[injOrder[nextInj]].time
                            : kInf;
    const double tFin = finishHeap.empty() ? kInf : finishHeap.top().time;
    if (tLink == kInf && tInj == kInf && tFin == kInf) break;
    if (tLink <= tInj && tLink <= tFin) {
      deliver(link.popCompletion());
    } else if (tInj <= tFin) {
      const std::uint32_t j = injOrder[nextInj++];
      link.advanceTo(tInj);
      link.dispatch(numEdges + j, p.injections[j].volume);
    } else {
      const FinishEvent ev = finishHeap.top();
      finishHeap.pop();
      link.advanceTo(ev.time);
      ++finishedCount;
      result.makespan = std::max(result.makespan, ev.time);
      const std::uint32_t v = ev.node;
      for (std::uint32_t k = outBegin[v]; k < outBegin[v + 1]; ++k) {
        link.dispatch(outEdges[k], p.edges[outEdges[k]].volume);
      }
    }
  }
  result.ok = finishedCount == n;
  return result;
}

const CommCostModel& uncontendedCommModel() {
  static const UncontendedCommModel model;
  return model;
}

const CommCostModel& fairShareCommModel() {
  static const FairShareCommModel model;
  return model;
}

}  // namespace dagpm::comm
