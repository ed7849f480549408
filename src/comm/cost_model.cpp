#include "comm/cost_model.hpp"

#include <cassert>

namespace dagpm::comm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-destination edge/injection indices, in problem order (the stable
/// iteration order both passes share).
struct Incidence {
  std::vector<std::vector<std::uint32_t>> inEdges;
  std::vector<std::vector<std::uint32_t>> outEdges;
  std::vector<std::vector<std::uint32_t>> injections;
};

Incidence buildIncidence(const FluidProblem& p) {
  Incidence inc;
  inc.inEdges.resize(p.nodes.size());
  inc.outEdges.resize(p.nodes.size());
  inc.injections.resize(p.nodes.size());
  for (std::uint32_t e = 0; e < p.edges.size(); ++e) {
    inc.inEdges[p.edges[e].dst].push_back(e);
    inc.outEdges[p.edges[e].src].push_back(e);
  }
  for (std::uint32_t j = 0; j < p.injections.size(); ++j) {
    inc.injections[p.injections[j].dst].push_back(j);
  }
  return inc;
}

}  // namespace

FluidResult UncontendedCommModel::evaluate(const FluidProblem& p,
                                           double beta) const {
  FluidResult result;
  const std::size_t n = p.nodes.size();
  result.start.assign(n, 0.0);
  result.finish.assign(n, 0.0);
  result.bindingEdge.assign(n, kNoFluidEdge);
  if (p.order.size() != n) return result;  // cyclic problem: no evaluation

  const Incidence inc = buildIncidence(p);
  // The forward recurrence of the paper's model: ready starts at the
  // release, then folds every inbound delivery (finish + volume/beta) in
  // stored order. max is exact in floating point, so only the additive terms
  // matter for bit-identity.
  for (const std::uint32_t v : p.order) {
    double ready = p.nodes[v].earliestStart;
    for (const std::uint32_t j : inc.injections[v]) {
      const FluidInjection& inj = p.injections[j];
      ready = std::max(ready, inj.time + inj.volume / beta);
    }
    for (const std::uint32_t e : inc.inEdges[v]) {
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
  if (p.order.size() != n) return result;

  const Incidence inc = buildIncidence(p);
  const std::uint32_t numEdges = static_cast<std::uint32_t>(p.edges.size());

  // Transfer ids on the link: [0, numEdges) are edges, numEdges + j are
  // injections.
  FairShareLink link(beta);
  std::vector<std::size_t> pending(n, 0);
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
    pending[v] = inc.inEdges[v].size() + inc.injections[v].size();
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
      for (const std::uint32_t e : inc.outEdges[ev.node]) {
        link.dispatch(e, p.edges[e].volume);
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

double LinkLoadProfile::price(double time, double volume) const {
  if (volume <= 0.0) return time;
  // Walk the committed segments from the dispatch instant, draining the
  // volume at the shared rate beta/(k+1) per segment.
  double t = time;
  double remaining = volume;
  auto it = segments_.upper_bound(time);
  int count = 0;
  if (it != segments_.begin()) count = std::prev(it)->second;
  while (it != segments_.end()) {
    const double rate = beta_ / static_cast<double>(count + 1);
    const double span = it->first - t;
    if (remaining <= rate * span) return t + remaining / rate;
    remaining -= rate * span;
    t = it->first;
    count = it->second;
    ++it;
  }
  const double rate = beta_ / static_cast<double>(count + 1);
  return t + remaining / rate;
}

void LinkLoadProfile::commit(double dispatch, double delivery) {
  if (delivery <= dispatch) return;
  // Materialize breakpoints at both ends (inheriting the surrounding
  // count), then bump every segment the transfer spans.
  auto ensure = [&](double at) {
    auto it = segments_.lower_bound(at);
    if (it != segments_.end() && it->first == at) return;
    int count = 0;
    if (it != segments_.begin()) count = std::prev(it)->second;
    segments_.emplace_hint(it, at, count);
  };
  ensure(dispatch);
  ensure(delivery);
  for (auto it = segments_.find(dispatch);
       it != segments_.end() && it->first < delivery; ++it) {
    ++it->second;
  }
}

}  // namespace dagpm::comm
