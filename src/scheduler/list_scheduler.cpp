#include "scheduler/list_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "graph/topology.hpp"
#include "obs/obs.hpp"

namespace dagpm::scheduler {

using graph::EdgeId;
using graph::VertexId;
using platform::ProcessorId;

ListScheduleResult heftSchedule(const graph::Dag& g,
                                const platform::Cluster& cluster) {
  ListScheduleResult result;
  const std::size_t n = g.numVertices();
  result.procOfTask.assign(n, platform::kNoProcessor);
  if (n == 0 || cluster.numProcessors() == 0) return result;
  const obs::Span span("heft.schedule");

  // Average execution speed for the rank computation.
  double avgSpeed = 0.0;
  for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    avgSpeed += cluster.speed(p);
  }
  avgSpeed /= static_cast<double>(cluster.numProcessors());
  const double beta = cluster.bandwidth();

  // Upward ranks: rank(v) = w_v/avgSpeed + max over children
  // (c/beta + rank(child)). Communication is charged at the average (the
  // classic HEFT recipe halves it for same-processor pairs at placement
  // time; the rank only needs a consistent priority order).
  const auto order = graph::topologicalOrder(g);
  if (!order) {
    throw std::invalid_argument("heftSchedule: cyclic workflow");
  }
  std::vector<double> rank(n, 0.0);
  for (auto it = order->rbegin(); it != order->rend(); ++it) {
    const VertexId v = *it;
    double best = 0.0;
    for (const EdgeId e : g.outEdges(v)) {
      best = std::max(best, g.edge(e).cost / beta + rank[g.edge(e).dst]);
    }
    rank[v] = g.work(v) / avgSpeed + best;
  }

  std::vector<VertexId> priority(order->begin(), order->end());
  std::sort(priority.begin(), priority.end(), [&](VertexId a, VertexId b) {
    if (rank[a] != rank[b]) return rank[a] > rank[b];
    return a < b;
  });
  // Descending rank order is a valid topological order (rank strictly
  // decreases along edges), so every task's parents are placed first.

  struct Slot {
    double start, finish;
  };
  std::vector<std::vector<Slot>> busy(cluster.numProcessors());
  std::vector<double> taskFinish(n, 0.0);
  result.entries.resize(n);

  // Incremental pricing scratch: every inbound edge is priced once per task
  // (remote delivery + local finish), and the per-processor fold below only
  // needs the two best remote terms from distinct processors plus the
  // per-processor local maximum — O(indeg + P) per task instead of
  // rescanning all in-edges for each of the P candidates. max over doubles
  // is exact, so the folded ready times are bit-identical to the rescans.
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::vector<double> ownFinish(cluster.numProcessors(), kNegInf);
  std::vector<ProcessorId> ownTouched;

#ifndef NDEBUG
  std::vector<bool> placed(n, false);
#endif
  for (const VertexId v : priority) {
#ifndef NDEBUG
    for (const EdgeId e : g.inEdges(v)) {
      assert(placed[g.edge(e).src] &&
             "rank order violated precedence (zero-work task?)");
    }
    placed[v] = true;
#endif
    obs::add(obs::Counter::kHeftTasksPlaced);
    obs::add(obs::Counter::kHeftEdgesPriced, g.inEdges(v).size());
    double bestFinish = std::numeric_limits<double>::infinity();
    ProcessorId bestProc = 0;
    double bestStart = 0.0;
    // remote(p) = max remote term over parents NOT on p: top1 is the global
    // maximum, top2 the best among parents off top1's processor, so
    // remote(p) = (p == top1Proc ? top2 : top1). own(p) folds the free
    // same-processor finishes.
    double top1 = kNegInf, top2 = kNegInf;
    ProcessorId top1Proc = platform::kNoProcessor;
    for (const ProcessorId p : ownTouched) ownFinish[p] = kNegInf;
    ownTouched.clear();
    for (const EdgeId e : g.inEdges(v)) {
      const VertexId u = g.edge(e).src;
      const ProcessorId pu = result.procOfTask[u];
      const double remote = taskFinish[u] + g.edge(e).cost / beta;
      if (ownFinish[pu] == kNegInf) ownTouched.push_back(pu);
      ownFinish[pu] = std::max(ownFinish[pu], taskFinish[u]);
      if (pu == top1Proc) {
        top1 = std::max(top1, remote);
      } else if (remote > top1) {
        top2 = top1;  // the old global max now counts as off-processor
        top1 = remote;
        top1Proc = pu;
      } else {
        top2 = std::max(top2, remote);
      }
    }
    for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
      // Data-ready time on p: communication is free within a processor.
      double ready = 0.0;
      const double remoteMax = p == top1Proc ? top2 : top1;
      if (remoteMax > ready) ready = remoteMax;
      if (ownFinish[p] > ready) ready = ownFinish[p];
      const double duration = g.work(v) / cluster.speed(p);
      // Insertion policy: earliest idle gap on p that fits `duration`
      // starting no earlier than `ready` (busy is kept start-sorted).
      double start = ready;
      for (const Slot& slot : busy[p]) {
        if (start + duration <= slot.start) break;  // fits before this slot
        start = std::max(start, slot.finish);
      }
      const double finish = start + duration;
      if (finish < bestFinish) {
        bestFinish = finish;
        bestProc = p;
        bestStart = start;
      }
    }
    result.procOfTask[v] = bestProc;
    taskFinish[v] = bestFinish;
    result.entries[v] =
        ListScheduleEntry{v, bestProc, bestStart, bestFinish};
    auto& slots = busy[bestProc];
    const Slot inserted{bestStart, bestFinish};
    slots.insert(std::upper_bound(slots.begin(), slots.end(), inserted,
                                  [](const Slot& a, const Slot& b) {
                                    return a.start < b.start;
                                  }),
                 inserted);
    result.makespan = std::max(result.makespan, bestFinish);
  }

  std::vector<bool> used(cluster.numProcessors(), false);
  for (const ProcessorId p : result.procOfTask) used[p] = true;
  for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    result.processorsUsed += used[p];
  }
  return result;
}

MemoryDiagnosis diagnoseMemory(
    const graph::Dag& g, const platform::Cluster& cluster,
    const memory::MemDagOracle& oracle,
    const std::vector<ProcessorId>& procOfTask) {
  MemoryDiagnosis diagnosis;
  std::vector<std::vector<VertexId>> tasksOf(cluster.numProcessors());
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    assert(procOfTask[v] < cluster.numProcessors());
    tasksOf[procOfTask[v]].push_back(v);
  }
  for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    if (tasksOf[p].empty()) continue;
    ++diagnosis.processorsUsed;
    const double peak = oracle.blockRequirement(tasksOf[p]);
    const double overshoot = peak - cluster.memory(p);
    if (overshoot > 1e-9) {
      ++diagnosis.processorsOverCapacity;
      diagnosis.worstOvershoot =
          std::max(diagnosis.worstOvershoot, overshoot);
    }
  }
  return diagnosis;
}

}  // namespace dagpm::scheduler
