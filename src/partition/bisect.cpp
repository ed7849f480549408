#include "partition/bisect.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

#include "graph/topology.hpp"
#include "obs/obs.hpp"
#include "partition/coarsen.hpp"

namespace dagpm::partition::detail {

using graph::EdgeId;
using graph::VertexId;

namespace {

/// Coarsening stops below this many vertices.
constexpr std::size_t kCoarsenTargetSize = 64;
/// FM passes per level; a pass that improves the cut by <= 1e-12 ends early.
constexpr int kMaxFmPasses = 8;

double totalOf(const std::vector<double>& w) {
  double s = 0.0;
  for (const double x : w) s += x;
  return s;
}

/// Imbalance of a split (w0, w1) against targets; 0 when perfectly feasible.
double violation(double w0, double w1, const BisectionTargets& t) {
  const double cap0 = (1.0 + t.epsilon) * t.target0;
  const double cap1 = (1.0 + t.epsilon) * t.target1;
  return std::max(0.0, w0 - cap0) + std::max(0.0, w1 - cap1);
}

}  // namespace

std::vector<std::uint8_t> initialBisection(
    const graph::Dag& dag, const std::vector<double>& vertexWeight,
    const BisectionTargets& targets) {
  const std::size_t n = dag.numVertices();
  assert(n >= 2);
  const double total = totalOf(vertexWeight);

  std::vector<std::vector<VertexId>> orders;
  orders.push_back(*graph::topologicalOrder(dag));
  orders.push_back(graph::dfsTopologicalOrder(dag, false));
  orders.push_back(graph::dfsTopologicalOrder(dag, true));
  // Work-greedy order: among ready vertices prefer the lightest first,
  // producing prefixes with fine-grained weight control.
  {
    std::vector<std::uint32_t> indeg(n);
    using Entry = std::pair<double, VertexId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    for (VertexId v = 0; v < n; ++v) {
      indeg[v] = static_cast<std::uint32_t>(dag.inDegree(v));
      if (indeg[v] == 0) ready.emplace(vertexWeight[v], v);
    }
    std::vector<VertexId> order;
    order.reserve(n);
    while (!ready.empty()) {
      const VertexId v = ready.top().second;
      ready.pop();
      order.push_back(v);
      for (const EdgeId e : dag.outEdges(v)) {
        const VertexId w = dag.edge(e).dst;
        if (--indeg[w] == 0) ready.emplace(vertexWeight[w], w);
      }
    }
    orders.push_back(std::move(order));
  }

  struct Candidate {
    double cut = std::numeric_limits<double>::infinity();
    double violation = std::numeric_limits<double>::infinity();
    std::size_t orderIndex = 0;
    std::size_t prefixLen = 0;
    bool valid = false;
  };
  Candidate best;

  for (std::size_t oi = 0; oi < orders.size(); ++oi) {
    // Scanning the prefix i (vertices order[0..i]): every in-edge of a
    // prefix vertex comes from the prefix, so the running cut is
    // sum(outCost) - sum(inCost) over prefix vertices.
    const auto& order = orders[oi];
    double cut = 0.0;
    double w0 = 0.0;
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const VertexId v = order[i];
      cut += dag.outCost(v) - dag.inCost(v);
      w0 += vertexWeight[v];
      const double w1 = total - w0;
      const double viol = violation(w0, w1, targets);
      const bool better =
          !best.valid || viol < best.violation - 1e-12 ||
          (viol <= best.violation + 1e-12 && cut < best.cut);
      if (better) {
        best.cut = cut;
        best.violation = viol;
        best.orderIndex = oi;
        best.prefixLen = i + 1;
        best.valid = true;
      }
    }
  }

  std::vector<std::uint8_t> side(n, 1);
  for (std::size_t i = 0; i < best.prefixLen; ++i) {
    side[orders[best.orderIndex][i]] = 0;
  }
  return side;
}

double fmRefine(const graph::Dag& dag, const std::vector<double>& vertexWeight,
                const BisectionTargets& targets,
                std::vector<std::uint8_t>& side) {
  const std::size_t n = dag.numVertices();
  // succIn0[v]: #successors of v inside part 0 (blocks 0->1 moves);
  // predIn1[v]: #predecessors of v inside part 1 (blocks 1->0 moves).
  std::vector<std::uint32_t> succIn0(n, 0), predIn1(n, 0);
  double w0 = 0.0, w1 = 0.0;
  for (VertexId v = 0; v < n; ++v) {
    (side[v] == 0 ? w0 : w1) += vertexWeight[v];
  }
  for (EdgeId e = 0; e < dag.numEdges(); ++e) {
    const graph::Edge& edge = dag.edge(e);
    if (side[edge.dst] == 0) ++succIn0[edge.src];
    if (side[edge.src] == 1) ++predIn1[edge.dst];
  }

  // For a *movable* vertex the gain is static: moving v from 0 to 1 turns
  // all its out-edges internal (they all lead to part 1) and cuts all its
  // in-edges (they all come from part 0), so gain = outCost - inCost; the
  // reverse move gains inCost - outCost.
  std::vector<double> gain0to1(n), gain1to0(n);
  for (VertexId v = 0; v < n; ++v) {
    const double out = dag.outCost(v);
    const double in = dag.inCost(v);
    gain0to1[v] = out - in;
    gain1to0[v] = in - out;
  }

  struct HeapEntry {
    double gain;
    VertexId v;
    bool operator<(const HeapEntry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return v < other.v;
    }
  };
  std::priority_queue<HeapEntry> heap0, heap1;  // lazy invalidation
  std::vector<bool> locked(n, false);
  auto pushIfMovable = [&](VertexId v) {
    if (locked[v]) return;
    if (side[v] == 0 && succIn0[v] == 0) {
      heap0.push(HeapEntry{gain0to1[v], v});
    } else if (side[v] == 1 && predIn1[v] == 0) {
      heap1.push(HeapEntry{gain1to0[v], v});
    }
  };
  for (VertexId v = 0; v < n; ++v) pushIfMovable(v);

  struct Move {
    VertexId v;
    std::uint8_t from;
  };
  std::vector<Move> moves;
  double cumulative = 0.0;
  double bestCumulative = 0.0;
  std::size_t bestPrefix = 0;
  const double startViolation = violation(w0, w1, targets);
  double bestViolation = startViolation;

  auto applyMove = [&](VertexId v) {
    const std::uint8_t from = side[v];
    side[v] = static_cast<std::uint8_t>(1 - from);
    locked[v] = true;
    if (from == 0) {
      w0 -= vertexWeight[v];
      w1 += vertexWeight[v];
      cumulative += gain0to1[v];
      // v left part 0: predecessors lose a part-0 successor; v's successors
      // (all in part 1) gain a part-1 predecessor.
      for (const EdgeId e : dag.inEdges(v)) {
        const VertexId u = dag.edge(e).src;
        assert(succIn0[u] > 0);
        if (--succIn0[u] == 0) pushIfMovable(u);
      }
      for (const EdgeId e : dag.outEdges(v)) {
        ++predIn1[dag.edge(e).dst];
      }
    } else {
      w1 -= vertexWeight[v];
      w0 += vertexWeight[v];
      cumulative += gain1to0[v];
      for (const EdgeId e : dag.outEdges(v)) {
        const VertexId w = dag.edge(e).dst;
        assert(predIn1[w] > 0);
        if (--predIn1[w] == 0) pushIfMovable(w);
      }
      for (const EdgeId e : dag.inEdges(v)) {
        ++succIn0[dag.edge(e).src];
      }
    }
    moves.push_back(Move{v, from});
  };

  auto popValid = [&](std::priority_queue<HeapEntry>& heap,
                      std::uint8_t fromSide) -> VertexId {
    while (!heap.empty()) {
      const HeapEntry top = heap.top();
      const VertexId v = top.v;
      const bool movable = fromSide == 0 ? (side[v] == 0 && succIn0[v] == 0)
                                         : (side[v] == 1 && predIn1[v] == 0);
      const double gain = fromSide == 0 ? gain0to1[v] : gain1to0[v];
      if (locked[v] || !movable || gain != top.gain) {
        heap.pop();
        continue;
      }
      return v;
    }
    return graph::kInvalidVertex;
  };

  const double cap0 = (1.0 + targets.epsilon) * targets.target0;
  const double cap1 = (1.0 + targets.epsilon) * targets.target1;
  // One FM pass: keep moving the best admissible vertex (allowing negative
  // gains to climb out of local minima), then roll back to the best prefix.
  const std::size_t maxMoves = n;
  for (std::size_t step = 0; step < maxMoves; ++step) {
    const VertexId from0 = popValid(heap0, 0);
    const VertexId from1 = popValid(heap1, 1);
    // A move is admissible if the receiving side stays under its cap or the
    // move strictly reduces the current violation.
    const bool ok0 =
        from0 != graph::kInvalidVertex &&
        (w1 + vertexWeight[from0] <= cap1 || w0 > cap0);
    const bool ok1 =
        from1 != graph::kInvalidVertex &&
        (w0 + vertexWeight[from1] <= cap0 || w1 > cap1);
    VertexId chosen = graph::kInvalidVertex;
    if (ok0 && ok1) {
      chosen = gain0to1[from0] >= gain1to0[from1] ? from0 : from1;
    } else if (ok0) {
      chosen = from0;
    } else if (ok1) {
      chosen = from1;
    } else {
      break;
    }
    if (chosen == from0) heap0.pop(); else heap1.pop();
    applyMove(chosen);
    const double viol = violation(w0, w1, targets);
    // Never keep a prefix that leaves both sides empty.
    const bool nonTrivial = w0 > 0.0 && w1 > 0.0;
    const bool better =
        nonTrivial && (viol < bestViolation - 1e-12 ||
                       (viol <= bestViolation + 1e-12 &&
                        cumulative > bestCumulative + 1e-12));
    if (better) {
      bestViolation = viol;
      bestCumulative = cumulative;
      bestPrefix = moves.size();
    }
  }

  // Roll back to the best prefix.
  while (moves.size() > bestPrefix) {
    const Move m = moves.back();
    moves.pop_back();
    side[m.v] = m.from;
    // Weight bookkeeping only; counters are not needed after the pass.
  }
  // Counters are stale after rollback; callers re-enter fmRefine for the
  // next pass, which rebuilds them from scratch.
  return bestCumulative;
}

std::vector<std::uint8_t> multilevelBisect(
    const graph::Dag& dag, const std::vector<double>& vertexWeight,
    const BisectionTargets& targets, support::Rng& rng) {
  [[maybe_unused]] const std::size_t n = dag.numVertices();
  assert(n >= 2);
  const double total = totalOf(vertexWeight);
  // Cap cluster weight so a single coarse vertex cannot make every
  // bisection infeasible: stay below the smaller side's capacity.
  const double maxCluster =
      std::max(total / 8.0,
               (1.0 + targets.epsilon) *
                   std::min(targets.target0, targets.target1) / 2.0);

  std::vector<Level> levels =
      coarsen(dag, vertexWeight, kCoarsenTargetSize, maxCluster, rng);
  // Drop over-contracted tails (possible with degenerate zero weights).
  while (!levels.empty() && levels.back().dag.numVertices() < 2) {
    levels.pop_back();
  }
  obs::add(obs::Counter::kCoarsenLevels, levels.size());

  const graph::Dag* coarsest = levels.empty() ? &dag : &levels.back().dag;
  const std::vector<double>* coarsestWeight =
      levels.empty() ? &vertexWeight : &levels.back().vertexWeight;

  std::vector<std::uint8_t> side =
      initialBisection(*coarsest, *coarsestWeight, targets);
  for (int pass = 0; pass < kMaxFmPasses; ++pass) {
    if (fmRefine(*coarsest, *coarsestWeight, targets, side) <= 1e-12) break;
  }

  // Project through the hierarchy, refining at every level.
  for (std::size_t i = levels.size(); i-- > 0;) {
    const Level& level = levels[i];
    const graph::Dag* fineDag = (i == 0) ? &dag : &levels[i - 1].dag;
    const std::vector<double>* fineWeight =
        (i == 0) ? &vertexWeight : &levels[i - 1].vertexWeight;
    std::vector<std::uint8_t> fineSide(fineDag->numVertices());
    for (VertexId v = 0; v < fineDag->numVertices(); ++v) {
      fineSide[v] = side[level.fineToCoarse[v]];
    }
    side = std::move(fineSide);
    for (int pass = 0; pass < kMaxFmPasses; ++pass) {
      if (fmRefine(*fineDag, *fineWeight, targets, side) <= 1e-12) break;
    }
  }

  // Guarantee both sides are non-empty (the initial bisection ensures this,
  // and FM's best-prefix rule preserves it, but guard against degenerate
  // weights anyway).
  bool any0 = false, any1 = false;
  for (const std::uint8_t s : side) {
    (s == 0 ? any0 : any1) = true;
  }
  if (!any0 || !any1) {
    const auto order = *graph::topologicalOrder(dag);
    std::fill(side.begin(), side.end(), static_cast<std::uint8_t>(1));
    side[order.front()] = 0;
  }
  return side;
}

}  // namespace dagpm::partition::detail
