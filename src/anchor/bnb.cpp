#include "anchor/bnb.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>
#include <vector>

#include "graph/topology.hpp"
#include "obs/obs.hpp"
#include "quotient/incremental.hpp"
#include "quotient/quotient.hpp"
#include "scheduler/daghetpart.hpp"

namespace dagpm::anchor {

using graph::EdgeId;
using graph::VertexId;
using platform::ProcessorId;

namespace {

/// Task-level critical-path relaxation of a partial assignment. Assigned
/// tasks run at their block's processor speed, unassigned tasks at the
/// fastest speed; only edges between tasks assigned to *different* blocks
/// are priced (c/beta), every other edge is free. Admissible against the
/// block-serialized Eq. (1)-(2) makespan: a task-level path maps onto a
/// block-level path whose bottom weights dominate it term by term.
class PathBound {
 public:
  PathBound(const graph::Dag& g, const platform::Cluster& cluster,
            const std::vector<VertexId>& topo)
      : g_(g), topo_(topo), fastest_(cluster.fastestSpeed()),
        invBandwidth_(1.0 / cluster.bandwidth()),
        pathBelow_(g.numVertices(), 0.0) {
    double totalWork = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v) totalWork += g.work(v);
    double aggregateSpeed = 0.0;
    for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
      aggregateSpeed += cluster.speed(p);
    }
    workBound_ = aggregateSpeed > 0.0 ? totalWork / aggregateSpeed : 0.0;
  }

  /// The bound for the state described by (blockOf, speedOf): blockOf[v] ==
  /// kUnassigned marks an unassigned task, speedOf[v] is the processor
  /// speed of assigned tasks (ignored otherwise).
  double evaluate(const std::vector<std::uint32_t>& blockOf,
                  const std::vector<double>& speedOf,
                  std::uint32_t unassignedMark) {
    double best = 0.0;
    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
      const VertexId v = *it;
      const bool assigned = blockOf[v] != unassignedMark;
      const double speed = assigned ? speedOf[v] : fastest_;
      double below = 0.0;
      for (const EdgeId e : g_.outEdges(v)) {
        const VertexId c = g_.edge(e).dst;
        const bool priced = assigned && blockOf[c] != unassignedMark &&
                            blockOf[c] != blockOf[v];
        const double term =
            (priced ? g_.edge(e).cost * invBandwidth_ : 0.0) + pathBelow_[c];
        below = std::max(below, term);
      }
      pathBelow_[v] = g_.work(v) / speed + below;
      best = std::max(best, pathBelow_[v]);
    }
    return std::max(best, workBound_);
  }

 private:
  const graph::Dag& g_;
  const std::vector<VertexId>& topo_;
  double fastest_;
  double invBandwidth_;
  double workBound_;
  std::vector<double> pathBelow_;  // reused across evaluations
};

/// One open block of the search state.
struct OpenBlock {
  ProcessorId proc = platform::kNoProcessor;
  double maxTaskRequirement = 0.0;  // monotone lower bound on r_V
  std::vector<VertexId> members;
};

class BnbSearch {
 public:
  BnbSearch(const graph::Dag& g, const platform::Cluster& cluster,
            const memory::MemDagOracle& oracle, const BnbConfig& cfg,
            const std::vector<VertexId>& topo)
      : g_(g), cluster_(cluster), oracle_(oracle), cfg_(cfg), topo_(topo),
        bound_(g, cluster, topo),
        blockOf_(g.numVertices(), kUnassigned),
        speedOf_(g.numVertices(), 0.0),
        procUsed_(cluster.numProcessors(), false) {}

  void run(BnbResult& result) {
    result_ = &result;
    expand(0);
    result.closed = !budgetExhausted_;
  }

 private:
  static constexpr std::uint32_t kUnassigned = 0xffffffffu;

  /// True iff the quotient of the assigned prefix is acyclic. Contraction
  /// only ever adds quotient edges as more tasks are assigned, so a cyclic
  /// prefix can be pruned for good.
  [[nodiscard]] bool prefixQuotientAcyclic() const {
    const std::size_t numBlocks = blocks_.size();
    // Tiny block counts: adjacency as bitmasks, cycle check by Kahn.
    std::vector<std::uint64_t> succ(numBlocks, 0);
    std::vector<std::uint32_t> indegree(numBlocks, 0);
    assert(numBlocks <= 64 && "bitmask quotient exceeds 64 blocks");
    for (std::size_t e = 0; e < g_.numEdges(); ++e) {
      const graph::Edge& edge = g_.edge(static_cast<EdgeId>(e));
      const std::uint32_t bu = blockOf_[edge.src];
      const std::uint32_t bv = blockOf_[edge.dst];
      if (bu == kUnassigned || bv == kUnassigned || bu == bv) continue;
      if ((succ[bu] & (std::uint64_t{1} << bv)) == 0) {
        succ[bu] |= std::uint64_t{1} << bv;
        ++indegree[bv];
      }
    }
    std::vector<std::uint32_t> ready;
    for (std::uint32_t b = 0; b < numBlocks; ++b) {
      if (indegree[b] == 0) ready.push_back(b);
    }
    std::size_t popped = 0;
    while (!ready.empty()) {
      const std::uint32_t b = ready.back();
      ready.pop_back();
      ++popped;
      std::uint64_t out = succ[b];
      while (out != 0) {
        const int c = std::countr_zero(out);
        out &= out - 1;
        if (--indegree[static_cast<std::uint32_t>(c)] == 0) {
          ready.push_back(static_cast<std::uint32_t>(c));
        }
      }
    }
    return popped == numBlocks;
  }

  /// Exact evaluation of a complete assignment: the quotient's Eq. (1)-(2)
  /// makespan through the same IncrementalEvaluator every heuristic probe
  /// uses, plus the exact (non-monotone) oracle feasibility check the
  /// validator applies.
  void evaluateLeaf() {
    for (const OpenBlock& block : blocks_) {
      if (oracle_.blockRequirement(block.members) >
          cluster_.memory(block.proc)) {
        ++result_->nodesPruned;
        return;
      }
    }
    quotient::QuotientGraph q(
        g_, blockOf_, static_cast<std::uint32_t>(blocks_.size()));
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
      q.setProcessor(b, blocks_[b].proc);
    }
    const quotient::IncrementalEvaluator eval(q, cluster_);
    const double makespan = eval.makespan();
    if (!result_->feasible || makespan < result_->optimum) {
      result_->feasible = true;
      result_->optimum = makespan;
      scheduler::ScheduleResult& s = result_->schedule;
      s.feasible = true;
      s.makespan = makespan;
      s.blockOf = blockOf_;
      s.procOfBlock.resize(blocks_.size());
      for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
        s.procOfBlock[b] = blocks_[b].proc;
      }
      s.stats.numBlocks = static_cast<std::uint32_t>(blocks_.size());
    }
  }

  /// Tries to place topo_[depth] into `block` (an existing index) or onto a
  /// fresh block on processor `newProc`, then recurses.
  void tryPlacement(std::size_t depth, std::uint32_t block,
                    ProcessorId newProc) {
    const VertexId v = topo_[depth];
    const double taskReq = g_.taskMemoryRequirement(v);
    const bool opens = block == kUnassigned;
    if (opens) {
      if (taskReq > cluster_.memory(newProc)) {
        ++result_->nodesPruned;
        return;
      }
      block = static_cast<std::uint32_t>(blocks_.size());
      blocks_.push_back({newProc, taskReq, {v}});
      procUsed_[newProc] = true;
    } else {
      OpenBlock& host = blocks_[block];
      // Monotone prune only: max_u r_u never decreases as members join, so
      // an overflow here is final. The *exact* oracle requirement is not
      // monotone (absorbing a consumer can free a sticky output early), so
      // it is checked at the leaves, never used to cut a subtree.
      if (std::max(host.maxTaskRequirement, taskReq) >
          cluster_.memory(host.proc)) {
        ++result_->nodesPruned;
        return;
      }
      host.maxTaskRequirement = std::max(host.maxTaskRequirement, taskReq);
      host.members.push_back(v);
    }
    blockOf_[v] = block;
    speedOf_[v] = cluster_.speed(blocks_[block].proc);

    if (!prefixQuotientAcyclic()) {
      ++result_->nodesPruned;
    } else if (result_->feasible &&
               bound_.evaluate(blockOf_, speedOf_, kUnassigned) >=
                   result_->optimum) {
      ++result_->nodesPruned;
    } else {
      expand(depth + 1);
    }

    blockOf_[v] = kUnassigned;
    if (opens) {
      procUsed_[blocks_.back().proc] = false;
      blocks_.pop_back();
    } else {
      OpenBlock& host = blocks_[block];
      host.members.pop_back();
      host.maxTaskRequirement = 0.0;
      for (const VertexId u : host.members) {
        host.maxTaskRequirement =
            std::max(host.maxTaskRequirement, g_.taskMemoryRequirement(u));
      }
    }
  }

  void expand(std::size_t depth) {
    if (budgetExhausted_) return;
    if (result_->nodesVisited >= cfg_.maxNodes) {
      budgetExhausted_ = true;
      return;
    }
    ++result_->nodesVisited;
    obs::add(obs::Counter::kBnbNodesVisited);
    if (depth == topo_.size()) {
      evaluateLeaf();
      return;
    }
    // Existing blocks in opening order first, then a fresh block per unused
    // processor kind, fastest first (good incumbents early tighten the
    // bound prune). Among unused processors with identical (speed, memory)
    // only the lowest id is expanded — they are interchangeable under the
    // uniform-bandwidth platform model.
    for (std::uint32_t b = 0; b < blocks_.size(); ++b) {
      tryPlacement(depth, b, platform::kNoProcessor);
    }
    std::vector<ProcessorId> fresh;
    for (ProcessorId p = 0; p < cluster_.numProcessors(); ++p) {
      if (procUsed_[p]) continue;
      const bool duplicate =
          std::any_of(fresh.begin(), fresh.end(), [&](ProcessorId q) {
            return cluster_.speed(q) == cluster_.speed(p) &&
                   cluster_.memory(q) == cluster_.memory(p);
          });
      if (!duplicate) fresh.push_back(p);
    }
    std::stable_sort(fresh.begin(), fresh.end(),
                     [&](ProcessorId a, ProcessorId b) {
                       return cluster_.speed(a) > cluster_.speed(b);
                     });
    for (const ProcessorId p : fresh) {
      tryPlacement(depth, kUnassigned, p);
    }
  }

  const graph::Dag& g_;
  const platform::Cluster& cluster_;
  const memory::MemDagOracle& oracle_;
  const BnbConfig& cfg_;
  const std::vector<VertexId>& topo_;
  PathBound bound_;

  std::vector<std::uint32_t> blockOf_;
  std::vector<double> speedOf_;
  std::vector<OpenBlock> blocks_;
  std::vector<bool> procUsed_;
  BnbResult* result_ = nullptr;
  bool budgetExhausted_ = false;
};

}  // namespace

double relaxationLowerBound(const graph::Dag& g,
                            const platform::Cluster& cluster) {
  if (g.numVertices() == 0 || cluster.numProcessors() == 0) return 0.0;
  const auto topo = graph::topologicalOrder(g);
  assert(topo.has_value() && "relaxation bound requires an acyclic workflow");
  PathBound bound(g, cluster, *topo);
  const std::vector<std::uint32_t> blockOf(g.numVertices(), 0xffffffffu);
  const std::vector<double> speedOf(g.numVertices(), 0.0);
  return bound.evaluate(blockOf, speedOf, 0xffffffffu);
}

BnbResult solveExact(const graph::Dag& g, const platform::Cluster& cluster,
                     const BnbConfig& cfg) {
  const obs::Span span("anchor.bnb");
  BnbResult result;
  if (g.numVertices() == 0 || cluster.numProcessors() == 0) {
    result.closed = true;
    return result;
  }
  result.lowerBound = relaxationLowerBound(g, cluster);

  // Seed the incumbent with the heuristic winner.
  scheduler::DagHetPartConfig heuristic;
  heuristic.oracle = cfg.oracle;
  scheduler::ScheduleResult seed =
      scheduler::scheduleBest(g, cluster, heuristic);
  if (seed.feasible) {
    result.feasible = true;
    result.optimum = seed.makespan;
    result.schedule = std::move(seed);
  }

  const auto topo = graph::topologicalOrder(g);
  assert(topo.has_value() && "solveExact requires an acyclic workflow");
  const memory::MemDagOracle oracle(g, cfg.oracle);
  BnbSearch search(g, cluster, oracle, cfg, *topo);
  search.run(result);
  obs::add(obs::Counter::kBnbNodesPruned, result.nodesPruned);

  if (result.closed && result.feasible) result.lowerBound = result.optimum;
  return result;
}

}  // namespace dagpm::anchor
