#include "resched/residual.hpp"

#include <algorithm>
#include <limits>

namespace dagpm::resched {

using quotient::BlockId;

ResidualState buildResidual(const sim::SimPlan& plan,
                            const sim::SimCheckpoint& checkpoint,
                            const memory::MemDagOracle& oracle) {
  const sim::detail::PlanData& d = plan.data();
  const graph::Dag& g = *d.g;
  const std::size_t numBlocks = d.blocks.size();

  ResidualState state(*d.quotient);
  state.blocks.resize(numBlocks);
  state.now = checkpoint.now;
  state.makespanSoFar = checkpoint.makespanSoFar;
  state.residentOnProc.assign(d.cluster->numProcessors(), 0.0);
  state.procHostsLive.assign(d.cluster->numProcessors(), 0);
  state.procDeadUntil = checkpoint.procDeadUntil;

  for (BlockId b = 0; b < numBlocks; ++b) {
    const sim::detail::BlockPlan& bp = d.blocks[b];
    const sim::BlockState& bs = checkpoint.blocks[b];
    ResidualBlock& rb = state.blocks[b];
    const platform::ProcessorId p = state.q.node(b).proc;
    rb.origProc = p;
    rb.completed = bs.done == bp.order.size();  // its processor is free
    if (rb.completed) continue;
    rb.lost = state.dead(p);
    // A lost started block is unpinned: preemptive task-level restart on a
    // surviving processor, re-receiving the checkpointed prefix below.
    rb.pinned = bs.nextStep > 0 && !rb.lost;
    if (rb.lost && bs.done > 0) {
      rb.doneSteps = bs.done;
      rb.restoreBytes = bp.residentAfter[bs.done - 1];
    }
    rb.barrier = bs.barrierTime;
    state.q.setMemReq(b, oracle.blockRequirement(bp.order));
    for (std::size_t s = bs.nextStep; s < bp.order.size(); ++s) {
      rb.remainingWork += g.work(bp.order[s]);
    }
    rb.release = state.readyAt(p);
    state.procHostsLive[p] = 1;
  }

  // A busy pinned block's processor frees up when its running task finishes.
  for (const sim::RunningTaskState& r : checkpoint.running) {
    ResidualBlock& rb = state.blocks[d.schedule->blockOf[r.task]];
    if (!rb.completed) rb.release = std::max(state.now, r.finish);
  }

  // Inputs owed by completed producers are their quotient out-edges; absent
  // from the in-flight list means the (single, aggregated) block transfer
  // was already delivered. In-flight output bytes still occupy their source
  // processor.
  for (const sim::TransferState& t : checkpoint.transfers) {
    state.inFlight[{t.srcBlock, t.dstBlock}] = t.remaining;
    state.residentOnProc[state.q.node(t.srcBlock).proc] += t.bytes;
  }
  return state;
}

double projectResidual(const ResidualState& state,
                       const platform::Cluster& cluster,
                       const comm::CommCostModel* comm) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const quotient::QuotientGraph& q = state.q;
  const double beta = cluster.bandwidth();
  const std::size_t n = q.numSlots();

  // A live block on a fail-stop processor can never execute: the candidate
  // is unrecoverable and must lose to any assignment that evacuates it.
  for (BlockId b = 0; b < n; ++b) {
    if (state.live(b) && state.dead(q.node(b).proc)) return kInf;
  }

  // Kahn order over the live blocks (seeds ascending, FIFO, successors
  // ascending); a cyclic candidate projects to +inf. Pinned blocks ignore
  // their inputs below (the data already arrived), but their edges still
  // participate here: a merge closing a cycle through a pinned block must
  // be rejected under every cost model.
  std::vector<std::size_t> degree(n, 0);
  std::vector<BlockId> order;
  order.reserve(n);
  std::size_t liveCount = 0;
  for (BlockId b = 0; b < n; ++b) {
    if (!state.live(b)) continue;
    ++liveCount;
    for (const auto& [pred, cost] : q.in(b)) degree[b] += state.live(pred);
    if (degree[b] == 0) order.push_back(b);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& [succ, cost] : q.out(order[head])) {
      if (--degree[succ] == 0) order.push_back(succ);
    }
  }
  if (order.size() != liveCount) return kInf;

  const auto slowdownOf = [&state](platform::ProcessorId p) {
    return p < state.procSlowdown.size() && state.procSlowdown[p] > 0.0
               ? state.procSlowdown[p]
               : 1.0;
  };
  // A pinned block keeps its release; any other starts on its current
  // processor once that processor is up.
  const auto earliestStart = [&](BlockId b) {
    const ResidualBlock& rb = state.blocks[b];
    return std::max(state.now,
                    rb.pinned ? rb.release : state.readyAt(q.node(b).proc));
  };
  const auto durationOf = [&](BlockId b) {
    const platform::ProcessorId p = q.node(b).proc;
    return state.blocks[b].remainingWork * slowdownOf(p) / cluster.speed(p);
  };
  // Calls f(dispatch volume) for each input of freed block `b` that is owed
  // by a completed producer and not yet delivered: a moved block has lost
  // what it received, so each completed producer re-sends its aggregated
  // transfer at full volume (plus a lost block's checkpointed prefix); an
  // unmoved block waits only for the remainders still in flight.
  const auto forEachOwedInput = [&](BlockId b, auto&& f) {
    const bool moved = state.moved(b);
    for (const auto& [pred, cost] : q.in(b)) {
      if (!state.blocks[pred].completed) continue;
      if (moved) {
        f(cost);
      } else if (const auto it = state.inFlight.find({pred, b});
                 it != state.inFlight.end()) {
        f(it->second);
      }
    }
    if (moved && state.blocks[b].restoreBytes > 0.0) {
      f(state.blocks[b].restoreBytes);
    }
  };

  if (comm != nullptr) {
    // Model-priced projection: the residual becomes a fluid problem whose
    // injections are the in-flight remainders and re-sends dispatched at
    // `now`, and whose edges are the live inter-block transfers. The
    // uncontended model reproduces the legacy pass below (same maxes, same
    // additive terms); the fair-share model makes them contend. Nodes follow
    // the Kahn order and each node's injections and in-edges are appended
    // together, which is the FluidProblem layout.
    comm::FluidProblem problem;
    std::vector<std::uint32_t> nodeOf(n, comm::kNoFluidEdge);
    for (const BlockId b : order) {
      nodeOf[b] = static_cast<std::uint32_t>(problem.nodes.size());
      const ResidualBlock& rb = state.blocks[b];
      comm::FluidNode node;
      node.duration = durationOf(b);
      node.earliestStart = earliestStart(b);
      if (!rb.pinned && !state.moved(b)) {
        node.earliestStart = std::max(node.earliestStart, rb.barrier);
      }
      problem.nodes.push_back(node);
    }
    for (const BlockId b : order) {
      if (state.blocks[b].pinned) continue;  // every input already arrived
      forEachOwedInput(b, [&](double volume) {
        problem.injections.push_back({nodeOf[b], state.now, volume});
      });
      for (const auto& [pred, cost] : q.in(b)) {
        if (state.live(pred)) {
          problem.edges.push_back({nodeOf[pred], nodeOf[b], cost});
        }
      }
    }
    const comm::FluidResult eval = comm->evaluate(problem, beta);
    if (!eval.ok) return kInf;
    return std::max(state.makespanSoFar, eval.makespan);
  }

  double makespan = state.makespanSoFar;
  std::vector<double> finish(n, 0.0);
  for (const BlockId b : order) {
    const ResidualBlock& rb = state.blocks[b];
    double start = earliestStart(b);
    if (!rb.pinned) {
      if (!state.moved(b)) start = std::max(start, rb.barrier);
      forEachOwedInput(b, [&](double volume) {
        start = std::max(start, state.now + volume / beta);
      });
      for (const auto& [pred, cost] : q.in(b)) {
        if (state.live(pred)) {
          start = std::max(start, finish[pred] + cost / beta);
        }
      }
    }
    finish[b] = start + durationOf(b);
    makespan = std::max(makespan, finish[b]);
  }
  return makespan;
}

}  // namespace dagpm::resched
