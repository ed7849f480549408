#include "resched/residual.hpp"

#include <algorithm>
#include <limits>

namespace dagpm::resched {

using graph::VertexId;
using quotient::BlockId;

ResidualState buildResidual(const sim::SimPlan& plan,
                            const sim::SimCheckpoint& checkpoint,
                            const memory::MemDagOracle& oracle) {
  const sim::detail::PlanData& d = plan.data();
  const graph::Dag& g = *d.g;
  const scheduler::ScheduleResult& schedule = *d.schedule;
  const std::size_t numBlocks = d.blocks.size();

  ResidualState state;
  state.now = checkpoint.now;
  state.makespanSoFar = checkpoint.makespanSoFar;
  state.liveIndexOf.assign(numBlocks, -1);
  state.residentOnProc.assign(d.cluster->numProcessors(), 0.0);
  state.procHostsLive.assign(d.cluster->numProcessors(), 0);
  // Fault state, when the checkpoint carries any: fail-stop processors are
  // dead for good; a finite downtime only delays the block's release.
  constexpr double kInfTime = std::numeric_limits<double>::infinity();
  if (!checkpoint.procDeadUntil.empty()) {
    state.procDead.assign(d.cluster->numProcessors(), 0);
    for (std::size_t p = 0; p < checkpoint.procDeadUntil.size(); ++p) {
      if (checkpoint.procDeadUntil[p] == kInfTime) state.procDead[p] = 1;
    }
  }
  const auto deadProc = [&state](platform::ProcessorId p) {
    return !state.procDead.empty() && state.procDead[p] != 0;
  };

  for (BlockId b = 0; b < numBlocks; ++b) {
    const sim::detail::BlockPlan& bp = d.blocks[b];
    const sim::BlockState& bs = checkpoint.blocks[b];
    if (bs.done == bp.order.size()) continue;  // completed: processor free
    ResidualBlock rb;
    rb.block = b;
    rb.origProc = rb.proc = bp.proc;
    rb.lost = deadProc(bp.proc);
    // A lost started block is unpinned: preemptive task-level restart on a
    // surviving processor, re-receiving the checkpointed prefix below.
    rb.pinned = bs.nextStep > 0 && !rb.lost;
    if (rb.lost && bs.done > 0) {
      rb.doneSteps = bs.done;
      rb.restoreBytes = bp.residentAfter[bs.done - 1];
    }
    rb.members = bp.order;
    rb.barrier = bs.barrierTime;
    rb.memReq = oracle.blockRequirement(rb.members);
    for (std::size_t s = bs.nextStep; s < bp.order.size(); ++s) {
      rb.remainingWork += g.work(bp.order[s]);
    }
    rb.release = state.now;
    if (!rb.lost && bp.proc < checkpoint.procDeadUntil.size() &&
        checkpoint.procDeadUntil[bp.proc] > state.now) {
      rb.release = checkpoint.procDeadUntil[bp.proc];  // transient downtime
    }
    state.procHostsLive[rb.proc] = 1;
    state.liveIndexOf[b] = static_cast<int>(state.blocks.size());
    state.blocks.push_back(std::move(rb));
  }

  // A busy pinned block's processor frees up when its running task finishes.
  for (const sim::RunningTaskState& r : checkpoint.running) {
    const int idx = state.liveIndexOf[schedule.blockOf[r.task]];
    if (idx >= 0) {
      state.blocks[static_cast<std::size_t>(idx)].release =
          std::max(state.now, r.finish);
    }
  }

  // Residual quotient edges (live -> live) and inputs owed by completed
  // producers. Block-synchronous transfers leave when the *whole* producer
  // block finishes, so edges out of live blocks count in full even when the
  // producing task itself already ran.
  std::map<std::pair<BlockId, std::size_t>, double> fromCompleted;
  for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    const BlockId sb = schedule.blockOf[edge.src];
    const BlockId db = schedule.blockOf[edge.dst];
    if (sb == db) continue;
    const int si = state.liveIndexOf[sb];
    const int di = state.liveIndexOf[db];
    if (di < 0) continue;  // destination done: nothing owed anymore
    if (si >= 0) {
      state.blocks[static_cast<std::size_t>(si)]
          .succs[static_cast<std::size_t>(di)] += edge.cost;
      state.blocks[static_cast<std::size_t>(di)]
          .preds[static_cast<std::size_t>(si)] += edge.cost;
    } else {
      fromCompleted[{sb, static_cast<std::size_t>(di)}] += edge.cost;
    }
  }

  // Match completed-producer inputs against the in-flight transfer list:
  // absent there means the (single, aggregated) block transfer was already
  // delivered. Meanwhile in-flight output bytes still occupy their source
  // processor.
  std::map<std::pair<BlockId, BlockId>, double> inFlight;
  for (const sim::TransferState& t : checkpoint.transfers) {
    inFlight[{t.srcBlock, t.dstBlock}] = t.remaining;
    state.residentOnProc[d.blocks[t.srcBlock].proc] += t.bytes;
  }
  for (const auto& [key, cost] : fromCompleted) {
    const auto& [src, dstIndex] = key;
    ResidualInput input;
    input.srcBlock = src;
    input.srcProc = d.blocks[src].proc;
    input.fullCost = cost;
    const auto it = inFlight.find({src, state.blocks[dstIndex].block});
    if (it == inFlight.end()) {
      input.delivered = true;
    } else {
      input.remaining = it->second;
    }
    state.blocks[dstIndex].completedInputs.push_back(input);
  }
  return state;
}

double projectResidual(const ResidualState& state,
                       const platform::Cluster& cluster,
                       const comm::CommCostModel* comm) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double beta = cluster.bandwidth();
  const std::size_t n = state.blocks.size();

  // A live block on a fail-stop processor can never execute: the candidate
  // is unrecoverable and must lose to any assignment that evacuates it.
  if (!state.procDead.empty()) {
    for (const ResidualBlock& rb : state.blocks) {
      if (rb.alive && state.procDead[rb.proc] != 0) return kInf;
    }
  }

  // Kahn order over the live blocks; a cyclic candidate projects to +inf.
  // Pinned blocks ignore their inputs below (the data already arrived), but
  // their edges still participate here: a merge closing a cycle through a
  // pinned block must be rejected under every cost model.
  std::vector<std::size_t> degree(n, 0);
  std::vector<std::size_t> order;
  order.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!state.blocks[i].alive) continue;
    degree[i] = state.blocks[i].preds.size();
    if (degree[i] == 0) order.push_back(i);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& [succ, cost] : state.blocks[order[head]].succs) {
      if (--degree[succ] == 0) order.push_back(succ);
    }
  }
  std::size_t aliveCount = 0;
  for (const ResidualBlock& rb : state.blocks) aliveCount += rb.alive ? 1 : 0;
  if (order.size() != aliveCount) return kInf;

  const auto slowdownOf = [&state](platform::ProcessorId p) {
    return p < state.procSlowdown.size() && state.procSlowdown[p] > 0.0
               ? state.procSlowdown[p]
               : 1.0;
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
    for (const std::size_t i : order) {
      nodeOf[i] = static_cast<std::uint32_t>(problem.nodes.size());
      const ResidualBlock& rb = state.blocks[i];
      comm::FluidNode node;
      node.duration =
          rb.remainingWork * slowdownOf(rb.proc) / cluster.speed(rb.proc);
      node.earliestStart = std::max(state.now, rb.release);
      if (!rb.pinned && !rb.moved()) {
        node.earliestStart = std::max(node.earliestStart, rb.barrier);
      }
      problem.nodes.push_back(node);
    }
    for (const std::size_t i : order) {
      const ResidualBlock& rb = state.blocks[i];
      if (rb.pinned) continue;  // started: every input already arrived
      if (rb.moved()) {
        std::map<BlockId, double> resend;
        for (const ResidualInput& in : rb.completedInputs) {
          resend[in.srcBlock] += in.fullCost;
        }
        for (const auto& [src, cost] : resend) {
          problem.injections.push_back({nodeOf[i], state.now, cost});
        }
        if (rb.restoreBytes > 0.0) {  // checkpointed prefix of a lost block
          problem.injections.push_back({nodeOf[i], state.now, rb.restoreBytes});
        }
      } else {
        for (const ResidualInput& in : rb.completedInputs) {
          if (!in.delivered) {
            problem.injections.push_back({nodeOf[i], state.now, in.remaining});
          }
        }
      }
      for (const auto& [pred, cost] : rb.preds) {
        problem.edges.push_back({nodeOf[pred], nodeOf[i], cost});
      }
    }
    const comm::FluidResult eval = comm->evaluate(problem, beta);
    if (!eval.ok) return kInf;
    return std::max(state.makespanSoFar, eval.makespan);
  }

  double makespan = state.makespanSoFar;
  std::vector<double> finish(n, 0.0);
  for (const std::size_t i : order) {
    const ResidualBlock& rb = state.blocks[i];
    double start = std::max(state.now, rb.release);
    if (!rb.pinned) {
      if (rb.moved()) {
        // Received and in-flight data is lost; its completed producers
        // re-send one aggregated transfer each at full volume.
        std::map<BlockId, double> resend;
        for (const ResidualInput& in : rb.completedInputs) {
          resend[in.srcBlock] += in.fullCost;
        }
        for (const auto& [src, cost] : resend) {
          start = std::max(start, state.now + cost / beta);
        }
        if (rb.restoreBytes > 0.0) {  // checkpointed prefix of a lost block
          start = std::max(start, state.now + rb.restoreBytes / beta);
        }
      } else {
        start = std::max(start, rb.barrier);
        for (const ResidualInput& in : rb.completedInputs) {
          if (!in.delivered) {
            start = std::max(start, state.now + in.remaining / beta);
          }
        }
      }
      for (const auto& [pred, cost] : rb.preds) {
        start = std::max(start, finish[pred] + cost / beta);
      }
    }
    finish[i] = start + rb.remainingWork * slowdownOf(rb.proc) /
                            cluster.speed(rb.proc);
    makespan = std::max(makespan, finish[i]);
  }
  return makespan;
}

}  // namespace dagpm::resched
