#include "resched/repair.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <utility>

namespace dagpm::resched {

using graph::VertexId;
using quotient::BlockId;

namespace {

/// Local-search rounds; each applies one operation.
constexpr int kMaxRounds = 16;
/// Oracle evaluations of merge candidates per repair.
constexpr int kMergeProbeBudget = 64;

double capacityOf(const ResidualState& state, const platform::Cluster& cluster,
                  platform::ProcessorId p) {
  return cluster.memory(p) - state.residentOnProc[p];
}

/// Rollback data for one tentative merge (cf. quotient::MergeTransaction):
/// candidate evaluation applies the merge, projects, and undoes it, instead
/// of deep-copying the whole residual state per candidate.
struct MergeUndo {
  std::size_t host = 0;
  std::size_t victim = 0;
  std::size_t hostMembersSize = 0;
  double hostRemainingWork = 0.0;
  double hostMemReq = 0.0;
  double hostBarrier = 0.0;
  bool hostMerged = false;
  std::vector<ResidualInput> hostCompletedInputs;
  std::map<std::size_t, double> hostPreds, hostSuccs;
  std::vector<int> liveIndexPointingAtVictim;  // positions in liveIndexOf
};

/// Absorbs `victim` into `host` (both freed, alive, distinct processors).
/// `mergedMemReq` is the oracle requirement of the union, computed by the
/// caller (it gates the candidate before any mutation happens). Returns the
/// rollback data for undoMerge.
MergeUndo applyMerge(ResidualState& state, std::size_t host,
                     std::size_t victim, double mergedMemReq) {
  ResidualBlock& h = state.blocks[host];
  ResidualBlock& v = state.blocks[victim];
  MergeUndo undo;
  undo.host = host;
  undo.victim = victim;
  undo.hostMembersSize = h.members.size();
  undo.hostRemainingWork = h.remainingWork;
  undo.hostMemReq = h.memReq;
  undo.hostBarrier = h.barrier;
  undo.hostMerged = h.merged;
  undo.hostCompletedInputs = h.completedInputs;
  undo.hostPreds = h.preds;
  undo.hostSuccs = h.succs;
  for (std::size_t i = 0; i < state.liveIndexOf.size(); ++i) {
    if (state.liveIndexOf[i] == static_cast<int>(victim)) {
      undo.liveIndexPointingAtVictim.push_back(static_cast<int>(i));
    }
  }

  h.members.insert(h.members.end(), v.members.begin(), v.members.end());
  h.remainingWork += v.remainingWork;
  h.memReq = mergedMemReq;
  h.merged = true;
  h.barrier = std::max(h.barrier, v.barrier);
  // Coalesce completed-producer inputs by producer: the merged block counts
  // as moved, so the splice re-sends one aggregated transfer per producer.
  h.completedInputs.insert(h.completedInputs.end(), v.completedInputs.begin(),
                           v.completedInputs.end());
  std::map<BlockId, ResidualInput> byProducer;
  for (const ResidualInput& in : h.completedInputs) {
    auto [it, fresh] = byProducer.try_emplace(in.srcBlock, in);
    if (!fresh) it->second.fullCost += in.fullCost;
    it->second.delivered = false;
    it->second.remaining = 0.0;
  }
  h.completedInputs.clear();
  for (auto& [src, in] : byProducer) h.completedInputs.push_back(in);
  // Rewire the residual quotient around the victim.
  for (const auto& [pred, cost] : v.preds) {
    state.blocks[pred].succs.erase(victim);
    if (pred == host) continue;
    h.preds[pred] += cost;
    state.blocks[pred].succs[host] += cost;
  }
  for (const auto& [succ, cost] : v.succs) {
    state.blocks[succ].preds.erase(victim);
    if (succ == host) continue;
    h.succs[succ] += cost;
    state.blocks[succ].preds[host] += cost;
  }
  h.preds.erase(victim);
  h.succs.erase(victim);
  state.procHostsLive[v.proc] = 0;
  v.alive = false;
  // Blocks absorbed (possibly transitively) now resolve to the host.
  for (const int i : undo.liveIndexPointingAtVictim) {
    state.liveIndexOf[static_cast<std::size_t>(i)] = static_cast<int>(host);
  }
  return undo;
}

/// Restores the state applyMerge mutated. The victim block itself was never
/// touched (only unlinked), so its own fields are still authoritative;
/// neighbor adjacency entries pointing at the host are restored wholesale
/// from the saved host maps.
void undoMerge(ResidualState& state, const MergeUndo& undo) {
  ResidualBlock& h = state.blocks[undo.host];
  ResidualBlock& v = state.blocks[undo.victim];
  h.members.resize(undo.hostMembersSize);
  h.remainingWork = undo.hostRemainingWork;
  h.memReq = undo.hostMemReq;
  h.barrier = undo.hostBarrier;
  h.merged = undo.hostMerged;
  h.completedInputs = undo.hostCompletedInputs;
  // Re-link the victim's neighbors first (their host entries are fixed up
  // right after, from the saved originals).
  for (const auto& [pred, cost] : v.preds) {
    state.blocks[pred].succs[undo.victim] = cost;
  }
  for (const auto& [succ, cost] : v.succs) {
    state.blocks[succ].preds[undo.victim] = cost;
  }
  for (const auto& [pred, cost] : undo.hostPreds) {
    state.blocks[pred].succs[undo.host] = cost;
  }
  for (const auto& [pred, cost] : h.preds) {
    if (undo.hostPreds.find(pred) == undo.hostPreds.end()) {
      state.blocks[pred].succs.erase(undo.host);
    }
  }
  for (const auto& [succ, cost] : undo.hostSuccs) {
    state.blocks[succ].preds[undo.host] = cost;
  }
  for (const auto& [succ, cost] : h.succs) {
    if (undo.hostSuccs.find(succ) == undo.hostSuccs.end()) {
      state.blocks[succ].preds.erase(undo.host);
    }
  }
  h.preds = undo.hostPreds;
  h.succs = undo.hostSuccs;
  state.procHostsLive[v.proc] = 1;
  v.alive = true;
  for (const int i : undo.liveIndexPointingAtVictim) {
    state.liveIndexOf[static_cast<std::size_t>(i)] =
        static_cast<int>(undo.victim);
  }
}

}  // namespace

RepairResult repairResidual(ResidualState& state,
                            const platform::Cluster& cluster,
                            const memory::MemDagOracle& oracle,
                            const RepairConfig& cfg) {
  RepairResult result;
  constexpr double kSlack = 1.0 + 1e-12;
  const auto deadProc = [&state](platform::ProcessorId p) {
    return !state.procDead.empty() && state.procDead[p] != 0;
  };

  // Mandatory evacuation pass: every lost block must leave its fail-stop
  // processor before anything else matters (the keep-current assignment is
  // unrecoverable). Placement is the naive greedy one — the free surviving
  // processor with the most spare memory, ties to the lowest id — which is
  // exactly the re-execution baseline; in search mode the improvement
  // rounds below then optimize from there. A lost block with no feasible
  // target stays put (evacuations < evacuationsNeeded) and the driver
  // retries after a backoff once other blocks complete and free processors.
  if (!state.procDead.empty()) {
    for (std::size_t i = 0; i < state.blocks.size(); ++i) {
      ResidualBlock& rb = state.blocks[i];
      if (!rb.alive || !deadProc(rb.proc)) continue;
      ++result.evacuationsNeeded;
      platform::ProcessorId target = platform::kNoProcessor;
      double targetFree = -1.0;
      for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
        if (deadProc(p) || state.procHostsLive[p] != 0) continue;
        const double free = capacityOf(state, cluster, p);
        if (rb.memReq > free * kSlack) continue;
        if (free > targetFree) {
          targetFree = free;
          target = p;
        }
      }
      if (target == platform::kNoProcessor) continue;
      state.procHostsLive[rb.proc] = 0;
      rb.proc = target;
      state.procHostsLive[target] = 1;
      ++result.evacuations;
    }
  }

  result.projectedBefore = projectResidual(state, cluster, cfg.comm);
  double current = result.projectedBefore;
  if (cfg.evacuateOnly) {
    result.projectedAfter = current;
    result.accepted = result.evacuations > 0;
    return result;
  }
  int mergeBudget = kMergeProbeBudget;
  const double eps = 1e-12 * std::max(1.0, current);
  constexpr double kMemSlack = 1.0 + 1e-12;

  enum class Kind { kNone, kMove, kSwap, kMerge };
  for (int round = 0; round < kMaxRounds; ++round) {
    Kind bestKind = Kind::kNone;
    std::size_t bestA = 0;
    std::size_t bestB = 0;
    platform::ProcessorId bestProc = platform::kNoProcessor;
    double bestMem = 0.0;
    double bestValue = current - eps;  // strict improvement required

    const std::size_t n = state.blocks.size();
    for (std::size_t i = 0; i < n; ++i) {
      ResidualBlock& bi = state.blocks[i];
      if (!bi.alive || bi.pinned) continue;
      const platform::ProcessorId from = bi.proc;
      for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
        if (p == from || state.procHostsLive[p] != 0 || deadProc(p)) {
          continue;
        }
        if (bi.memReq > capacityOf(state, cluster, p) * kMemSlack) continue;
        bi.proc = p;  // tentative; the projection ignores procHostsLive
        const double value = projectResidual(state, cluster, cfg.comm);
        bi.proc = from;
        if (value < bestValue) {
          bestValue = value;
          bestKind = Kind::kMove;
          bestA = i;
          bestProc = p;
        }
      }
      for (std::size_t j = i + 1; j < n; ++j) {
        ResidualBlock& bj = state.blocks[j];
        if (!bj.alive || bj.pinned) continue;
        if (bi.memReq > capacityOf(state, cluster, bj.proc) * kMemSlack ||
            bj.memReq > capacityOf(state, cluster, bi.proc) * kMemSlack) {
          continue;
        }
        std::swap(bi.proc, bj.proc);
        const double value = projectResidual(state, cluster, cfg.comm);
        std::swap(bi.proc, bj.proc);
        if (value < bestValue) {
          bestValue = value;
          bestKind = Kind::kSwap;
          bestA = i;
          bestB = j;
        }
      }
      std::set<std::size_t> neighbors;
      for (const auto& [pred, cost] : bi.preds) neighbors.insert(pred);
      for (const auto& [succ, cost] : bi.succs) neighbors.insert(succ);
      for (const std::size_t j : neighbors) {
        ResidualBlock& bj = state.blocks[j];
        if (!bj.alive || bj.pinned || mergeBudget <= 0) continue;
        // A lost started block carries an executed traversal prefix; a
        // merge would re-traverse the union and discard it.
        if (bi.doneSteps > 0 || bj.doneSteps > 0) continue;
        --mergeBudget;
        // Moves and swaps keep memberships, so later rounds re-probe the
        // same unions; the oracle's memo serves them.
        std::vector<VertexId> unionMembers = bj.members;
        unionMembers.insert(unionMembers.end(), bi.members.begin(),
                            bi.members.end());
        const double mem = oracle.blockRequirement(unionMembers);
        if (mem > capacityOf(state, cluster, bj.proc) * kMemSlack) continue;
        // Apply tentatively and roll back (deep-copying the state per
        // candidate would be O(tasks)); a merge creating a cycle projects
        // to +inf and is never selected.
        const MergeUndo tx = applyMerge(state, j, i, mem);
        const double value = projectResidual(state, cluster, cfg.comm);
        undoMerge(state, tx);
        if (value < bestValue) {
          bestValue = value;
          bestKind = Kind::kMerge;
          bestA = j;
          bestB = i;
          bestMem = mem;
        }
      }
    }

    if (bestKind == Kind::kNone) break;
    switch (bestKind) {
      case Kind::kMove: {
        ResidualBlock& rb = state.blocks[bestA];
        state.procHostsLive[rb.proc] = 0;
        rb.proc = bestProc;
        state.procHostsLive[bestProc] = 1;
        ++result.moves;
        break;
      }
      case Kind::kSwap:
        std::swap(state.blocks[bestA].proc, state.blocks[bestB].proc);
        ++result.swaps;
        break;
      case Kind::kMerge:
        applyMerge(state, bestA, bestB, bestMem);
        ++result.merges;
        break;
      case Kind::kNone:
        break;
    }
    current = bestValue;
  }

  result.projectedAfter = current;
  result.accepted =
      result.moves + result.swaps + result.merges > 0 &&
      result.projectedBefore - current >
          cfg.minGain * std::max(result.projectedBefore, 1e-300);
  return result;
}

Splice buildSplice(const sim::SimPlan& plan, const sim::SimCheckpoint& ck,
                   const ResidualState& state,
                   const sim::PerturbationModel& model) {
  const sim::detail::PlanData& d = plan.data();
  const graph::Dag& g = *d.g;
  const std::size_t numOld = d.blocks.size();
  const std::size_t numTasks = g.numVertices();

  Splice sp;
  // Compact new ids, ascending in the survivor's old block id: completed
  // blocks and alive residual blocks survive; absorbed blocks map to their
  // absorber.
  std::vector<char> completedOld(numOld, 0);
  sp.oldToNew.assign(numOld, quotient::kNoBlock);
  std::vector<BlockId> newToOld;
  for (BlockId b = 0; b < static_cast<BlockId>(numOld); ++b) {
    completedOld[b] = ck.blocks[b].done == d.blocks[b].order.size() ? 1 : 0;
    const int idx = state.liveIndexOf[b];
    const bool survivor =
        completedOld[b] != 0 ||
        (idx >= 0 && state.blocks[static_cast<std::size_t>(idx)].alive &&
         state.blocks[static_cast<std::size_t>(idx)].block == b);
    if (survivor) {
      sp.oldToNew[b] = static_cast<BlockId>(newToOld.size());
      newToOld.push_back(b);
    }
  }
  for (BlockId b = 0; b < static_cast<BlockId>(numOld); ++b) {
    if (sp.oldToNew[b] != quotient::kNoBlock) continue;
    const int idx = state.liveIndexOf[b];
    sp.oldToNew[b] =
        sp.oldToNew[state.blocks[static_cast<std::size_t>(idx)].block];
  }
  const std::size_t numNew = newToOld.size();

  scheduler::ScheduleResult& schedule = sp.schedule;
  schedule.feasible = true;
  schedule.blockOf.assign(numTasks, 0);
  schedule.procOfBlock.assign(numNew, platform::kNoProcessor);
  sp.hints.completedBlock.assign(numNew, 0);
  sp.hints.forcedOrder.assign(numNew, {});
  for (BlockId n = 0; n < static_cast<BlockId>(numNew); ++n) {
    const BlockId old = newToOld[n];
    if (completedOld[old] != 0) {
      schedule.procOfBlock[n] = d.blocks[old].proc;
      sp.hints.completedBlock[n] = 1;
      sp.hints.forcedOrder[n] = d.blocks[old].order;
      for (const VertexId v : d.blocks[old].order) schedule.blockOf[v] = n;
    } else {
      const ResidualBlock& rb =
          state.blocks[static_cast<std::size_t>(state.liveIndexOf[old])];
      schedule.procOfBlock[n] = rb.proc;
      // Merged blocks get a fresh oracle traversal; everyone else keeps the
      // order their (possibly partial) execution history indexes into.
      if (!rb.merged) sp.hints.forcedOrder[n] = d.blocks[old].order;
      for (const VertexId v : rb.members) schedule.blockOf[v] = n;
    }
  }
  // Keep the field's repo-wide meaning (the static Eq. (1)-(2) quotient
  // makespan of the mapping, history-free); the residual projection that
  // justified this splice lives in RepairResult/RepairRecord instead.
  schedule.makespan = scheduler::staticMakespan(g, *d.cluster, schedule);

  // Quotient of the spliced schedule (aggregated costs + predecessor sets).
  std::map<std::pair<BlockId, BlockId>, double> aggCost;
  std::vector<std::set<BlockId>> predsOf(numNew);
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.numEdges());
       ++e) {
    const graph::Edge& edge = g.edge(e);
    const BlockId a = schedule.blockOf[edge.src];
    const BlockId b = schedule.blockOf[edge.dst];
    if (a == b) continue;
    aggCost[{a, b}] += edge.cost;
    predsOf[b].insert(a);
  }

  // Adapt the checkpoint: everything but its block-indexed parts carries
  // over verbatim (fault state is processor-indexed, and applied fault
  // events are never re-applied on resume). Translate the events' block ids,
  // rebuild per-block input state, keep in-flight transfers to unmoved
  // destinations, re-send the inputs of moved destinations from their
  // completed producers.
  sim::SimCheckpoint& nk = sp.checkpoint;
  nk = ck;
  for (sim::TaskEvent& ev : nk.events) {
    if (ev.block != quotient::kNoBlock) ev.block = sp.oldToNew[ev.block];
  }
  nk.transfers.clear();

  std::set<std::pair<BlockId, BlockId>> inFlightOld;
  for (const sim::TransferState& t : ck.transfers) {
    // In-flight destinations are always unstarted, hence live.
    const ResidualBlock& rb = state.blocks[static_cast<std::size_t>(
        state.liveIndexOf[t.dstBlock])];
    inFlightOld.insert({t.srcBlock, t.dstBlock});
    if (rb.moved()) continue;  // invalidated; re-sent below
    sim::TransferState kept = t;
    kept.srcBlock = sp.oldToNew[t.srcBlock];
    kept.dstBlock = sp.oldToNew[t.dstBlock];
    nk.transfers.push_back(kept);
  }

  // Re-sends `bytes` from `src` to `dst` (new ids) at full volume, drawing
  // the volume factor the way the engine would for this block pair, and
  // returns 1 when the transfer is pending. A zero-volume transfer delivers
  // instantly, like an engine dispatch, and raises `bs`'s barrier instead.
  const auto resend = [&](BlockId src, BlockId dst, double bytes,
                          sim::BlockState& bs) -> std::size_t {
    const double total =
        bytes * model.transferFactor(sim::blockTransferId(src, dst));
    ++nk.numTransfers;
    nk.transferVolume += bytes;
    ++sp.resendTransfers;
    sp.resendVolume += bytes;
    if (total > 0.0) {
      sim::TransferState t;
      t.remaining = total;
      t.total = total;
      t.bytes = bytes;
      t.dispatched = ck.now;
      t.srcBlock = src;
      t.dstBlock = dst;
      nk.transfers.push_back(t);
      return 1;
    }
    bs.barrierTime = std::max(bs.barrierTime, ck.now);
    return 0;
  };

  nk.blocks.assign(numNew, sim::BlockState{});
  for (BlockId n = 0; n < static_cast<BlockId>(numNew); ++n) {
    const BlockId old = newToOld[n];
    sim::BlockState& bs = nk.blocks[n];
    if (completedOld[old] != 0) {
      bs = ck.blocks[old];
      continue;
    }
    const ResidualBlock& rb =
        state.blocks[static_cast<std::size_t>(state.liveIndexOf[old])];
    if (rb.pinned || (ck.blocks[old].done > 0 && !rb.moved())) {
      bs = ck.blocks[old];  // started: inputs satisfied, prefix preserved
      continue;
    }
    if (ck.blocks[old].done > 0) {
      // A started block evacuated off its fail-stop processor: task-level
      // preemptive restart. The executed prefix survives (the kill rolled
      // nextStep back to done), but everything resident on the dead
      // processor is gone — its inputs are re-sent by their completed
      // producers below, and the checkpointed prefix itself is re-received
      // from the checkpoint store as one more pending input.
      bs = ck.blocks[old];
      bs.barrierTime = 0.0;
      std::size_t pending = 0;
      for (const BlockId p : predsOf[n]) {
        // Every producer of a started block completed before it started.
        pending += resend(p, n, aggCost[{p, n}], bs);
      }
      if (rb.restoreBytes > 0.0) {
        // The prefix restore rides the backbone like any transfer; its
        // source is the block itself (the checkpoint store holds its data).
        pending += resend(n, n, rb.restoreBytes, bs);
      }
      bs.pendingInputs = pending;
      continue;
    }
    bs.nextStep = bs.done = 0;
    bs.barrierTime = rb.moved() ? 0.0 : ck.blocks[old].barrierTime;
    std::size_t pending = 0;
    for (const BlockId p : predsOf[n]) {
      if (sp.hints.completedBlock[p] == 0) {
        ++pending;  // live producer: the engine dispatches when it finishes
        continue;
      }
      if (!rb.moved()) {
        // Unmoved: the producer's transfer was either delivered (satisfied)
        // or kept in flight above (still pending).
        if (inFlightOld.count({newToOld[p], old}) != 0) ++pending;
        continue;
      }
      // Moved: everything received or in flight was lost; re-send one
      // aggregated transfer at full volume.
      pending += resend(p, n, aggCost[{p, n}], bs);
    }
    bs.pendingInputs = pending;
  }
  return sp;
}

}  // namespace dagpm::resched
