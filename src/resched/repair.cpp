#include "resched/repair.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/obs.hpp"

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

/// Absorbs freed block `absorbed` into freed block `survivor` (distinct
/// processors): the quotient merge plus the survivor's execution state.
/// `memReq` is the oracle requirement of the union, computed by the caller
/// (it gates the candidate before any mutation happens). A probe undoes it
/// by restoring the survivor's saved ResidualBlock and rolling `tx` back.
quotient::MergeTransaction mergeBlocks(ResidualState& state, BlockId survivor,
                                       BlockId absorbed, double memReq) {
  quotient::MergeTransaction tx = state.q.merge(survivor, absorbed);
  state.q.setMemReq(survivor, memReq);
  ResidualBlock& s = state.blocks[survivor];
  const ResidualBlock& a = state.blocks[absorbed];
  s.remainingWork += a.remainingWork;
  s.barrier = std::max(s.barrier, a.barrier);
  s.merged = true;  // moved: its completed producers re-send in full
  return tx;
}

}  // namespace

RepairResult repairResidual(ResidualState& state,
                            const platform::Cluster& cluster,
                            const memory::MemDagOracle& oracle,
                            const RepairConfig& cfg) {
  RepairResult result;
  quotient::QuotientGraph& q = state.q;
  const BlockId n = static_cast<BlockId>(q.numSlots());
  constexpr double kSlack = 1.0 + 1e-12;
  const auto fits = [&](BlockId b, platform::ProcessorId p) {
    return q.node(b).memReq <= capacityOf(state, cluster, p) * kSlack;
  };

  // Mandatory evacuation pass: every lost block must leave its fail-stop
  // processor before anything else matters (the keep-current assignment is
  // unrecoverable). Placement is the naive greedy one — the free surviving
  // processor with the most spare memory, ties to the lowest id — which is
  // exactly the re-execution baseline; in search mode the improvement
  // rounds below then optimize from there. A lost block with no feasible
  // target stays put (evacuations < evacuationsNeeded) and the driver
  // retries after a backoff once other blocks complete and free processors.
  for (BlockId b = 0; b < n; ++b) {
    if (!state.live(b) || !state.dead(q.node(b).proc)) continue;
    ++result.evacuationsNeeded;
    platform::ProcessorId target = platform::kNoProcessor;
    double targetFree = -1.0;
    for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
      if (state.dead(p) || state.procHostsLive[p] != 0 || !fits(b, p)) {
        continue;
      }
      const double free = capacityOf(state, cluster, p);
      if (free > targetFree) {
        targetFree = free;
        target = p;
      }
    }
    if (target == platform::kNoProcessor) continue;
    state.procHostsLive[q.node(b).proc] = 0;
    q.setProcessor(b, target);
    state.procHostsLive[target] = 1;
    ++result.evacuations;
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
  const auto freed = [&](BlockId b) {
    return state.live(b) && !state.blocks[b].pinned;
  };
  const auto byBlock = [](const quotient::AdjEntry& x,
                          const quotient::AdjEntry& y) {
    return x.first < y.first;
  };

  enum class Kind { kNone, kMove, kSwap, kMerge };
  for (int round = 0; round < kMaxRounds; ++round) {
    Kind bestKind = Kind::kNone;
    BlockId bestA = 0;
    BlockId bestB = 0;
    platform::ProcessorId bestProc = platform::kNoProcessor;
    double bestMem = 0.0;
    double bestValue = current - eps;  // strict improvement required
    const auto consider = [&](double value, Kind kind, BlockId a, BlockId b) {
      if (!(value < bestValue)) return false;
      bestValue = value;
      bestKind = kind;
      bestA = a;
      bestB = b;
      return true;
    };

    for (BlockId i = 0; i < n; ++i) {
      if (!freed(i)) continue;
      const platform::ProcessorId from = q.node(i).proc;
      for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
        if (p == from || state.procHostsLive[p] != 0 || state.dead(p) ||
            !fits(i, p)) {
          continue;
        }
        q.setProcessor(i, p);  // tentative; the projection ignores hosts
        const double value = projectResidual(state, cluster, cfg.comm);
        q.setProcessor(i, from);
        if (consider(value, Kind::kMove, i, 0)) bestProc = p;
      }
      for (BlockId j = i + 1; j < n; ++j) {
        if (!freed(j)) continue;
        const platform::ProcessorId to = q.node(j).proc;
        if (!fits(i, to) || !fits(j, from)) continue;
        q.setProcessor(i, to);
        q.setProcessor(j, from);
        const double value = projectResidual(state, cluster, cfg.comm);
        q.setProcessor(i, from);
        q.setProcessor(j, to);
        consider(value, Kind::kSwap, i, j);
      }
      // Merge partners in ascending block id across preds and succs, copied
      // out of the arena (probes invalidate adjacency views).
      std::vector<quotient::AdjEntry> neighbors;
      std::set_union(q.in(i).begin(), q.in(i).end(), q.out(i).begin(),
                     q.out(i).end(), std::back_inserter(neighbors), byBlock);
      for (const auto& [j, cost] : neighbors) {
        if (!freed(j) || mergeBudget <= 0) continue;
        // A lost started block carries an executed traversal prefix; a
        // merge would re-traverse the union and discard it.
        if (state.blocks[i].doneSteps > 0 || state.blocks[j].doneSteps > 0) {
          continue;
        }
        --mergeBudget;
        // Moves and swaps keep memberships, so later rounds re-probe the
        // same unions; the oracle's memo serves them.
        std::vector<VertexId> unionMembers = q.node(j).members;
        unionMembers.insert(unionMembers.end(), q.node(i).members.begin(),
                            q.node(i).members.end());
        const double mem = oracle.blockRequirement(unionMembers);
        if (mem > capacityOf(state, cluster, q.node(j).proc) * kSlack) {
          continue;
        }
        // Apply tentatively and roll back; a merge creating a cycle
        // projects to +inf and is never selected.
        obs::add(obs::Counter::kReschedMergeProbes);
        const ResidualBlock saved = state.blocks[j];
        quotient::MergeTransaction tx = mergeBlocks(state, j, i, mem);
        const double value = projectResidual(state, cluster, cfg.comm);
        state.blocks[j] = saved;
        q.rollback(std::move(tx));
        if (consider(value, Kind::kMerge, j, i)) bestMem = mem;
      }
    }

    if (bestKind == Kind::kNone) break;
    switch (bestKind) {
      case Kind::kMove:
        state.procHostsLive[q.node(bestA).proc] = 0;
        q.setProcessor(bestA, bestProc);
        state.procHostsLive[bestProc] = 1;
        ++result.moves;
        break;
      case Kind::kSwap: {
        const platform::ProcessorId a = q.node(bestA).proc;
        q.setProcessor(bestA, q.node(bestB).proc);
        q.setProcessor(bestB, a);
        ++result.swaps;
        break;
      }
      case Kind::kMerge:
        mergeBlocks(state, bestA, bestB, bestMem);
        state.procHostsLive[q.node(bestB).proc] = 0;
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
  const quotient::QuotientGraph& q = state.q;
  const std::size_t numOld = d.blocks.size();

  Splice sp;
  // Compact new ids, ascending in the survivor's old block id: the alive
  // quotient nodes (completed blocks and unabsorbed live ones) survive;
  // absorbed blocks map to their absorber, which holds their members.
  std::vector<BlockId> newToOld = q.aliveNodes();
  const std::size_t numNew = newToOld.size();
  scheduler::ScheduleResult& schedule = sp.schedule;
  schedule.feasible = true;
  schedule.blockOf.assign(g.numVertices(), 0);
  schedule.procOfBlock.assign(numNew, platform::kNoProcessor);
  sp.hints.completedBlock.assign(numNew, 0);
  sp.hints.forcedOrder.assign(numNew, {});
  for (BlockId n = 0; n < static_cast<BlockId>(numNew); ++n) {
    const BlockId old = newToOld[n];
    const ResidualBlock& rb = state.blocks[old];
    schedule.procOfBlock[n] = q.node(old).proc;
    sp.hints.completedBlock[n] = rb.completed ? 1 : 0;
    // Merged blocks get a fresh oracle traversal; everyone else keeps the
    // order their (possibly partial) execution history indexes into.
    if (!rb.merged) sp.hints.forcedOrder[n] = d.blocks[old].order;
    for (const VertexId v : q.node(old).members) schedule.blockOf[v] = n;
  }
  sp.oldToNew.resize(numOld);
  for (BlockId b = 0; b < static_cast<BlockId>(numOld); ++b) {
    sp.oldToNew[b] = schedule.blockOf[d.blocks[b].order.front()];
  }
  // Re-send volumes fold the spliced quotient's edges in edge-id order.
  const quotient::QuotientGraph spliced = scheduler::quotientOf(g, schedule);
  // Keep the field's repo-wide meaning (the static Eq. (1)-(2) quotient
  // makespan of the mapping, history-free); the residual projection that
  // justified this splice lives in RepairResult/RepairRecord instead.
  schedule.makespan = scheduler::staticMakespan(spliced, *d.cluster);

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

  for (const sim::TransferState& t : ck.transfers) {
    // In-flight destinations are always unstarted, hence live; an absorbed
    // destination resolves to its (merged, so moved) absorber.
    if (state.moved(newToOld[sp.oldToNew[t.dstBlock]])) {
      continue;  // invalidated; re-sent below
    }
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
    const ResidualBlock& rb = state.blocks[old];
    const bool moved = state.moved(old);
    if (rb.completed || rb.pinned || (ck.blocks[old].done > 0 && !moved)) {
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
      for (const auto& [p, cost] : spliced.in(n)) {
        // Every producer of a started block completed before it started.
        pending += resend(p, n, cost, bs);
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
    bs.barrierTime = moved ? 0.0 : ck.blocks[old].barrierTime;
    std::size_t pending = 0;
    for (const auto& [p, cost] : spliced.in(n)) {
      if (sp.hints.completedBlock[p] == 0) {
        ++pending;  // live producer: the engine dispatches when it finishes
        continue;
      }
      if (!moved) {
        // Unmoved: the producer's transfer was either delivered (satisfied)
        // or kept in flight above (still pending).
        if (state.inFlight.count({newToOld[p], old}) != 0) ++pending;
        continue;
      }
      // Moved: everything received or in flight was lost; re-send one
      // aggregated transfer at full volume.
      pending += resend(p, n, cost, bs);
    }
    bs.pendingInputs = pending;
  }
  return sp;
}

}  // namespace dagpm::resched
