#include "scheduler/swap_step.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include <omp.h>

#include "obs/obs.hpp"
#include "quotient/incremental.hpp"

namespace dagpm::scheduler {

using platform::ProcessorId;
using quotient::BlockId;

namespace {

/// Safety bound on Algorithm 5's rounds; each committed round strictly
/// improves the makespan.
constexpr std::uint32_t kMaxSwapRounds = 1000;

/// Pairs per task of the Step-4 scan. A scan of one chunk runs inline.
constexpr std::size_t kPairsPerChunk = 64;

struct PairCandidate {
  std::uint32_t i = 0, j = 0;
};

/// Everything one scan chunk reads and writes, as plain pointers. (A
/// taskloop body that captures its outputs in a lambda may get firstprivate
/// copies of them and silently drop every probe.)
struct ScanCtx {
  const quotient::IncrementalEvaluator* eval = nullptr;
  const quotient::QuotientGraph* q = nullptr;
  const BlockId* nodes = nullptr;
  const PairCandidate* pairs = nullptr;
  std::size_t numPairs = 0;
  double* makespans = nullptr;           // one slot per pair
  obs::CounterTally* tallies = nullptr;  // one per chunk
};

/// Probes the pairs of one chunk with its own scratch and writes only that
/// chunk's makespan slots and tally, so any thread of the team may run it.
void scanChunk(const ScanCtx* ctx, std::size_t chunk) {
  const obs::CounterMove move(ctx->tallies[chunk]);
  quotient::IncrementalEvaluator::Scratch scratch(*ctx->eval);
  const std::size_t end =
      std::min(ctx->numPairs, (chunk + 1) * kPairsPerChunk);
  for (std::size_t idx = chunk * kPairsPerChunk; idx < end; ++idx) {
    const BlockId a = ctx->nodes[ctx->pairs[idx].i];
    const BlockId b = ctx->nodes[ctx->pairs[idx].j];
    const ProcessorId pa = ctx->q->node(a).proc;
    const ProcessorId pb = ctx->q->node(b).proc;
    const quotient::ProcOverride overrides[2] = {{a, pb}, {b, pa}};
    ctx->makespans[idx] = ctx->eval->probeAssign(scratch, overrides);
  }
}

/// One task per chunk, bound to the innermost enclosing team: threads of
/// that team that are idle (e.g. sweep threads whose arms finished) take
/// chunks. Returns when every chunk is done.
void scanChunks(const ScanCtx* ctx, std::int64_t numChunks) {
#pragma omp taskloop grainsize(1)
  for (std::int64_t c = 0; c < numChunks; ++c) {
    scanChunk(ctx, static_cast<std::size_t>(c));
  }
}

/// Fills `makespans` with the probe of every pair and charges the probes'
/// counts to the calling thread, whichever threads ran them.
void scanPairs(const quotient::IncrementalEvaluator& eval,
               const quotient::QuotientGraph& q,
               const std::vector<BlockId>& nodes,
               const std::vector<PairCandidate>& pairs,
               std::vector<double>& makespans,
               std::vector<obs::CounterTally>& tallies) {
  const std::size_t numChunks =
      (pairs.size() + kPairsPerChunk - 1) / kPairsPerChunk;
  makespans.assign(pairs.size(), std::numeric_limits<double>::infinity());
  tallies.assign(numChunks, obs::CounterTally{});
  ScanCtx ctx;
  ctx.eval = &eval;
  ctx.q = &q;
  ctx.nodes = nodes.data();
  ctx.pairs = pairs.data();
  ctx.numPairs = pairs.size();
  ctx.makespans = makespans.data();
  ctx.tallies = tallies.data();
  if (numChunks == 1) {
    scanChunk(&ctx, 0);  // a small scan stays on this thread, no task
  } else if (numChunks > 1 && omp_in_parallel()) {
    scanChunks(&ctx, static_cast<std::int64_t>(numChunks));
  } else if (numChunks > 1) {
    // Top level: open a team so a single-k' solve still gets every core.
#pragma omp parallel
#pragma omp single
    scanChunks(&ctx, static_cast<std::int64_t>(numChunks));
  }
  for (const obs::CounterTally& tally : tallies) obs::addTally(tally);
}

}  // namespace

SwapStepResult improveBySwaps(quotient::QuotientGraph& q,
                              const platform::Cluster& cluster,
                              const SwapStepConfig& cfg) {
  SwapStepResult result;
  // The incremental evaluator prices every probe by cone repair; without it
  // (the fullReevaluation reference) each probe is a full recompute of the
  // probed quotient. Pricing, the critical path and the commit are the only
  // steps that differ between the two.
  std::optional<quotient::IncrementalEvaluator> eval;
  if (!cfg.fullReevaluation) eval.emplace(q, cluster, cfg.comm);
  // Null comm keeps the uncontended recurrence byte-for-byte. Swaps and
  // moves leave the topology alone, so every recompute has a value.
  const auto recompute = [&] {
    const std::optional<double> makespan =
        quotient::makespanValue(q, cluster, cfg.comm);
    assert(makespan.has_value() && "swap step requires an acyclic quotient");
    return *makespan;
  };
  result.makespan = eval ? eval->makespan() : recompute();

  const std::vector<BlockId> nodes = q.aliveNodes();

  if (cfg.enableSwaps) {
    // Algorithm 5 with materialized probes: each round prices its
    // candidate pairs, then replays the sequential acceptance rule over the
    // stored makespans. The evaluator prices the pairs as tasks on the
    // enclosing team (probes only write their chunk's scratch and slots),
    // so the committed swap sequence is bit-identical for any OpenMP thread
    // count, and identical to the reference's.
    //
    // Under the null model the evaluator skips the feasible pairs that
    // swapCanShortenPath rejects: their probes could never pass the
    // acceptance rule. Fair share couples transfers globally, so the path
    // argument fails there. The reference probes every feasible pair, which
    // keeps the differential fuzz checking the cut.
    const bool prunePairs = eval && cfg.comm == nullptr;
    std::vector<char> onPath;
    std::vector<PairCandidate> pairs;
    std::vector<double> makespans;
    std::vector<obs::CounterTally> tallies;
    for (std::uint32_t round = 0; round < kMaxSwapRounds; ++round) {
      if (prunePairs) {
        onPath.assign(q.numSlots(), 0);
        for (const BlockId b : eval->criticalPath()) onPath[b] = 1;
      }
      pairs.clear();
      std::uint64_t pruned = 0;
      for (std::uint32_t i = 0; i < nodes.size(); ++i) {
        for (std::uint32_t j = i + 1; j < nodes.size(); ++j) {
          const BlockId a = nodes[i];
          const BlockId b = nodes[j];
          const ProcessorId pa = q.node(a).proc;
          const ProcessorId pb = q.node(b).proc;
          if (pa == pb) continue;
          // An equal-speed swap cannot move the makespan: every transfer
          // crosses the one shared link wherever its blocks run.
          if (cluster.speed(pa) == cluster.speed(pb)) continue;
          // Feasible iff each block fits the other's processor memory.
          if (q.node(a).memReq > cluster.memory(pb) ||
              q.node(b).memReq > cluster.memory(pa)) {
            continue;
          }
          if (prunePairs && !swapCanShortenPath(onPath, a, b, cluster.speed(pa),
                                                cluster.speed(pb))) {
            ++pruned;
            continue;
          }
          pairs.push_back({i, j});
        }
      }
      const obs::Span roundSpan(
          "swap.scan_round", "round=" + std::to_string(round) +
                                 " pairs=" + std::to_string(pairs.size()));
      obs::add(obs::Counter::kSwapRounds);
      obs::add(obs::Counter::kSwapPairsProbed, pairs.size());
      obs::add(obs::Counter::kSwapPairsPruned, pruned);
      if (eval) {
        scanPairs(*eval, q, nodes, pairs, makespans, tallies);
      } else {
        // The reference swaps each pair in place, recomputes and restores,
        // one pair after another on this thread: it shares nothing with
        // the tasked scan it checks.
        makespans.resize(pairs.size());
        for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
          const BlockId a = nodes[pairs[idx].i];
          const BlockId b = nodes[pairs[idx].j];
          const ProcessorId pa = q.node(a).proc;
          const ProcessorId pb = q.node(b).proc;
          q.setProcessor(a, pb);
          q.setProcessor(b, pa);
          makespans[idx] = recompute();
          q.setProcessor(a, pa);
          q.setProcessor(b, pb);
        }
      }
      double bestMakespan = result.makespan;
      BlockId bestA = quotient::kNoBlock;
      BlockId bestB = quotient::kNoBlock;
      for (std::size_t idx = 0; idx < pairs.size(); ++idx) {
        if (makespans[idx] < bestMakespan - 1e-12) {
          bestMakespan = makespans[idx];
          bestA = nodes[pairs[idx].i];
          bestB = nodes[pairs[idx].j];
        }
      }
      if (bestA == quotient::kNoBlock) break;  // no improving swap exists
      const ProcessorId pa = q.node(bestA).proc;
      const ProcessorId pb = q.node(bestB).proc;
      q.setProcessor(bestA, pb);
      q.setProcessor(bestB, pa);
      if (eval) {
        const BlockId dirty[2] = {bestA, bestB};
        eval->commitAssign(dirty);
        assert(eval->makespan() == bestMakespan);
      }
      result.makespan = bestMakespan;
      ++result.swapsCommitted;
      obs::add(obs::Counter::kSwapsCommitted);
    }
  }

  if (cfg.enableIdleMoves) {
    // Idle processors exist in particular when the partitioner produced
    // fewer blocks than processors; move critical-path blocks to faster
    // idle processors while that improves the makespan.
    quotient::IncrementalEvaluator::Scratch scratch;
    if (eval) scratch = quotient::IncrementalEvaluator::Scratch(*eval);
    std::set<ProcessorId> idle;
    for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) idle.insert(p);
    for (const BlockId b : nodes) idle.erase(q.node(b).proc);

    std::set<BlockId> moved;
    bool progress = true;
    while (progress && !idle.empty()) {
      progress = false;
      // The committed critical path. The evaluator derives it from its
      // cached passes (bit-identical to computeMakespan's, tie-breaks
      // included); taken by value, since a committed move below
      // invalidates that cache while this loop is still live.
      const std::vector<BlockId> path =
          eval ? eval->criticalPath()
               : quotient::computeMakespan(q, cluster, cfg.comm).criticalPath;
      for (const BlockId b : path) {
        if (moved.count(b) > 0) continue;
        const ProcessorId from = q.node(b).proc;
        // Fastest idle processor that holds the block and beats the current
        // speed; ties resolved toward larger memory, then lower id.
        ProcessorId best = platform::kNoProcessor;
        for (const ProcessorId p : idle) {
          if (cluster.speed(p) <= cluster.speed(from)) continue;
          if (q.node(b).memReq > cluster.memory(p)) continue;
          if (best == platform::kNoProcessor ||
              cluster.speed(p) > cluster.speed(best) ||
              (cluster.speed(p) == cluster.speed(best) &&
               cluster.memory(p) > cluster.memory(best))) {
            best = p;
          }
        }
        if (best == platform::kNoProcessor) continue;
        double makespan;
        if (eval) {
          const quotient::ProcOverride overrides[1] = {{b, best}};
          makespan = eval->probeAssign(scratch, overrides);
        } else {
          q.setProcessor(b, best);
          makespan = recompute();
          q.setProcessor(b, from);
        }
        if (makespan < result.makespan - 1e-12) {
          q.setProcessor(b, best);
          if (eval) {
            const BlockId dirty[1] = {b};
            eval->commitAssign(dirty);
          }
          idle.erase(best);
          idle.insert(from);
          moved.insert(b);
          result.makespan = makespan;
          ++result.idleMovesCommitted;
          obs::add(obs::Counter::kSwapIdleMoves);
          progress = true;
          break;  // critical path changed; recompute it
        }
      }
    }
  }
  return result;
}

}  // namespace dagpm::scheduler
