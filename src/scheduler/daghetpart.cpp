#include "scheduler/daghetpart.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "graph/topology.hpp"
#include "obs/obs.hpp"
#include "quotient/quotient.hpp"
#include "scheduler/assignment.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/merge_step.hpp"
#include "scheduler/swap_step.hpp"

namespace dagpm::scheduler {

using graph::VertexId;

std::vector<std::uint32_t> sweepCandidates(KPrimeSweep sweep,
                                           std::uint32_t k) {
  std::vector<std::uint32_t> candidates;
  switch (sweep) {
    case KPrimeSweep::kFull:
      for (std::uint32_t kp = 1; kp <= k; ++kp) candidates.push_back(kp);
      break;
    case KPrimeSweep::kDoubling:
      for (std::uint32_t kp = 1; kp < k; kp *= 2) candidates.push_back(kp);
      candidates.push_back(k);
      break;
    case KPrimeSweep::kSingle:
      candidates.push_back(k);
      break;
  }
  return candidates;
}

namespace {

/// Arms with k' up to this form the sweep's first wave; their best makespan
/// is the threshold the later arms' Step 3 aborts against.
constexpr std::uint32_t kFirstWaveMaxKPrime = 8;
constexpr double kNoAbort = std::numeric_limits<double>::infinity();

/// Every entry point rejects a cyclic workflow before any step runs: the
/// steps assume a DAG and would crash or never return on a cycle.
void requireAcyclic(const graph::Dag& g, const char* entry) {
  if (!graph::isAcyclic(g)) {
    throw std::invalid_argument(std::string(entry) + ": cyclic workflow");
  }
}

/// One arm after Steps 1-2: what its Steps 3-4 continue from. The oracle's
/// memo carries over from Step 2 into Step 3.
struct Arm {
  Arm(const graph::Dag& g, const DagHetPartConfig& cfg)
      : oracle(g, cfg.oracle) {}
  memory::MemDagOracle oracle;
  std::optional<quotient::QuotientGraph> q;  // empty: nothing to schedule
  ScheduleStats stats;
  bool aborted = false;  // Step 3 crossed MergeStepConfig::abortAbove
};

/// Steps 1-2 of dagHetPartSingle on a workflow already checked to be
/// acyclic.
void partitionAndAssign(const graph::Dag& g, const platform::Cluster& cluster,
                        std::uint32_t kPrime, const DagHetPartConfig& cfg,
                        Arm& arm) {
  arm.stats.kPrime = kPrime;
  if (g.numVertices() == 0 || cluster.numProcessors() == 0) return;

  // --- Step 1: heterogeneity-oblivious acyclic partition into k' blocks.
  partition::PartitionResult initial;
  {
    const obs::Span span("daghetpart.step1_partition");
    partition::PartitionConfig pcfg;
    pcfg.numParts = kPrime;
    pcfg.epsilon = cfg.step1Epsilon;
    pcfg.seed = cfg.seed;
    pcfg.balance = cfg.step1Balance;
    initial = partition::partitionAcyclic(g, pcfg);
  }

  std::vector<std::vector<VertexId>> blocks(initial.numBlocks);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    blocks[initial.blockOf[v]].push_back(v);
  }

  // --- Step 2: memory-aware assignment (splits oversized blocks).
  AssignmentResult assignment;
  {
    const obs::Span span("daghetpart.step2_assign");
    AssignmentConfig acfg;
    acfg.seed = cfg.seed;
    assignment =
        biggestAssign(g, cluster, arm.oracle, std::move(blocks), acfg);
  }
  arm.stats.splitsPerformed = assignment.splitsPerformed;

  // Build the quotient graph over the Step-2 blocks.
  std::vector<std::uint32_t> blockOf(g.numVertices(), 0);
  for (std::uint32_t b = 0; b < assignment.blocks.size(); ++b) {
    for (const VertexId v : assignment.blocks[b].vertices) blockOf[v] = b;
  }
  quotient::QuotientGraph& q = arm.q.emplace(
      g, blockOf, static_cast<std::uint32_t>(assignment.blocks.size()));
  for (std::uint32_t b = 0; b < assignment.blocks.size(); ++b) {
    q.setProcessor(b, assignment.blocks[b].proc);
    q.setMemReq(b, assignment.blocks[b].memReq);
  }
}

/// Steps 3-4 of an arm that partitionAndAssign prepared. Step 3 gives up
/// (infeasible result, arm.aborted set) once its path-work bound exceeds
/// `abortAbove`.
ScheduleResult mergeAndSwap(const platform::Cluster& cluster,
                            const DagHetPartConfig& cfg, Arm& arm,
                            double abortAbove) {
  ScheduleResult result;
  result.stats = arm.stats;
  if (!arm.q) return result;
  quotient::QuotientGraph& q = *arm.q;

  // --- Step 3: merge unassigned blocks into assigned ones. Every sweep
  // candidate builds its own IncrementalEvaluator inside the steps (probe
  // caches are per-quotient), so the OpenMP-parallel k' sweep stays safe;
  // fullReevaluation prices both steps' probes with the full recompute
  // instead.
  const comm::CommCostModel* commModel = commModelFor(cfg.options);
  const bool fullReeval = useFullReevaluation(cfg.options);
  MergeStepConfig mcfg;
  mcfg.preferOffCriticalPath = cfg.preferOffCriticalPath;
  mcfg.anyHostFallback = cfg.anyHostFallback;
  mcfg.comm = commModel;
  mcfg.fullReevaluation = fullReeval;
  mcfg.abortAbove = abortAbove;
  MergeStepResult merge;
  {
    const obs::Span span("daghetpart.step3_merge");
    merge = mergeUnassignedToAssigned(q, cluster, arm.oracle, mcfg);
  }
  result.stats.mergesCommitted = merge.mergesCommitted;
  arm.aborted = merge.aborted;
  if (!merge.success) return result;  // infeasible (or pruned) for this k'

  // --- Step 4: swaps + idle-processor moves.
  SwapStepConfig scfg;
  scfg.enableSwaps = cfg.enableSwaps;
  scfg.enableIdleMoves = cfg.enableIdleMoves;
  scfg.comm = commModel;
  scfg.fullReevaluation = fullReeval;
  SwapStepResult swaps;
  {
    const obs::Span span("daghetpart.step4_swaps");
    swaps = improveBySwaps(q, cluster, scfg);
  }
  result.stats.swapsCommitted = swaps.swapsCommitted;
  result.stats.idleMovesCommitted = swaps.idleMovesCommitted;

  // Extract the final solution with compact block ids.
  ScheduleResult solved = scheduleOf(q, swaps.makespan);
  result.stats.numBlocks = solved.stats.numBlocks;
  solved.stats = result.stats;
  return solved;
}

/// dagHetPartSingle on a workflow already checked to be acyclic.
ScheduleResult runPipeline(const graph::Dag& g,
                           const platform::Cluster& cluster,
                           std::uint32_t kPrime, const DagHetPartConfig& cfg) {
  Arm arm(g, cfg);
  partitionAndAssign(g, cluster, kPrime, cfg, arm);
  return mergeAndSwap(cluster, cfg, arm, kNoAbort);
}

/// Everything the sweep's tasks share, as plain pointers (a task body that
/// captures its outputs in a lambda may get firstprivate copies of them).
/// Arms [0, firstWave) form the first wave; every later arm counts down
/// `waiting[i]` (its own Steps 1-2, and the whole first wave if there is
/// one) before its Steps 3-4 start.
struct SweepCtx {
  const graph::Dag* g = nullptr;
  const platform::Cluster* cluster = nullptr;
  const DagHetPartConfig* cfg = nullptr;
  const std::uint32_t* candidates = nullptr;
  std::size_t numArms = 0;
  std::size_t firstWave = 0;
  std::optional<Arm>* arms = nullptr;
  ScheduleResult* results = nullptr;
  std::atomic<int>* waiting = nullptr;  // one per arm; later arms only
  std::atomic<std::size_t> firstWaveLeft{0};
  // Best feasible first-wave makespan (+inf if none); written once, by the
  // thread that finishes the first wave, before any later arm is released.
  double incumbent = kNoAbort;
  int armParent = 0;  // span depth of the sweep span
};

void releaseLaterArm(SweepCtx* ctx, std::size_t i);

/// Steps 1-2 of arm `i`, and its Steps 3-4 too in the first wave.
void startArm(SweepCtx* ctx, std::size_t i) {
  {
    // Arm spans run on whatever OpenMP thread runs the task; the explicit
    // parent depth keeps logical nesting (and span.peak_depth) identical
    // for every OMP_NUM_THREADS.
    const obs::Span span("daghetpart.arm",
                         "k'=" + std::to_string(ctx->candidates[i]),
                         ctx->armParent);
    obs::add(obs::Counter::kSweepArms);
    Arm& arm = ctx->arms[i].emplace(*ctx->g, *ctx->cfg);
    partitionAndAssign(*ctx->g, *ctx->cluster, ctx->candidates[i], *ctx->cfg,
                       arm);
    if (i < ctx->firstWave) {
      ctx->results[i] = mergeAndSwap(*ctx->cluster, *ctx->cfg, arm, kNoAbort);
      ctx->arms[i].reset();
    }
  }
  if (i >= ctx->firstWave) {
    releaseLaterArm(ctx, i);
  } else if (ctx->firstWaveLeft.fetch_sub(1) == 1) {
    // The last first-wave arm: every first-wave result is written.
    for (std::size_t j = 0; j < ctx->firstWave; ++j) {
      const ScheduleResult& r = ctx->results[j];
      if (r.feasible) ctx->incumbent = std::min(ctx->incumbent, r.makespan);
    }
    for (std::size_t j = ctx->firstWave; j < ctx->numArms; ++j) {
      releaseLaterArm(ctx, j);
    }
  }
}

/// Steps 3-4 of later arm `i`, pruned against the first wave's best.
void finishLaterArm(SweepCtx* ctx, std::size_t i) {
  const obs::Span span("daghetpart.arm_steps34",
                       "k'=" + std::to_string(ctx->candidates[i]),
                       ctx->armParent);
  Arm& arm = *ctx->arms[i];
  ctx->results[i] = mergeAndSwap(*ctx->cluster, *ctx->cfg, arm,
                                 ctx->incumbent);
  if (arm.aborted) obs::add(obs::Counter::kSweepArmsPruned);
  ctx->arms[i].reset();
}

/// Counts one of later arm `i`'s prerequisites done; the last one starts
/// its Steps 3-4 as a task any thread of the team may take.
void releaseLaterArm(SweepCtx* ctx, std::size_t i) {
  if (ctx->waiting[i].fetch_sub(1) != 1) return;
#pragma omp task firstprivate(ctx, i)
  finishLaterArm(ctx, i);
}

ScheduleResult runSweep(const graph::Dag& g, const platform::Cluster& cluster,
                        const DagHetPartConfig& cfg) {
  const std::vector<std::uint32_t> candidates = sweepCandidates(
      cfg.sweep, static_cast<std::uint32_t>(cluster.numProcessors()));
  const std::size_t n = candidates.size();
  std::vector<ScheduleResult> results(n);
  std::vector<std::optional<Arm>> arms(n);
  std::vector<std::atomic<int>> waiting(n);

  const obs::Span sweepSpan("daghetpart.sweep", "arms=" + std::to_string(n));
  SweepCtx ctx;
  ctx.g = &g;
  ctx.cluster = &cluster;
  ctx.cfg = &cfg;
  ctx.candidates = candidates.data();
  ctx.numArms = n;
  // Candidates ascend, so the first wave is a prefix.
  while (ctx.firstWave < n &&
         candidates[ctx.firstWave] <= kFirstWaveMaxKPrime) {
    ++ctx.firstWave;
  }
  ctx.arms = arms.data();
  ctx.results = results.data();
  ctx.waiting = waiting.data();
  ctx.firstWaveLeft.store(ctx.firstWave);
  for (std::size_t i = ctx.firstWave; i < n; ++i) {
    waiting[i].store(ctx.firstWave > 0 ? 2 : 1);
  }
  ctx.armParent = sweepSpan.depth();
  SweepCtx* const shared = &ctx;

#pragma omp parallel if (n > 1)
#pragma omp single
  for (std::size_t i = 0; i < n; ++i) {
#pragma omp task firstprivate(shared, i)
    startArm(shared, i);
  }

  ScheduleResult best;
  for (ScheduleResult& r : results) {
    if (!r.feasible) continue;
    if (!best.feasible || r.makespan < best.makespan) best = std::move(r);
  }
  return best;
}

}  // namespace

ScheduleResult dagHetPartSingle(const graph::Dag& g,
                                const platform::Cluster& cluster,
                                std::uint32_t kPrime,
                                const DagHetPartConfig& cfg) {
  requireAcyclic(g, "dagHetPartSingle");
  return runPipeline(g, cluster, kPrime, cfg);
}

ScheduleResult dagHetPart(const graph::Dag& g, const platform::Cluster& cluster,
                          const DagHetPartConfig& cfg) {
  requireAcyclic(g, "dagHetPart");
  const obs::Span span("daghetpart.total");
  ScheduleResult best = runSweep(g, cluster, cfg);
  if (!best.feasible && cfg.memoryBalanceFallback &&
      cfg.step1Balance == partition::PartitionConfig::BalanceWeight::kWork) {
    // Work-balanced Step-1 blocks can split into memory-heavy singletons
    // that no remaining processor holds; memory-balanced blocks avoid that.
    DagHetPartConfig fallback = cfg;
    fallback.step1Balance =
        partition::PartitionConfig::BalanceWeight::kMemoryFootprint;
    best = runSweep(g, cluster, fallback);
  }
  best.stats.seconds = span.seconds();  // total time incl. the whole sweep
  return best;
}

ScheduleResult scheduleBest(const graph::Dag& g,
                            const platform::Cluster& cluster,
                            const DagHetPartConfig& cfg) {
  const obs::Span span("schedule.best");
  ScheduleResult part = dagHetPart(g, cluster, cfg);
  DagHetMemConfig memCfg;
  memCfg.oracle = cfg.oracle;
  ScheduleResult mem = dagHetMem(g, cluster, memCfg);
  ScheduleResult& winner =
      !part.feasible ? mem
      : (!mem.feasible || part.makespan <= mem.makespan) ? part
                                                         : mem;
  winner.stats.seconds = span.seconds();
  return winner;
}

}  // namespace dagpm::scheduler
