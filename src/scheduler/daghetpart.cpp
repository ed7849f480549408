#include "scheduler/daghetpart.hpp"

#include <algorithm>
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

/// Every entry point rejects a cyclic workflow before any step runs: the
/// steps assume a DAG and would crash or never return on a cycle.
void requireAcyclic(const graph::Dag& g, const char* entry) {
  if (!graph::isAcyclic(g)) {
    throw std::invalid_argument(std::string(entry) + ": cyclic workflow");
  }
}

/// dagHetPartSingle on a workflow already checked to be acyclic.
ScheduleResult runPipeline(const graph::Dag& g,
                           const platform::Cluster& cluster,
                           std::uint32_t kPrime, const DagHetPartConfig& cfg) {
  ScheduleResult result;
  result.stats.kPrime = kPrime;
  if (g.numVertices() == 0 || cluster.numProcessors() == 0) return result;

  const memory::MemDagOracle oracle(g, cfg.oracle);

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
    assignment = biggestAssign(g, cluster, oracle, std::move(blocks), acfg);
  }
  result.stats.splitsPerformed = assignment.splitsPerformed;

  // Build the quotient graph over the Step-2 blocks.
  std::vector<std::uint32_t> blockOf(g.numVertices(), 0);
  for (std::uint32_t b = 0; b < assignment.blocks.size(); ++b) {
    for (const VertexId v : assignment.blocks[b].vertices) blockOf[v] = b;
  }
  quotient::QuotientGraph q(
      g, blockOf, static_cast<std::uint32_t>(assignment.blocks.size()));
  for (std::uint32_t b = 0; b < assignment.blocks.size(); ++b) {
    q.setProcessor(b, assignment.blocks[b].proc);
    q.setMemReq(b, assignment.blocks[b].memReq);
  }

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
  MergeStepResult merge;
  {
    const obs::Span span("daghetpart.step3_merge");
    merge = mergeUnassignedToAssigned(q, cluster, oracle, mcfg);
  }
  result.stats.mergesCommitted = merge.mergesCommitted;
  if (!merge.success) return result;  // infeasible for this k'

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

ScheduleResult runSweep(const graph::Dag& g, const platform::Cluster& cluster,
                        const DagHetPartConfig& cfg) {
  const std::vector<std::uint32_t> candidates = sweepCandidates(
      cfg.sweep, static_cast<std::uint32_t>(cluster.numProcessors()));
  std::vector<ScheduleResult> results(candidates.size());

  const obs::Span sweepSpan("daghetpart.sweep",
                            "arms=" + std::to_string(candidates.size()));
  // Arm spans run on whatever OpenMP thread draws the iteration; the
  // explicit parent depth keeps logical nesting (and span.peak_depth)
  // identical for every OMP_NUM_THREADS.
  const int armParent = sweepSpan.depth();
  const auto runArm = [&](std::size_t i) {
    const obs::Span arm("daghetpart.arm",
                        "k'=" + std::to_string(candidates[i]), armParent);
    obs::add(obs::Counter::kSweepArms);
    results[i] = runPipeline(g, cluster, candidates[i], cfg);
  };

#pragma omp parallel for schedule(dynamic) if (candidates.size() > 1)
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    runArm(i);
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
