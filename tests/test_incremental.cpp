// Tests for quotient::IncrementalEvaluator (the Step-3/4 delta-evaluation
// engine) and its integration into the swap/merge steps: bit-identity with
// the full recompute, probe purity, the cycle-check equivalence, the
// equal-speed-prune placement-invariance guard, and end-to-end agreement of
// the incremental pipeline with the fullReevaluation reference.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>

#include "partition/partitioner.hpp"
#include "quotient/incremental.hpp"
#include "quotient/timeline.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/merge_step.hpp"
#include "scheduler/swap_step.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dagpm::quotient {
namespace {

using graph::Dag;
using platform::ProcessorId;

struct Case {
  Dag dag;
  std::vector<std::uint32_t> blockOf;
  std::uint32_t numBlocks = 0;
  platform::Cluster cluster;
};

/// A random partitioned workflow on a heterogeneous cluster with procs
/// assigned round-robin (memories large enough that swaps stay feasible).
Case makeCase(std::uint64_t seed, std::uint32_t parts, int procs = 6) {
  Case c;
  c.dag = test::randomLayeredDag(7, 5, 3, seed);
  partition::PartitionConfig pcfg;
  pcfg.numParts = parts;
  pcfg.seed = seed;
  const auto pr = partition::partitionAcyclic(c.dag, pcfg);
  c.blockOf = pr.blockOf;
  c.numBlocks = pr.numBlocks;
  std::vector<platform::Processor> ps;
  for (int p = 0; p < procs; ++p) {
    ps.push_back({"p" + std::to_string(p), 1.0 + 0.5 * (p % 3), 1e9});
  }
  c.cluster = platform::Cluster(std::move(ps), 2.0);
  return c;
}

QuotientGraph buildQuotient(const Case& c, bool assignAll = true) {
  QuotientGraph q(c.dag, c.blockOf, c.numBlocks);
  std::uint32_t i = 0;
  for (const BlockId b : q.aliveNodes()) {
    if (assignAll || i % 3 != 0) {  // leave every third block unassigned
      q.setProcessor(
          b, static_cast<ProcessorId>(i % c.cluster.numProcessors()));
    }
    q.setMemReq(b, 1.0);
    ++i;
  }
  return q;
}

TEST(IncrementalEvaluator, CriticalPathFollowsLongChainToTheSink) {
  // 64-task chains, one block per task, on the large cluster. Above a
  // makespan of 10^4 one ulp of a bottom weight exceeds 10^-12, so a walk
  // that compares child terms against bottom - work/speed with an absolute
  // tolerance stops early (seeds 4, 7 and 10 here). The whole chain is the
  // critical path.
  constexpr std::uint32_t kTasks = 64;
  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kLarge);
  std::vector<std::uint32_t> blockOf(kTasks);
  std::vector<BlockId> chain(kTasks);
  for (std::uint32_t i = 0; i < kTasks; ++i) blockOf[i] = chain[i] = i;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Dag g;
    support::Rng rng(seed);
    for (std::uint32_t i = 0; i < kTasks; ++i) {
      g.addVertex(10.0 * static_cast<double>(rng.uniformInt(1, 1000)), 1.0);
      if (i > 0) {
        g.addEdge(i - 1, i, static_cast<double>(rng.uniformInt(1, 10)));
      }
    }
    QuotientGraph q(g, blockOf, kTasks);
    for (const BlockId b : q.aliveNodes()) {
      q.setProcessor(b, static_cast<ProcessorId>(b % cluster.numProcessors()));
    }
    const MakespanResult ms = computeMakespan(q, cluster);
    ASSERT_TRUE(ms.acyclic);
    ASSERT_GE(ms.makespan, 1e4);
    EXPECT_EQ(ms.criticalPath, chain) << "seed " << seed;
    EXPECT_EQ(IncrementalEvaluator(q, cluster).criticalPath(), chain)
        << "seed " << seed;
    const comm::UncontendedCommModel uncontended;
    EXPECT_EQ(computeMakespan(q, cluster, &uncontended).criticalPath, chain)
        << "seed " << seed;
  }
}

TEST(IncrementalEvaluator, RebuildMatchesFullEvaluation) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Case c = makeCase(seed, 8);
    QuotientGraph q = buildQuotient(c, seed % 2 == 0);
    const IncrementalEvaluator eval(q, c.cluster);
    const auto full = makespanValue(q, c.cluster);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(eval.makespan(), *full);
    const MakespanResult ms = computeMakespan(q, c.cluster);
    EXPECT_EQ(eval.criticalPath(), ms.criticalPath);
    EXPECT_EQ(eval.makespan(), computeTimeline(q, c.cluster).makespan);
  }
}

/// The heaviest path work of `q` by a forward pass (the evaluator walks
/// backwards): the longest work-weighted path ending at each block.
double forwardHeaviestPathWork(const QuotientGraph& q) {
  const std::optional<std::vector<BlockId>> order = q.topologicalOrder();
  std::vector<double> upTo(q.numSlots(), 0.0);
  double heaviest = 0.0;
  for (const BlockId b : *order) {
    double before = 0.0;
    for (const auto& [parent, cost] : q.in(b)) {
      before = std::max(before, upTo[parent]);
    }
    upTo[b] = before + q.node(b).work;
    heaviest = std::max(heaviest, upTo[b]);
  }
  return heaviest;
}

TEST(IncrementalEvaluator, HeaviestPathWorkGrowsUnderMergesOnly) {
  // Both pricings: the value is the longest work path, processor changes
  // leave it alone, and a merge can only raise it (the merged quotient is
  // a contraction of the committed one).
  for (const comm::CommCostModel* model :
       {static_cast<const comm::CommCostModel*>(nullptr),
        &comm::fairShareCommModel()}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
      const Case c = makeCase(seed, 8);
      QuotientGraph q = buildQuotient(c);
      IncrementalEvaluator eval(q, c.cluster, model);
      const double initial = eval.heaviestPathWork();
      EXPECT_NEAR(initial, forwardHeaviestPathWork(q), 1e-12 * initial);

      const std::vector<BlockId> alive = q.aliveNodes();
      const ProcessorId p0 = q.node(alive[0]).proc;
      q.setProcessor(alive[0], q.node(alive[1]).proc);
      q.setProcessor(alive[1], p0);
      const BlockId swapped[2] = {alive[0], alive[1]};
      eval.commitAssign(swapped);
      EXPECT_EQ(eval.heaviestPathWork(), initial);

      // Merge along edges until one block is left.
      double before = initial;
      for (bool merged = true; merged;) {
        merged = false;
        for (const BlockId b : q.aliveNodes()) {
          const quotient::AdjSpan out = q.out(b);
          if (out.empty()) continue;
          const BlockId child = out.begin()->first;
          if (eval.mergeWouldCreateCycle(b, child)) continue;
          q.merge(b, child);
          eval.rebuild();
          EXPECT_GE(eval.heaviestPathWork(), before) << "seed " << seed;
          EXPECT_NEAR(eval.heaviestPathWork(), forwardHeaviestPathWork(q),
                      1e-12 * eval.heaviestPathWork());
          before = eval.heaviestPathWork();
          merged = true;
          break;
        }
      }
    }
  }
}

TEST(IncrementalEvaluator, ProbeAssignMatchesFullRecomputeBitExact) {
  const Case c = makeCase(5, 9);
  QuotientGraph q = buildQuotient(c);
  const IncrementalEvaluator eval(q, c.cluster);
  IncrementalEvaluator::Scratch scratch(eval);
  for (const BlockId b : q.aliveNodes()) {
    for (ProcessorId p = 0; p < c.cluster.numProcessors(); ++p) {
      const ProcOverride overrides[1] = {{b, p}};
      const double probed = eval.probeAssign(scratch, overrides);
      const ProcessorId saved = q.node(b).proc;
      q.setProcessor(b, p);
      const auto full = makespanValue(q, c.cluster);
      q.setProcessor(b, saved);
      ASSERT_TRUE(full.has_value());
      EXPECT_EQ(probed, *full) << "block " << b << " -> proc " << p;
    }
  }
  // Probes never touched the committed cache.
  EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster));
}

TEST(IncrementalEvaluator, SwapProbesMatchFullRecompute) {
  const Case c = makeCase(7, 10);
  QuotientGraph q = buildQuotient(c);
  const IncrementalEvaluator eval(q, c.cluster);
  IncrementalEvaluator::Scratch scratch(eval);
  const auto nodes = q.aliveNodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const BlockId a = nodes[i], b = nodes[j];
      const ProcessorId pa = q.node(a).proc, pb = q.node(b).proc;
      const ProcOverride overrides[2] = {{a, pb}, {b, pa}};
      const double probed = eval.probeAssign(scratch, overrides);
      q.setProcessor(a, pb);
      q.setProcessor(b, pa);
      const auto full = makespanValue(q, c.cluster);
      q.setProcessor(a, pa);
      q.setProcessor(b, pb);
      ASSERT_TRUE(full.has_value());
      EXPECT_EQ(probed, *full);
    }
  }
}

TEST(IncrementalEvaluator, CommitAssignTracksFullEvaluation) {
  const Case c = makeCase(11, 8);
  QuotientGraph q = buildQuotient(c);
  IncrementalEvaluator eval(q, c.cluster);
  support::Rng rng(11);
  const auto nodes = q.aliveNodes();
  for (int step = 0; step < 40; ++step) {
    const BlockId b = nodes[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    const ProcessorId p = static_cast<ProcessorId>(rng.uniformInt(
        0, static_cast<std::int64_t>(c.cluster.numProcessors()) - 1));
    q.setProcessor(b, p);
    const BlockId dirty[1] = {b};
    eval.commitAssign(dirty);
    EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster));
    const MakespanResult ms = computeMakespan(q, c.cluster);
    EXPECT_EQ(eval.criticalPath(), ms.criticalPath);
  }
}

TEST(IncrementalEvaluator, MergeProbesAndCycleCheckMatchFullPath) {
  const Case c = makeCase(13, 10);
  QuotientGraph q = buildQuotient(c);
  const IncrementalEvaluator eval(q, c.cluster);
  IncrementalEvaluator::Scratch scratch(eval);
  std::vector<BlockId> seeds, dead;
  const auto nodes = q.aliveNodes();
  int acyclicMerges = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = 0; j < nodes.size(); ++j) {
      if (i == j) continue;
      const BlockId host = nodes[i], nu = nodes[j];
      const bool predicted = eval.mergeWouldCreateCycle(host, nu);
      MergeTransaction tx = q.merge(host, nu);
      ASSERT_EQ(predicted, !q.isAcyclic())
          << "merge " << nu << " into " << host;
      if (!predicted) {
        ++acyclicMerges;
        IncrementalEvaluator::seedsOfMerge(tx, seeds, dead);
        const double probed = eval.probeMerged(scratch, seeds, dead);
        const auto full = makespanValue(q, c.cluster);
        ASSERT_TRUE(full.has_value());
        EXPECT_EQ(probed, *full);
      }
      q.rollback(std::move(tx));
      EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster));
    }
  }
  EXPECT_GT(acyclicMerges, 0);
}

TEST(IncrementalEvaluator, ContendedProbesMatchModelEvaluation) {
  const Case c = makeCase(17, 9);
  QuotientGraph q = buildQuotient(c);
  const comm::CommCostModel& model = comm::fairShareCommModel();
  IncrementalEvaluator eval(q, c.cluster, &model);
  IncrementalEvaluator::Scratch scratch(eval);
  EXPECT_EQ(eval.makespan(), *makespanValue(q, c.cluster, &model));
  const auto nodes = q.aliveNodes();
  for (std::size_t i = 0; i + 1 < nodes.size(); i += 2) {
    const BlockId a = nodes[i], b = nodes[i + 1];
    const ProcessorId pa = q.node(a).proc, pb = q.node(b).proc;
    const ProcOverride overrides[2] = {{a, pb}, {b, pa}};
    const double probed = eval.probeAssign(scratch, overrides);
    q.setProcessor(a, pb);
    q.setProcessor(b, pa);
    const auto full = makespanValue(q, c.cluster, &model);
    ASSERT_TRUE(full.has_value());
    EXPECT_EQ(probed, *full);
    // Commit the swap and check the patched-fluid cache stays in sync.
    const BlockId dirty[2] = {a, b};
    eval.commitAssign(dirty);
    EXPECT_EQ(eval.makespan(), *full);
    const MakespanResult ms = computeMakespan(q, c.cluster, &model);
    EXPECT_EQ(eval.criticalPath(), ms.criticalPath);
  }
}

}  // namespace
}  // namespace dagpm::quotient

namespace dagpm::scheduler {
namespace {

using quotient::BlockId;

TEST(SwapStepPrune, PlacementInvariantModelsStillPruneEqualSpeedSwaps) {
  // Three singleton blocks, A -> C over a heavy edge and B isolated, on two
  // equal-speed processors. Every transfer crosses the one shared link
  // wherever its blocks run, so no swap can help and none is committed.
  graph::Dag g;
  g.addVertex(1.0, 1.0);
  g.addVertex(1.0, 1.0);
  g.addVertex(1.0, 1.0);
  g.addEdge(0, 2, 100.0);
  const std::vector<std::uint32_t> blockOf = {0, 1, 2};
  std::vector<platform::Processor> procs(2, {"p", 1.0, 1e9});
  const platform::Cluster cluster(std::move(procs), 1.0);
  quotient::QuotientGraph q(g, blockOf, 3);
  q.setProcessor(0, 0);
  q.setProcessor(1, 0);
  q.setProcessor(2, 1);
  for (BlockId b = 0; b < 3; ++b) q.setMemReq(b, 1.0);
  SwapStepConfig cfg;
  cfg.comm = &comm::fairShareCommModel();
  cfg.enableIdleMoves = false;
  const SwapStepResult result = improveBySwaps(q, cluster, cfg);
  EXPECT_EQ(result.swapsCommitted, 0u);
}

TEST(Incremental, DagHetPartMatchesFullReevaluationReference) {
  // End-to-end: the whole pipeline (Steps 1-4 plus the k' sweep) must
  // produce bit-identical schedules with and without incremental
  // evaluation, under both cost models.
  for (const std::uint64_t seed : {3u, 9u, 21u}) {
    for (const bool aware : {false, true}) {
      const test::ScheduledFuzzCase sc =
          test::makeTightFuzzCase(seed * 57 + 5, seed);
      DagHetPartConfig cfg;
      cfg.seed = seed;
      cfg.options.contentionAware = aware;
      const ScheduleResult incremental =
          dagHetPart(sc.dag, sc.cluster, cfg);
      cfg.options.fullReevaluation = true;
      const ScheduleResult reference = dagHetPart(sc.dag, sc.cluster, cfg);
      ASSERT_EQ(incremental.feasible, reference.feasible)
          << "seed " << seed << " aware " << aware;
      if (!incremental.feasible) continue;
      EXPECT_EQ(incremental.makespan, reference.makespan);
      EXPECT_EQ(incremental.blockOf, reference.blockOf);
      EXPECT_EQ(incremental.procOfBlock, reference.procOfBlock);
      EXPECT_EQ(incremental.stats.swapsCommitted,
                reference.stats.swapsCommitted);
      EXPECT_EQ(incremental.stats.mergesCommitted,
                reference.stats.mergesCommitted);
    }
  }
}

}  // namespace
}  // namespace dagpm::scheduler
