#pragma once
// Shared helpers for the test suite: thin wrappers over the library's
// random DAG generators, brute-force peak-memory search used as the
// ground truth for the SP scheduler and the exact DP, and strict lookups
// into exported bench documents.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <numeric>
#include <string>
#include <vector>

#include <omp.h>

#include "experiments/export.hpp"
#include "graph/dag.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "graph/topology.hpp"
#include "memory/simulate.hpp"
#include "platform/cluster.hpp"
#include "resched/resched.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/daghetpart.hpp"
#include "sim/engine.hpp"

namespace dagpm::test {

/// One FNV-1a step over the eight bytes of `word`, low byte first (seed
/// `h` with 0xcbf29ce484222325). Pinned-hash tests fold results through it.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Seeds 1..n, where n defaults to `defaultCount` and can be raised (or
/// lowered) via DAGPM_FUZZ_ITERS so nightly CI can crank up the coverage.
/// Parameterized suites read it at registration, so the variable must be
/// set both when gtest lists the tests and when it runs them.
inline std::vector<std::uint64_t> fuzzSeeds(int defaultCount) {
  int count = defaultCount;
  if (const char* iters = std::getenv("DAGPM_FUZZ_ITERS");
      iters != nullptr && *iters != '\0') {
    // A malformed value keeps the default rather than silently collapsing
    // coverage to one seed (atoi returns 0 on garbage).
    if (const int parsed = std::atoi(iters); parsed > 0) count = parsed;
  }
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(count));
  std::iota(seeds.begin(), seeds.end(), std::uint64_t{1});
  return seeds;
}

/// The exported JSON row whose key fields equal `key`; nullptr when absent.
inline const support::JsonValue* findRow(
    const experiments::BenchExport& exported,
    const std::map<std::string, std::string>& key) {
  for (const support::JsonValue& row : exported.rows) {
    if (std::ranges::all_of(key, [&](const auto& field) {
          return row.stringOr(field.first, "") == field.second;
        })) {
      return &row;
    }
  }
  return nullptr;
}

/// The number `key` of an exported JSON row; a test failure and NaN (which
/// fails every comparison) when the row has no such number.
inline double number(const support::JsonValue& row, const std::string& key) {
  const support::JsonValue* value = row.find(key);
  if (value == nullptr || !value->isNumber()) {
    ADD_FAILURE() << "exported row has no number " << key;
    return std::nan("");
  }
  return value->asNumber();
}

/// The bit pattern of `x`, for hashing doubles exactly.
inline std::uint64_t bitsOf(double x) {
  return std::bit_cast<std::uint64_t>(x);
}

/// Folds what the online repair decided in `run` into `h`: the final
/// makespan, every repair record's projections and move, swap, merge and
/// evacuation counts, and the final schedule's block and processor maps.
inline std::uint64_t hashRepairOutcome(std::uint64_t h,
                                       const resched::RescheduleResult& run) {
  h = fnv1a(h, run.ok ? 1 : 0);
  h = fnv1a(h, bitsOf(run.finalMakespan));
  h = fnv1a(h, run.repairs.size());
  for (const resched::RepairRecord& r : run.repairs) {
    h = fnv1a(h, r.accepted ? 1 : 0);
    h = fnv1a(h, bitsOf(r.projectedBefore));
    h = fnv1a(h, bitsOf(r.projectedAfter));
    h = fnv1a(h, static_cast<std::uint64_t>(r.moves));
    h = fnv1a(h, static_cast<std::uint64_t>(r.swaps));
    h = fnv1a(h, static_cast<std::uint64_t>(r.merges));
    h = fnv1a(h, static_cast<std::uint64_t>(r.evacuations));
  }
  h = fnv1a(h, run.finalSchedule.blockOf.size());
  for (const std::uint32_t b : run.finalSchedule.blockOf) h = fnv1a(h, b);
  h = fnv1a(h, run.finalSchedule.procOfBlock.size());
  for (const platform::ProcessorId p : run.finalSchedule.procOfBlock) {
    h = fnv1a(h, p);
  }
  return h;
}

/// Random layered DAG (see graph::randomLayeredDag).
inline graph::Dag randomLayeredDag(int layers, int width, int maxIn,
                                   std::uint64_t seed) {
  graph::LayeredDagConfig cfg;
  cfg.layers = layers;
  cfg.maxWidth = width;
  cfg.maxInDegree = maxIn;
  cfg.seed = seed;
  return graph::randomLayeredDag(cfg);
}

/// Random two-terminal series-parallel DAG (see graph::randomSpDag).
inline graph::Dag randomSpDag(int targetSize, std::uint64_t seed) {
  graph::SpDagConfig cfg;
  cfg.targetSize = targetSize;
  cfg.seed = seed;
  return graph::randomSpDag(cfg);
}

/// A 6-task chain 0 -> 1 -> 2 -> 3 -> 4 -> 5 whose edge 3 -> 1 closes the
/// cycle 1 -> 2 -> 3 -> 1: no workflow, and every scheduler must reject it.
inline graph::Dag cyclicWorkflow() {
  graph::Dag g;
  for (int v = 0; v < 6; ++v) g.addVertex(1.0 + v, 1.0);
  for (graph::VertexId v = 0; v + 1 < 6; ++v) g.addEdge(v, v + 1, 1.0);
  g.addEdge(3, 1, 1.0);
  return g;
}

/// Brute force: minimum peak over all topological orders (tiny graphs only).
inline double bruteForceMinPeak(const graph::SubDag& sub) {
  const std::size_t n = sub.dag.numVertices();
  std::vector<graph::VertexId> order;
  std::vector<bool> used(n, false);
  std::vector<std::size_t> remainingParents(n);
  for (graph::VertexId v = 0; v < n; ++v) {
    remainingParents[v] = sub.dag.inDegree(v);
  }
  const memory::BlockCosts costs(sub);
  double best = std::numeric_limits<double>::infinity();
  auto recurse = [&](auto&& self) -> void {
    if (order.size() == n) {
      best = std::min(best, memory::simulateBlockOrder(costs, order).peak);
      return;
    }
    for (graph::VertexId v = 0; v < n; ++v) {
      if (used[v] || remainingParents[v] != 0) continue;
      used[v] = true;
      order.push_back(v);
      for (const graph::EdgeId e : sub.dag.outEdges(v)) {
        --remainingParents[sub.dag.edge(e).dst];
      }
      self(self);
      for (const graph::EdgeId e : sub.dag.outEdges(v)) {
        ++remainingParents[sub.dag.edge(e).dst];
      }
      order.pop_back();
      used[v] = false;
    }
  };
  recurse(recurse);
  return best;
}

/// Runs `fn` with the OpenMP thread count set to `threads` and restores the
/// caller's count afterwards; returns what `fn` returns.
template <typename Fn>
auto withOmpThreads(int threads, Fn&& fn) {
  const int before = omp_get_max_threads();
  omp_set_num_threads(threads);
  auto result = fn();
  omp_set_num_threads(before);
  return result;
}

/// Wraps a whole Dag as a SubDag with no boundary (identity mapping).
inline graph::SubDag wholeDagAsSub(const graph::Dag& g) {
  std::vector<graph::VertexId> all(g.numVertices());
  for (graph::VertexId v = 0; v < g.numVertices(); ++v) all[v] = v;
  return graph::inducedSubgraph(g, all);
}

/// A fuzzed workflow scheduled by both algorithms on a memory-tight
/// heterogeneous 6-processor cluster. On roomy clusters the schedulers put
/// small fuzz workflows into one block, which pins the moment it starts and
/// leaves the online rescheduler nothing to repair; tight memories force
/// genuinely partitioned multi-block schedules — the paper's regime, and
/// the one the resched/splice tests need to exercise.
struct ScheduledFuzzCase {
  graph::Dag dag;
  platform::Cluster cluster;
  scheduler::ScheduleResult part;
  scheduler::ScheduleResult mem;
};

/// The memory-tight heterogeneous cluster of makeTightFuzzCase, with
/// `numProcs` processors: speeds 1, 1.5 and 2 in turn, memories 1.5 and 1.8
/// times the workflow's largest task requirement in turn.
inline platform::Cluster tightCluster(const graph::Dag& dag, int numProcs) {
  const double mem = dag.maxTaskMemoryRequirement() * 1.5;
  std::vector<platform::Processor> procs;
  for (int p = 0; p < numProcs; ++p) {
    procs.push_back({"p" + std::to_string(p), 1.0 + 0.5 * (p % 3),
                     mem * (1.0 + 0.2 * (p % 2))});
  }
  return platform::Cluster(std::move(procs), 2.0);
}

inline ScheduledFuzzCase makeTightFuzzCase(std::uint64_t dagSeed,
                                           std::uint64_t schedulerSeed) {
  ScheduledFuzzCase fc;
  fc.dag = randomLayeredDag(8, 5, 3, dagSeed);
  fc.cluster = tightCluster(fc.dag, 6);
  scheduler::DagHetPartConfig cfg;
  cfg.seed = schedulerSeed;
  fc.part = scheduler::dagHetPart(fc.dag, fc.cluster, cfg);
  fc.mem = scheduler::dagHetMem(fc.dag, fc.cluster, {});
  return fc;
}

/// SimObserver pausing the engine at every `period`-th task finish.
class PauseEveryNthFinish final : public sim::SimObserver {
 public:
  explicit PauseEveryNthFinish(int period) : period_(period) {}
  sim::ObserverAction onTaskFinish(graph::VertexId, double) override {
    return ++count_ % period_ == 0 ? sim::ObserverAction::kPause
                                   : sim::ObserverAction::kContinue;
  }

 private:
  int period_;
  int count_ = 0;
};

}  // namespace dagpm::test
