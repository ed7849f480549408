#pragma once
// Simulated-annealing / iterated-local-search refinement over the Step-3/4
// move set (ROADMAP item 3: optimality anchors).
//
// Starts from any feasible schedule (typically the DagHetPart/DagHetMem
// winner) and explores block-level swaps, idle moves, and merges, every
// probe served by quotient::IncrementalEvaluator — the same cone-repair
// path the constructive heuristics use, so accepting a move costs one
// commit, not a re-solve. Acceptance is the linear surrogate of Metropolis
// (accept a worsening of delta iff delta <= T * u with u uniform in [0,1)):
// transcendental-free on purpose, so gated baselines reproduce bit-exactly
// across standard libraries. Restarts draw from per-restart SplitMix64
// streams fixed up front; the winner is the lexicographically least
// (makespan, restart index), so the result is bit-reproducible for any
// OMP_NUM_THREADS. The refined schedule is never worse than the seed.

#include <cstdint>

#include "graph/dag.hpp"
#include "memory/oracle.hpp"
#include "platform/cluster.hpp"
#include "scheduler/solution.hpp"

namespace dagpm::anchor {

inline constexpr std::uint32_t kNoRestart = 0xffffffffu;

struct AnnealConfig {
  std::uint32_t restarts = 4;
  /// Annealing proposals per restart (starting at 5% of the seed makespan,
  /// cooled by 0.995 per proposal), followed by
  /// `descentSteps` zero-temperature proposals (the ILS polish: only
  /// strictly improving moves are accepted).
  std::uint32_t stepsPerRestart = 2000;
  std::uint32_t descentSteps = 500;
  std::uint64_t seed = 1;
  memory::OracleOptions oracle;
};

struct AnnealResult {
  /// Best schedule seen: the seed when no restart improved on it.
  scheduler::ScheduleResult schedule;
  double seedMakespan = 0.0;
  double refinedMakespan = 0.0;
  std::uint64_t proposed = 0;  ///< probes evaluated across all restarts
  std::uint64_t accepted = 0;  ///< moves committed across all restarts
  /// Restart that produced `schedule`, kNoRestart when the seed was kept.
  std::uint32_t winningRestart = kNoRestart;
};

/// Refines `seedSchedule` (must be feasible; returned unchanged otherwise).
AnnealResult refine(const graph::Dag& g, const platform::Cluster& cluster,
                    const scheduler::ScheduleResult& seedSchedule,
                    const AnnealConfig& cfg = {});

}  // namespace dagpm::anchor
