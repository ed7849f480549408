#pragma once
// Portfolio racer (ROADMAP item 3): runs a set of solver configurations —
// one DagHetPart arm per k' sweep candidate, the DagHetMem baseline, and
// SA-refinement arms — concurrently on an OpenMP worksharing loop and
// returns the best feasible schedule.
//
// Every arm runs single-threaded on one loop thread (the loop is the
// parallelism, exactly like service::SchedulerService jobs), so each arm's
// obs::ThreadCounterScope delta is its exact probe/merge/anneal work and
// DAGPM_TRACE shows one span per arm. Arms are deterministic and the
// winner is the lexicographically least (makespan, arm index) among the
// feasible outcomes, so the raced result is bit-identical to running the
// arms sequentially — for any thread count. The caller's OpenMP thread
// count is left as it was.
//
// Refinement arms start from the best heuristic arm (raced first, as their
// seed must be known), each with its own SplitMix64 stream.

#include <cstdint>
#include <string>
#include <vector>

#include "anchor/annealing.hpp"
#include "graph/dag.hpp"
#include "obs/obs.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/solution.hpp"

namespace dagpm::anchor {

inline constexpr std::uint32_t kNoArm = 0xffffffffu;

struct PortfolioArm {
  enum class Kind {
    kDagHetPartKPrime,  ///< dagHetPartSingle at a fixed k'
    kDagHetMem,         ///< the memory-first baseline
    kSaRefine,          ///< anneal::refine seeded with the heuristic winner
  };
  Kind kind = Kind::kDagHetPartKPrime;
  std::string name;        ///< span/attribution label, e.g. "daghetpart.k4"
  std::uint32_t kPrime = 0;   ///< kDagHetPartKPrime only
  std::uint64_t seed = 1;     ///< kSaRefine only: restart stream seed
};

struct PortfolioConfig {
  std::uint32_t saArms = 2;   ///< SA arms appended by defaultArms
  /// Base config of the heuristic arms.
  scheduler::DagHetPartConfig heuristic;
  /// Base config of the SA arms; the per-arm seed overrides `anneal.seed`.
  AnnealConfig anneal;
};

struct ArmOutcome {
  std::string name;
  bool feasible = false;
  double makespan = 0.0;
  double seconds = 0.0;  ///< wall-clock of the arm (not gated anywhere)
  scheduler::ScheduleResult schedule;
  /// This arm's exact counter deltas (empty unless DAGPM_STATS is on).
  std::vector<obs::CounterValue> counters;
};

struct PortfolioResult {
  scheduler::ScheduleResult schedule;  ///< best feasible arm's schedule
  std::uint32_t winningArm = kNoArm;   ///< index into `arms`
  std::vector<ArmOutcome> arms;        ///< in arm order, all raced arms
};

/// The standard arm set: one DagHetPart arm per sweepCandidates k', the
/// DagHetMem baseline, then cfg.saArms SA-refinement arms with seeds
/// anneal.seed, anneal.seed + 1, ...
std::vector<PortfolioArm> defaultArms(const platform::Cluster& cluster,
                                      const PortfolioConfig& cfg);

/// Races `arms` on an OpenMP loop, each arm pinned to one thread. Heuristic
/// arms run first; refinement arms are then seeded with the best feasible
/// heuristic schedule (they report infeasible when no heuristic arm closed).
PortfolioResult race(const graph::Dag& g, const platform::Cluster& cluster,
                     const std::vector<PortfolioArm>& arms,
                     const PortfolioConfig& cfg = {});

}  // namespace dagpm::anchor
