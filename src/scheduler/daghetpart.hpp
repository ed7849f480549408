#pragma once
// DagHetPart (paper Sec. 4.2): the four-step partitioning-based heuristic.
//
//   Step 1  partition the workflow into k' blocks with the acyclic
//           partitioner (heterogeneity-oblivious, edge-cut-optimizing);
//   Step 2  BiggestAssign: fit blocks into processor memories, splitting
//           oversized blocks (assignment.hpp);
//   Step 3  merge unassigned blocks into assigned ones, minimizing the
//           estimated makespan (merge_step.hpp);
//   Step 4  local search via block swaps + idle-processor moves
//           (swap_step.hpp).
//
// The paper tentatively runs the whole pipeline for every k' <= k and keeps
// the best makespan. The driver supports that exact sweep, a cheaper
// doubling sweep {1,2,4,...,k} (bench default: O(log k) pipeline runs
// instead of k; paper_figures' ablation_sweep measures the makespan it
// gives up), and a single-k' mode; sweep candidates run in parallel with
// OpenMP.
//
// Pruned sweep. The sweep keeps the first strict minimum in candidate
// order, and candidates ascend, so the arms with k' <= 8 (the first wave)
// come first. Steps 3 and 4 only merge blocks and move them between
// processors, and the quotient stays acyclic, so the heaviest path work of
// an arm's current quotient over the fastest speed is a lower bound on the
// arm's final makespan, under both pricings (merge_step.hpp). A later arm
// whose bound exceeds the best first-wave makespan (by a relative 1e-9)
// can neither win nor tie, and its Step 3 stops there (obs counter
// sweep.arms_pruned). The returned schedule is the one the unpruned sweep
// returns. With no feasible first-wave arm nothing is pruned; neither the
// fullReevaluation reference nor dagHetPartSingle ever prunes.
//
// Threads, for the whole library: one team; nested Step-4 work is tasks on
// the innermost team. The parallel loops nest (experiment instances, then
// k' arms, SA restarts or Monte-Carlo replications) and no inner loop is
// switched off by hand: a region nested inside an active region runs
// serially on the thread that reached it (OpenMP's default of one active
// level), so the outermost active loop forms the team. The sweep starts
// every arm's Steps 1-2, and the first wave's Steps 3-4, as tasks at once;
// a later arm's Steps 3-4 start as a task once both its own Steps 1-2 and
// the whole first wave are done. Its threshold is therefore the
// deterministic minimum over the first wave, so abort points, counters and
// spans are the same for any thread count. The Step-4 swap scan is an omp
// taskloop bound to the innermost enclosing team, so sweep threads whose
// arms finished take chunks of the heaviest arm; outside any active region
// it opens its own team, so a single-k' sweep hands every core to the
// scan. Results are bit-identical for any thread count. Scan chunks charge
// their counters back to the thread that started the scan, so
// ThreadCounterScope deltas stay exact wherever the chunks ran. Service
// workers (plain std::threads) and portfolio arms pin themselves with
// omp_set_num_threads(1).

#include "partition/partitioner.hpp"
#include "scheduler/options.hpp"
#include "scheduler/solution.hpp"

namespace dagpm::scheduler {

enum class KPrimeSweep { kFull, kDoubling, kSingle };

struct DagHetPartConfig {
  KPrimeSweep sweep = KPrimeSweep::kDoubling;
  std::uint64_t seed = 1;
  double step1Epsilon = 0.10;   // imbalance for the Step-1 partition
  partition::PartitionConfig::BalanceWeight step1Balance =
      partition::PartitionConfig::BalanceWeight::kWork;
  memory::OracleOptions oracle;
  // Step toggles for the ablation benches.
  bool preferOffCriticalPath = true;
  bool anyHostFallback = true;  // Step-3 last-resort non-neighbor merges
  bool enableSwaps = true;
  bool enableIdleMoves = true;
  /// When the whole sweep is infeasible with the (paper-default) work-
  /// balanced Step-1 partition, retry it balancing memory footprints:
  /// memory-balanced blocks split far less degenerately in Step 2, which
  /// rescues memory-tight instances the baseline can schedule. Library
  /// extension, not in the paper; the paper-merge variant of paper_figures'
  /// ablation_steps turns it off.
  bool memoryBalanceFallback = true;
  /// Cross-cutting switches; options.contentionAware threads the fair-share
  /// communication cost model through Step 3's merge scoring, Step 4's
  /// swap/idle-move search, the k'-sweep selection and the reported
  /// makespan (which then predicts the fair-share simulated execution
  /// instead of the optimistic uncontended Eq. (1)-(2) value).
  SchedulerOptions options;
};

/// The k' values the sweep evaluates for a cluster of `k` processors.
std::vector<std::uint32_t> sweepCandidates(KPrimeSweep sweep, std::uint32_t k);

/// Runs the full four-step heuristic; infeasible results carry feasible =
/// false (the paper's "no valid assignment is returned"). Throws
/// std::invalid_argument on a cyclic workflow, as do dagHetPartSingle,
/// dagHetMem and so scheduleBest.
ScheduleResult dagHetPart(const graph::Dag& g, const platform::Cluster& cluster,
                          const DagHetPartConfig& cfg = {});

/// Runs the pipeline for one fixed k' (used by the sweep and the ablations).
ScheduleResult dagHetPartSingle(const graph::Dag& g,
                                const platform::Cluster& cluster,
                                std::uint32_t kPrime,
                                const DagHetPartConfig& cfg);

/// Convenience for library users: runs DagHetPart and, when it fails or
/// loses, the DagHetMem baseline, returning the better feasible schedule.
/// On extremely memory-tight instances the baseline's streaming blocks can
/// succeed where the partitioning pipeline cannot (the paper reports the
/// same effect); this wrapper guarantees the union of both feasibility
/// regions. The evaluation benches never use it -- they compare the two
/// algorithms exactly as the paper does.
ScheduleResult scheduleBest(const graph::Dag& g,
                            const platform::Cluster& cluster,
                            const DagHetPartConfig& cfg = {});

}  // namespace dagpm::scheduler
