#pragma once
// Step 4 of DagHetPart: local search via block swaps (paper Algorithm 5)
// plus the final idle-processor pass.
//
// Two blocks may swap processors when each fits in the other's memory; the
// best improving swap is executed until none exists. Afterwards, if some
// processors stayed idle, blocks on the critical path are moved to faster
// idle processors that can hold them, as long as doing so improves the
// makespan.
//
// One swap-round loop and one idle-move loop serve both pricings. By
// default every candidate is priced through quotient::IncrementalEvaluator
// (cone repair instead of a full O(V+E) recompute per probe) and the O(n^2)
// swap candidates are scanned in parallel: each round's pairs split into
// 64-pair chunks that run as an OpenMP taskloop on the innermost enclosing
// team (its own team outside any active region; inline for a single
// chunk). Probes are pure (per-chunk scratch over a const quotient), all
// candidate makespans are materialized, and the winning pair is then
// selected by replaying the sequential acceptance rule over the stored
// values — so the result is bit-identical to the sequential scan for any
// thread count. Counters of chunks run by other threads are charged to the
// calling thread (obs::CounterMove).
// SwapStepConfig::fullReevaluation is the differential reference: the same
// loops, but each probe is a full recompute of the probed quotient, priced
// sequentially on the calling thread, and the critical path comes from
// quotient::computeMakespan. Under the null model the evaluator also skips
// the pairs swapCanShortenPath rejects, which cannot win, so the committed
// swaps are the reference's. Both modes count the same swap.rounds,
// swap.committed and swap.idle_moves; the evaluator's swap.pairs_probed +
// swap.pairs_pruned equals the reference's swap.pairs_probed.

#include <vector>

#include "comm/cost_model.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::scheduler {

struct SwapStepConfig {
  bool enableSwaps = true;      // ablation toggles
  bool enableIdleMoves = true;
  /// Communication cost model the swap/idle-move search evaluates under.
  /// Null = the paper's uncontended recurrence (the legacy code path);
  /// &comm::fairShareCommModel() = contention-aware local search. The
  /// returned makespan is priced under the same model.
  const comm::CommCostModel* comm = nullptr;
  /// Price every probe with the full recompute instead of the incremental
  /// evaluator (differential reference; bit-identical results).
  bool fullReevaluation = false;
};

struct SwapStepResult {
  double makespan = 0.0;
  std::uint32_t swapsCommitted = 0;
  std::uint32_t idleMovesCommitted = 0;
};

/// The null-model Step-4 prune: true iff swapping blocks `a` (on a
/// processor of speed `speedA`) and `b` (speed `speedB`) moves a block of
/// the committed critical path (`onPath`, indexed by block) onto a strictly
/// faster processor. Only such a swap can strictly lower a path-additive
/// makespan. Otherwise every block of the path keeps or raises its
/// work/speed term, every transfer keeps its price on the one shared link,
/// and Eq. (1) folds the path with monotone +, / and max: the probe is at
/// least the path's old length, which is the committed makespan.
inline bool swapCanShortenPath(const std::vector<char>& onPath,
                               quotient::BlockId a, quotient::BlockId b,
                               double speedA, double speedB) {
  return (onPath[a] != 0 && speedB > speedA) ||
         (onPath[b] != 0 && speedA > speedB);
}

/// Requires every alive node of `q` to be assigned and the quotient acyclic.
SwapStepResult improveBySwaps(quotient::QuotientGraph& q,
                              const platform::Cluster& cluster,
                              const SwapStepConfig& cfg = {});

}  // namespace dagpm::scheduler
