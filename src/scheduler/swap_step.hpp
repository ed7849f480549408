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
// quotient::computeMakespan. Both modes count the same swap.* work.

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

/// Requires every alive node of `q` to be assigned and the quotient acyclic.
SwapStepResult improveBySwaps(quotient::QuotientGraph& q,
                              const platform::Cluster& cluster,
                              const SwapStepConfig& cfg = {});

}  // namespace dagpm::scheduler
