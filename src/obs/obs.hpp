#pragma once
// Always-compiled observability: scoped spans, deterministic counters, and
// a Chrome-trace-event exporter.
//
// Design constraints (see ISSUE 7):
//  * Counters aggregate per-thread (one cache-line-local block per thread,
//    single writer per cell) and merge by commutative sum/max, so the
//    DAGPM_STATS output is bit-identical for any OMP_NUM_THREADS as long as
//    the counted events themselves are thread-count-invariant — which the
//    solver guarantees (the Step-4 scan materialises every probe, sweep arms
//    do fixed work each).
//  * The disabled path is near-zero cost: `add()` is one relaxed atomic
//    load and a predictable branch; spans only exist at phase granularity,
//    never inside per-probe loops.
//
// Environment wiring (read once at process start):
//   DAGPM_TRACE=<path>  write a Chrome trace-event JSON file at exit
//                       (load it in Perfetto / chrome://tracing)
//   DAGPM_STATS=<path>  write the deterministic counter table at exit
//                       ("-" writes to stdout)

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dagpm::obs {

/// Named monotonic counters. Keep the enum sorted by name; snapshot order
/// follows the enum, so the DAGPM_STATS schema is stable by construction.
enum class Counter : unsigned {
  kAnnealAccepted = 0,  ///< SA/ILS moves accepted (incl. forced uphill)
  kAnnealProposed,      ///< SA/ILS moves proposed (probe evaluations)
  kAnnealRestarts,      ///< SA restarts completed
  kBnbNodesPruned,      ///< B&B subtrees cut (memory/cycle/bound)
  kBnbNodesVisited,     ///< B&B assignment nodes expanded
  kCoarsenLevels,       ///< coarsening levels built across all bisections
  kEvalCommits,         ///< IncrementalEvaluator::commitAssign calls
  kEvalCycleChecks,     ///< mergeWouldCreateCycle shortcut queries
  kEvalProbesAssign,    ///< probeAssign calls (Step-4 swap/idle probes)
  kEvalProbesMerged,    ///< probeMerged calls (Step-3 merge probes)
  kEvalRebuilds,        ///< full evaluator rebuilds
  kEvalRepairPushes,    ///< cone-repair heap pushes across all probes
  kFaultFailStops,      ///< fail-stop faults applied by the simulator
  kFaultTasksKilled,    ///< running tasks killed at fault instants
  kFaultTransientCrashes,  ///< transient crashes applied by the simulator
  kHeftEdgesPriced,     ///< HEFT in-edges priced at uncontended c/beta
  kHeftTasksPlaced,     ///< HEFT priority-list placements
  kMergeCommitted,      ///< Step-3 merges committed
  kMergeMemoHits,       ///< Step-3 probes served by the oracle memo
  kMergeMemoMisses,     ///< Step-3 probes that ran the oracle
  kMergeProbes,         ///< Step-3 candidate merge probes
  kPortfolioArms,       ///< portfolio arms raced
  kQuotientMerges,      ///< QuotientGraph::merge transactions applied
  kQuotientRollbacks,   ///< QuotientGraph::rollback transactions undone
  kReschedAccepted,     ///< online reschedules accepted (splice applied)
  kReschedFaultEvacuations,  ///< lost blocks evacuated off dead processors
  kReschedFaultGreedyWins,   ///< fault repairs where greedy re-execution won
  kReschedFaultRetries,      ///< fault repairs re-attempted after backoff
  kReschedFaultTriggers,     ///< fault-triggered repair firings
  kReschedMergeProbes,  ///< residual-repair tentative merges priced
  kReschedRejected,     ///< online reschedules rejected by hindsight guard
  kReschedTriggers,     ///< trigger-policy firings
  kServiceBreakerProbes,     ///< circuit-breaker half-open probe solves
  kServiceBreakerTrips,      ///< worker circuit breakers tripped open
  kServiceDeadlineMisses,    ///< requests that missed their deadline budget
  kServiceFallbackCache,     ///< degraded requests served from the cache
  kServiceFallbackHeft,      ///< degraded requests served by the HEFT rung
  kServiceFallbackReject,    ///< degraded requests rejected outright
  kServiceWorkerExceptions,  ///< exceptions contained at the worker boundary
  kSimTasksExecuted,    ///< simulator task completions
  kSimTransfers,        ///< simulator transfers dispatched
  kSpanPeakDepth,       ///< max span-nesting depth observed (merged by max)
  kSwapIdleMoves,       ///< Step-4 idle moves committed
  kSwapPairsProbed,     ///< Step-4 swap pairs probed
  kSwapPairsPruned,     ///< Step-4 swap pairs skipped as unable to win
  kSwapRounds,          ///< Step-4 scan rounds
  kSwapsCommitted,      ///< Step-4 swaps committed
  kSweepArms,           ///< k'-sweep arms evaluated
  kSweepArmsPruned,     ///< k'-sweep arms stopped by the path-work bound
  kCount
};

inline constexpr std::size_t kNumCounters =
    static_cast<std::size_t>(Counter::kCount);

/// Stable dotted name, e.g. "eval.probes.assign".
[[nodiscard]] const char* counterName(Counter c) noexcept;

/// True for gauges merged across threads by max instead of sum.
[[nodiscard]] bool counterMergesByMax(Counter c) noexcept;

namespace detail {
extern std::atomic<bool> gCountersEnabled;
extern std::atomic<bool> gTracingEnabled;
void addSlow(Counter c, std::uint64_t delta) noexcept;
void maxSlow(Counter c, std::uint64_t value) noexcept;
}  // namespace detail

[[nodiscard]] inline bool countersEnabled() noexcept {
  return detail::gCountersEnabled.load(std::memory_order_relaxed);
}
[[nodiscard]] inline bool tracingEnabled() noexcept {
  return detail::gTracingEnabled.load(std::memory_order_relaxed);
}

/// Bump a counter. Hot-path safe: a relaxed load + branch when disabled.
inline void add(Counter c, std::uint64_t delta = 1) noexcept {
  if (countersEnabled()) detail::addSlow(c, delta);
}

/// Raise a max-merged gauge to at least `value`.
inline void noteMax(Counter c, std::uint64_t value) noexcept {
  if (countersEnabled()) detail::maxSlow(c, value);
}

/// RAII scoped span. Always measures wall time (usable as a plain timer via
/// seconds()); when tracing is enabled the span additionally lands as a
/// complete ("X") event on this thread's track in the Chrome trace.
///
/// Spans created inside an OpenMP region should pass the enclosing
/// `currentSpanDepth()` captured *before* the parallel region as
/// `parentDepth`, so logical nesting (and the span.peak_depth gauge) is
/// identical no matter which thread runs the body.
class Span {
 public:
  explicit Span(const char* name) noexcept;
  Span(const char* name, std::string detail);
  Span(const char* name, std::string detail, int parentDepth);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds elapsed since construction.
  [[nodiscard]] double seconds() const noexcept;
  [[nodiscard]] int depth() const noexcept { return depth_; }

 private:
  std::chrono::steady_clock::time_point start_;
  const char* name_;
  std::string detail_;
  int depth_ = 0;
  int savedDepth_ = 0;
};

/// Current logical span nesting depth on this thread (0 outside any span).
[[nodiscard]] int currentSpanDepth() noexcept;

// ---- configuration -------------------------------------------------------

void enableCounters(bool on) noexcept;
void enableTracing(bool on) noexcept;
/// Where flushConfiguredOutputs() writes the Chrome trace (empty = nowhere).
void setTracePath(std::string path);
/// Where flushConfiguredOutputs() writes the counter table ("-" = stdout).
void setStatsPath(std::string path);
/// Clears counters, span aggregates, and trace buffers; resets the trace
/// epoch. Enabled flags and configured paths are left untouched.
void resetForTest();

// ---- snapshots -----------------------------------------------------------

struct CounterValue {
  const char* name;
  std::uint64_t value;
};
/// All counters (zeros included) merged across threads, in enum order.
[[nodiscard]] std::vector<CounterValue> counterSnapshot();

/// Per-request counter attribution: snapshots the calling thread's counter
/// cells at construction so deltas() reports exactly the counts this thread
/// produced inside the scope. Zero hot-path cost — the per-thread cells are
/// single-writer, so no extra bookkeeping runs while the scope is open.
///
/// The deltas are exact when every count of the scoped work lands on the
/// constructing thread: work it runs itself, plus tasks other threads ran
/// for it whose counts were carried back with CounterMove/addTally (the
/// Step-4 swap scan does this). Work fanned out any other way lands only in
/// the process-global totals. Counters must be enabled for deltas to be
/// non-zero.
class ThreadCounterScope {
 public:
  ThreadCounterScope();
  ThreadCounterScope(const ThreadCounterScope&) = delete;
  ThreadCounterScope& operator=(const ThreadCounterScope&) = delete;

  /// Sum-merged counters: this thread's value now minus at construction.
  /// Max-merged gauges (span.peak_depth) report the current thread value.
  /// Must be called on the constructing thread.
  [[nodiscard]] std::vector<CounterValue> deltas() const;

 private:
  void* state_;  // the constructing thread's counter block
  std::vector<std::uint64_t> start_;
};

/// Sum-merged counts carried from the thread that produced them to the
/// thread that owns the work; see CounterMove.
using CounterTally = std::array<std::uint64_t, kNumCounters>;

/// Moves the sum-merged counts the executing thread produces while the
/// scope is open off that thread's cells into `tally`. A task that any
/// thread of the team may run wraps its body in one; the thread that
/// started the tasks adds the tallies with addTally() once they complete.
/// Its ThreadCounterScope delta then holds every count, and the process
/// totals are unchanged. Max-merged gauges stay on the executing thread.
/// The scope must open and close on one thread, with no task scheduling
/// point in between.
class CounterMove {
 public:
  explicit CounterMove(CounterTally& tally) noexcept;
  ~CounterMove();
  CounterMove(const CounterMove&) = delete;
  CounterMove& operator=(const CounterMove&) = delete;

 private:
  CounterTally* tally_;
  void* state_;  // the executing thread's counter block; null if disabled
  CounterTally start_{};
};

/// Adds a CounterMove tally onto the calling thread's counter cells.
void addTally(const CounterTally& tally) noexcept;

/// The DAGPM_STATS text: one "name value" line per counter, sorted by name.
/// Bit-identical across OMP_NUM_THREADS for thread-count-invariant work.
[[nodiscard]] std::string statsText();

struct SpanAggregate {
  std::string name;
  std::uint64_t calls = 0;
  double seconds = 0.0;
};
/// Per-span-name totals (calls + wall seconds), sorted by name.
[[nodiscard]] std::vector<SpanAggregate> spanAggregates();

// ---- extra timeline tracks (e.g. simulated schedules) --------------------

/// The pid used for the solver's own span tracks in the trace.
inline constexpr int kSolverPid = 1;

/// Reserve a fresh pid for a timeline process (schedule instances, ...).
int reserveTimelinePid();
/// Name a (pid, tid) track; emitted as trace metadata events.
void declareTrack(int pid, int tid, const std::string& processName,
                  const std::string& threadName);
/// Append a complete event on a declared track. Timestamps/durations are in
/// microseconds of whatever clock the track uses (simulated time for
/// schedule timelines).
void addTimelineEvent(int pid, int tid, std::string name, double tsMicros,
                      double durMicros);

// ---- export --------------------------------------------------------------

/// The whole trace (spans + timeline tracks) as Chrome trace-event JSON.
[[nodiscard]] std::string traceJson();
/// Writes traceJson() to `path`; returns false on I/O failure.
bool writeTrace(const std::string& path);
/// Writes the configured trace/stats outputs, if any. Runs at exit when
/// DAGPM_TRACE / DAGPM_STATS are set; callable explicitly too.
void flushConfiguredOutputs();

}  // namespace dagpm::obs
