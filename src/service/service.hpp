#pragma once
// SchedulerService: scheduling as a service.
//
// Millions of users means many workflows in flight at once, not one big
// solve. The service accepts (workflow, cluster, config) requests through a
// bounded queue, runs them on a pool of worker threads (each request solves
// single-threaded; the pool is the parallelism), and serves repeated or
// isomorphic requests from an LRU schedule cache keyed by the request's
// exact content key (service/request_key.hpp) — bit-identical to a cold
// solve.
//
// Concurrency-correctness notes:
//  * Identical in-flight requests are always coalesced (single-flight):
//    the first dequeued request solves, duplicates wait on its result.
//    The cache and the in-flight table both compare whole content keys, so
//    a request is only ever served the schedule solved for its own content.
//    Together with the cache this makes the set of actual solves — and
//    therefore the process-global obs counter totals — deterministic under
//    any thread interleaving (as long as the cache does not evict mid-run).
//  * Per-request counter attribution uses obs::ThreadCounterScope: each
//    solve runs entirely on one worker thread (each worker pins itself with
//    omp_set_num_threads(1)), so the thread-local delta is exact. Every request
//    also runs under an obs::Span tagged with its request id, so DAGPM_TRACE
//    shows per-request latency on the worker tracks.
//
// The metrics endpoint (metrics()) is a view over the SAME observability
// substrate the rest of the system uses — obs::counterSnapshot() and
// obs::spanAggregates() — plus the service's own queue/cache tallies; there
// is no second metrics path.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "service/cache.hpp"
#include "service/request_key.hpp"

namespace dagpm::service {

struct ServiceConfig {
  /// Worker threads; requests are the unit of parallelism.
  int numThreads = 4;
  /// Bounded request queue: submit() blocks when full, trySubmit() rejects.
  std::size_t queueCapacity = 256;
  /// LRU schedule cache entries; 0 disables caching.
  std::size_t cacheCapacity = 512;
};

/// One scheduling request. The dag and cluster must stay alive until the
/// response future resolves (the service borrows the workflow; only its
/// request key, built on the worker, copies the content).
struct Request {
  const graph::Dag* dag = nullptr;
  const platform::Cluster* cluster = nullptr;
  Algorithm algorithm = Algorithm::kDagHetPart;
  scheduler::DagHetPartConfig config;
  /// Deadline budget in cost-model units (1 per task is the full-solve
  /// estimate, 0.05 per task the HEFT fast path's); 0 = no deadline, always
  /// the full solve — the exact legacy path. When the full-solve estimate
  /// exceeds the budget the service degrades down the ladder: cached schedule
  /// (full fidelity, free) -> HEFT fast path (memory-oblivious, flagged
  /// `degraded`) -> rejection (`rejected`, no schedule).
  double deadlineBudget = 0.0;
};

struct Response {
  std::uint64_t requestId = 0;
  scheduler::ScheduleResult schedule;
  bool cacheHit = false;    // served from the LRU, no solve
  bool coalesced = false;   // joined an identical in-flight solve
  double queueSeconds = 0.0;  // submit -> worker pickup
  double solveSeconds = 0.0;  // solver wall time (0 for hits / coalesced)
  double totalSeconds = 0.0;  // submit -> response ready
  /// The solve's obs counter deltas (probe counts, repair pushes, ...),
  /// exact per request. Empty for cache hits, coalesced requests, and when
  /// counters are disabled.
  std::vector<obs::CounterValue> counters;
  // Deadline-ladder outcome (all false without a deadline budget).
  bool deadlineMissed = false;  // full-solve estimate exceeded the budget
  bool degraded = false;        // served by the HEFT fast path
  bool rejected = false;        // even the fast-path estimate blew the budget
};

/// Rolled-up service health: queue/cache tallies plus the process-wide
/// observability snapshot (counters + span aggregates).
struct ServiceMetrics {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;   // trySubmit refusals (queue full)
  std::uint64_t completed = 0;
  std::uint64_t cacheHits = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t solves = 0;
  std::uint64_t infeasible = 0;  // completed solves with no valid schedule
  std::uint64_t deadlineMisses = 0;     // requests whose full solve blew budget
  std::uint64_t degraded = 0;           // HEFT fast-path responses
  std::uint64_t deadlineRejected = 0;   // ladder fell through to rejection
  std::uint64_t breakerTrips = 0;       // breaker opens (incl. failed probes)
  std::uint64_t breakerFastFails = 0;   // jobs failed while a breaker was open
  std::size_t queueDepth = 0;
  std::size_t cacheSize = 0;
  CacheStats cache;
  std::vector<obs::CounterValue> counters;   // obs::counterSnapshot()
  std::vector<obs::SpanAggregate> spans;     // obs::spanAggregates()
};

class SchedulerService {
 public:
  explicit SchedulerService(ServiceConfig cfg = {});
  /// Drains the queue (every accepted request completes) and joins.
  ~SchedulerService();
  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  /// Enqueues a request; blocks while the queue is full. The future
  /// resolves when a worker finishes the job.
  std::future<Response> submit(Request request);

  /// Non-blocking submit: false (and no future) when the queue is full.
  bool trySubmit(Request request, std::future<Response>* out);

  /// Blocks until every accepted request has completed.
  void drain();

  [[nodiscard]] ServiceMetrics metrics() const;
  [[nodiscard]] const ScheduleCache& cache() const noexcept { return cache_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    Request request;
    std::promise<Response> promise;
    std::chrono::steady_clock::time_point submitted;
  };
  /// Single-flight rendezvous: duplicates of an in-flight request wait on
  /// the leader's shared future instead of re-solving.
  struct InFlight {
    std::promise<scheduler::ScheduleResult> promise;
    std::shared_future<scheduler::ScheduleResult> result =
        promise.get_future().share();
  };

  /// Per-worker circuit breaker. Lives on the worker's own stack — no
  /// sharing, no locking — and is count-based throughout, so its state is a
  /// deterministic function of the failure pattern in that worker's job
  /// subsequence (the property the breaker-drain test pins).
  struct BreakerState {
    int consecutiveFailures = 0;
    int openJobsRemaining = 0;  // > 0: open, jobs fail fast
    int cooldownJobs = 0;       // current open-window length
    bool halfOpen = false;      // next attempted solve is the probe
  };

  void workerLoop();
  void process(Job job, BreakerState& breaker);
  void noteSolveFailure(BreakerState& breaker);
  void noteSolveSuccess(BreakerState& breaker);
  scheduler::ScheduleResult solve(const Job& job, double* solveSeconds,
                                  std::vector<obs::CounterValue>* counters);
  /// Degradation rung 2: task-granular HEFT folded into the block model
  /// (one block per used processor), reporting the block model's makespan
  /// and `feasible` only when the folded schedule passes validateSchedule.
  /// Orders of magnitude cheaper than a full solve.
  scheduler::ScheduleResult heftFallback(
      const Job& job, double* solveSeconds,
      std::vector<obs::CounterValue>* counters);
  bool enqueue(Request&& request, std::future<Response>* out, bool blocking);

  ServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable queueNotFull_;
  std::condition_variable queueNotEmpty_;
  std::condition_variable idle_;
  std::deque<Job> queue_;
  // In-flight solves by requestKey.
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inFlight_;
  bool stopping_ = false;
  std::size_t activeWorkers_ = 0;
  std::uint64_t nextRequestId_ = 1;

  // Tallies (guarded by mu_).
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t cacheHits_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t solves_ = 0;
  std::uint64_t infeasible_ = 0;
  std::uint64_t deadlineMisses_ = 0;
  std::uint64_t degraded_ = 0;
  std::uint64_t deadlineRejected_ = 0;
  std::uint64_t breakerTrips_ = 0;
  std::uint64_t breakerFastFails_ = 0;

  ScheduleCache cache_;
  std::vector<std::thread> workers_;
};

}  // namespace dagpm::service
