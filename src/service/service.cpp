#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include <omp.h>

#include "memory/oracle.hpp"
#include "scheduler/daghetmem.hpp"
#include "scheduler/list_scheduler.hpp"

namespace dagpm::service {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

// Deadline-ladder cost model, per task, in Request::deadlineBudget units.
// The ladder compares these estimates, never wall clocks, so its decisions
// (full solve / cache / HEFT / reject) are a pure function of the request
// and reproduce bit-identically under any worker-thread count.
constexpr double kSolveCostPerTask = 1.0;
constexpr double kHeftCostPerTask = 0.05;

// Per-worker circuit breaker: this many consecutive request failures on one
// worker trip it, and a tripped worker fails this many jobs fast before the
// half-open re-admission probe (the window doubles after every failed
// probe). Count-based, not time-based: a breaker's whole life cycle is a
// deterministic function of the worker's job subsequence, so tests can
// replay it exactly.
constexpr int kBreakerThreshold = 3;
constexpr int kBreakerCooldownJobs = 2;

}  // namespace

SchedulerService::SchedulerService(ServiceConfig cfg)
    : cfg_(cfg), cache_(cfg.cacheCapacity) {
  const int threads = std::max(1, cfg_.numThreads);
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

SchedulerService::~SchedulerService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queueNotEmpty_.notify_all();
  queueNotFull_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool SchedulerService::enqueue(Request&& request, std::future<Response>* out,
                               bool blocking) {
  // A poisoned request (null workflow or cluster) is accepted and failed on
  // the worker through the regular exception-isolation path: the error
  // surfaces through the future like any solve failure instead of crashing
  // the submitter or taking a worker thread down.
  std::unique_lock<std::mutex> lock(mu_);
  if (blocking) {
    queueNotFull_.wait(lock, [this] {
      return queue_.size() < cfg_.queueCapacity || stopping_;
    });
  } else if (queue_.size() >= cfg_.queueCapacity) {
    ++rejected_;
    return false;
  }
  if (stopping_) {
    ++rejected_;
    return false;
  }
  Job job;
  job.id = nextRequestId_++;
  job.request = std::move(request);
  job.submitted = Clock::now();
  if (out != nullptr) *out = job.promise.get_future();
  queue_.push_back(std::move(job));
  ++submitted_;
  queueNotEmpty_.notify_one();
  return true;
}

std::future<Response> SchedulerService::submit(Request request) {
  std::future<Response> out;
  enqueue(std::move(request), &out, /*blocking=*/true);
  return out;  // invalid only when submitted during shutdown
}

bool SchedulerService::trySubmit(Request request, std::future<Response>* out) {
  return enqueue(std::move(request), out, /*blocking=*/false);
}

void SchedulerService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return queue_.empty() && activeWorkers_ == 0; });
}

void SchedulerService::workerLoop() {
  // Pin the worker to one OpenMP thread, as anchor::race pins its arms: a
  // job's inner parallel regions (the Step-4 swap scan) then stay on this
  // thread instead of opening an nproc team per worker, and the
  // ThreadCounterScope delta sees every count.
  omp_set_num_threads(1);
  BreakerState breaker;
  breaker.cooldownJobs = kBreakerCooldownJobs;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queueNotEmpty_.wait(lock,
                          [this] { return !queue_.empty() || stopping_; });
      if (queue_.empty()) return;  // stopping and drained
      job = std::move(queue_.front());
      queue_.pop_front();
      ++activeWorkers_;
      queueNotFull_.notify_one();
    }
    // Exception isolation at the worker boundary: a request must never take
    // its worker down with it. process() already converts solve failures
    // into promise exceptions; anything still escaping (an allocation
    // failure in the response plumbing, a throwing promise) is contained
    // here, failing only this request — its promise, destroyed unset inside
    // process(), reports broken_promise to the caller — while the pool
    // stays alive to serve everything behind it.
    try {
      process(std::move(job), breaker);
    } catch (...) {
      obs::add(obs::Counter::kServiceWorkerExceptions);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++completed_;
      --activeWorkers_;
      if (queue_.empty() && activeWorkers_ == 0) idle_.notify_all();
    }
  }
}

void SchedulerService::process(Job job, BreakerState& breaker) {
  Response resp;
  resp.requestId = job.id;
  resp.queueSeconds = secondsSince(job.submitted);
  // Per-request latency attribution: the whole request (cache probe, wait,
  // or solve) lands as one span tagged with the request id on this worker's
  // trace track.
  const obs::Span span("service.request", "id=" + std::to_string(job.id));

  // Open breaker: this worker is cooling down after consecutive failures
  // and fails its jobs fast. The window is a job count, so the drain of a
  // tripped breaker is deterministic; when it closes, the next attempted
  // solve becomes the half-open re-admission probe.
  if (breaker.openJobsRemaining > 0) {
    --breaker.openJobsRemaining;
    if (breaker.openJobsRemaining == 0) breaker.halfOpen = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++breakerFastFails_;
    }
    job.promise.set_exception(std::make_exception_ptr(std::runtime_error(
        "circuit breaker open: worker cooling down after repeated failures")));
    return;
  }

  // A poisoned request (null workflow or cluster) gets no key: it skips the
  // cache, the deadline ladder and the in-flight table, and fails inside
  // solve() through the same isolation as any solver throw. The key is built
  // here on the worker, so a queued job holds none.
  const Request& r = job.request;
  const bool poisoned = r.dag == nullptr || r.cluster == nullptr;
  std::string key;
  if (!poisoned) key = requestKey(*r.dag, *r.cluster, r.config, r.algorithm);

  // Deadline ladder, rung 0: is the full solve estimated to fit the budget?
  // The estimate is cost-model based (cost per task x tasks), never a wall
  // clock, so the ladder's decisions reproduce bit-identically under any
  // worker-thread count.
  const bool overBudget =
      !poisoned && r.deadlineBudget > 0.0 &&
      kSolveCostPerTask * static_cast<double>(r.dag->numVertices()) >
          r.deadlineBudget;
  if (overBudget) {
    obs::add(obs::Counter::kServiceDeadlineMisses);
    resp.deadlineMissed = true;
  }

  // Serve-or-register, atomically with respect to other workers: either the
  // request is cached (for an over-budget request, rung 1: full fidelity and
  // free), or an identical solve is in flight, or this request becomes the
  // leader. Publishing (cache insert + in-flight erase) holds the same
  // mutex, so no interleaving lets a duplicate solve slip through — the set
  // of actual solves is deterministic.
  std::shared_ptr<InFlight> leader;  // set: wait on another worker's solve
  std::shared_ptr<InFlight> mine;    // set: this request solves
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (overBudget) ++deadlineMisses_;
    if (!poisoned) {
      if (std::optional<scheduler::ScheduleResult> hit = cache_.lookup(key)) {
        ++cacheHits_;
        if (overBudget) obs::add(obs::Counter::kServiceFallbackCache);
        resp.cacheHit = true;
        resp.schedule = *std::move(hit);
        resp.totalSeconds = secondsSince(job.submitted);
        job.promise.set_value(std::move(resp));
        return;
      }
      if (!overBudget) {
        const auto it = inFlight_.find(key);
        if (it != inFlight_.end()) {
          leader = it->second;
          ++coalesced_;
        } else {
          mine = std::make_shared<InFlight>();
          inFlight_.emplace(key, mine);
        }
      }
    }
  }

  if (overBudget) {
    // Rung 2: the HEFT fast path, when its (much smaller) estimate fits.
    // Degraded schedules are never cached or coalesced: they must not
    // masquerade as the full solve of the same request, and skipping the
    // in-flight table keeps the rung decision independent of worker
    // interleaving.
    if (kHeftCostPerTask * static_cast<double>(r.dag->numVertices()) <=
        r.deadlineBudget) {
      obs::add(obs::Counter::kServiceFallbackHeft);
      resp.degraded = true;
      scheduler::ScheduleResult schedule;
      try {
        schedule = heftFallback(job, &resp.solveSeconds, &resp.counters);
      } catch (...) {
        noteSolveFailure(breaker);
        job.promise.set_exception(std::current_exception());
        return;
      }
      noteSolveSuccess(breaker);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++degraded_;
        if (!schedule.feasible) ++infeasible_;
      }
      resp.schedule = std::move(schedule);
      resp.totalSeconds = secondsSince(job.submitted);
      job.promise.set_value(std::move(resp));
      return;
    }
    // Rung 3: rejection — a well-formed infeasible response rather than an
    // exception; the caller asked for an impossible budget and learns so.
    obs::add(obs::Counter::kServiceFallbackReject);
    resp.rejected = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++deadlineRejected_;
    }
    resp.totalSeconds = secondsSince(job.submitted);
    job.promise.set_value(std::move(resp));
    return;
  }

  if (leader != nullptr) {
    // Wait for the leader's solve; it is running on another worker right
    // now (in-flight entries only exist while their job is active), so the
    // wait is bounded by one solve and cannot deadlock the pool.
    try {
      resp.schedule = leader->result.get();
      resp.coalesced = true;
      resp.totalSeconds = secondsSince(job.submitted);
      job.promise.set_value(std::move(resp));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
    return;
  }

  scheduler::ScheduleResult schedule;
  try {
    schedule = solve(job, &resp.solveSeconds, &resp.counters);
  } catch (...) {
    noteSolveFailure(breaker);
    if (mine != nullptr) {  // null for a poisoned request
      {
        std::lock_guard<std::mutex> lock(mu_);
        inFlight_.erase(key);
      }
      mine->promise.set_exception(std::current_exception());
    }
    job.promise.set_exception(std::current_exception());
    return;
  }
  // Only a keyed request gets here (solve() throws for a poisoned one), so
  // `mine` is set.
  noteSolveSuccess(breaker);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++solves_;
    if (!schedule.feasible) ++infeasible_;
    inFlight_.erase(key);
    cache_.insert(std::move(key), schedule);
  }
  mine->promise.set_value(schedule);
  resp.schedule = std::move(schedule);
  resp.totalSeconds = secondsSince(job.submitted);
  job.promise.set_value(std::move(resp));
}

void SchedulerService::noteSolveFailure(BreakerState& breaker) {
  // Every contained request failure counts — the isolation the pool-liveness
  // test asserts is exactly "exceptions become failed futures, not dead
  // workers".
  obs::add(obs::Counter::kServiceWorkerExceptions);
  if (breaker.halfOpen) {
    // Failed re-admission probe: reopen with a doubled cooldown window.
    obs::add(obs::Counter::kServiceBreakerProbes);
    breaker.halfOpen = false;
    breaker.cooldownJobs *= 2;
    breaker.openJobsRemaining = breaker.cooldownJobs;
  } else if (++breaker.consecutiveFailures < kBreakerThreshold) {
    return;
  } else {
    breaker.consecutiveFailures = 0;
    breaker.openJobsRemaining = breaker.cooldownJobs;
  }
  obs::add(obs::Counter::kServiceBreakerTrips);
  std::lock_guard<std::mutex> lock(mu_);
  ++breakerTrips_;
}

void SchedulerService::noteSolveSuccess(BreakerState& breaker) {
  breaker.consecutiveFailures = 0;
  if (breaker.halfOpen) {
    // Healthy probe: close fully and reset the cooldown window.
    obs::add(obs::Counter::kServiceBreakerProbes);
    breaker.halfOpen = false;
    breaker.cooldownJobs = kBreakerCooldownJobs;
  }
}

scheduler::ScheduleResult SchedulerService::solve(
    const Job& job, double* solveSeconds,
    std::vector<obs::CounterValue>* counters) {
  const Request& r = job.request;
  if (r.dag == nullptr || r.cluster == nullptr) {
    throw std::invalid_argument(
        "poisoned request: null workflow or cluster pointer");
  }
  const obs::Span span("service.solve",
                       std::string(algorithmName(r.algorithm)) +
                           " id=" + std::to_string(job.id));
  // The job runs entirely on this thread (the worker is pinned to one
  // OpenMP thread, so every parallel region runs serially here), so the
  // thread-local delta is this request's exact probe/repair/merge work.
  const obs::ThreadCounterScope scope;
  scheduler::ScheduleResult result;
  switch (r.algorithm) {
    case Algorithm::kDagHetPart:
      result = scheduler::dagHetPart(*r.dag, *r.cluster, r.config);
      break;
    case Algorithm::kDagHetMem: {
      scheduler::DagHetMemConfig mem;
      mem.oracle = r.config.oracle;
      result = scheduler::dagHetMem(*r.dag, *r.cluster, mem);
      break;
    }
    case Algorithm::kBest:
      result = scheduler::scheduleBest(*r.dag, *r.cluster, r.config);
      break;
  }
  *solveSeconds = span.seconds();
  if (obs::countersEnabled()) *counters = scope.deltas();
  return result;
}

scheduler::ScheduleResult SchedulerService::heftFallback(
    const Job& job, double* solveSeconds,
    std::vector<obs::CounterValue>* counters) {
  const Request& r = job.request;
  const obs::Span span("service.heft", "id=" + std::to_string(job.id));
  const obs::ThreadCounterScope scope;
  const scheduler::ListScheduleResult heft =
      scheduler::heftSchedule(*r.dag, *r.cluster);
  // Fold the task-level mapping into the block model — one block per used
  // processor — so the response has the same shape as a full solve.
  scheduler::ScheduleResult result;
  const std::size_t numTasks = r.dag->numVertices();
  constexpr std::uint32_t kUnmapped = 0xffffffffu;
  std::vector<std::uint32_t> blockOfProc(r.cluster->numProcessors(),
                                         kUnmapped);
  result.blockOf.resize(numTasks);
  for (std::size_t v = 0; v < numTasks; ++v) {
    const platform::ProcessorId p = heft.procOfTask[v];
    if (blockOfProc[p] == kUnmapped) {
      blockOfProc[p] = static_cast<std::uint32_t>(result.procOfBlock.size());
      result.procOfBlock.push_back(p);
    }
    result.blockOf[v] = blockOfProc[p];
  }
  // HEFT is task-granular and memory-oblivious, so the folded blocks may
  // overflow their processors or form a cyclic quotient (paper_figures'
  // price_of_memory table shows the overflows are common). The response
  // reports the block model's makespan and is feasible exactly when the
  // folded schedule validates.
  result.makespan = scheduler::staticMakespan(*r.dag, *r.cluster, result);
  result.feasible = true;  // the claim validateSchedule checks
  const memory::MemDagOracle oracle(*r.dag, r.config.oracle);
  result.feasible =
      scheduler::validateSchedule(*r.dag, *r.cluster, oracle, result).valid;
  *solveSeconds = span.seconds();
  if (obs::countersEnabled()) *counters = scope.deltas();
  return result;
}

ServiceMetrics SchedulerService::metrics() const {
  ServiceMetrics m;
  {
    std::lock_guard<std::mutex> lock(mu_);
    m.submitted = submitted_;
    m.rejected = rejected_;
    m.completed = completed_;
    m.cacheHits = cacheHits_;
    m.coalesced = coalesced_;
    m.solves = solves_;
    m.infeasible = infeasible_;
    m.deadlineMisses = deadlineMisses_;
    m.degraded = degraded_;
    m.deadlineRejected = deadlineRejected_;
    m.breakerTrips = breakerTrips_;
    m.breakerFastFails = breakerFastFails_;
    m.queueDepth = queue_.size();
  }
  m.cacheSize = cache_.size();
  m.cache = cache_.stats();
  // One metrics path: the service reports through the same deterministic
  // counter table and span aggregates everything else writes to.
  m.counters = obs::counterSnapshot();
  m.spans = obs::spanAggregates();
  return m;
}

}  // namespace dagpm::service
