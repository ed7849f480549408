#include "obs/obs.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "support/env.hpp"
#include "support/json.hpp"

namespace dagpm::obs {

namespace detail {
std::atomic<bool> gCountersEnabled{false};
std::atomic<bool> gTracingEnabled{false};
}  // namespace detail

namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kCounterNames[kNumCounters] = {
    "anneal.accepted",     // kAnnealAccepted
    "anneal.proposed",     // kAnnealProposed
    "anneal.restarts",     // kAnnealRestarts
    "bnb.nodes_pruned",    // kBnbNodesPruned
    "bnb.nodes_visited",   // kBnbNodesVisited
    "coarsen.levels",      // kCoarsenLevels
    "eval.commits",        // kEvalCommits
    "eval.cycle_checks",   // kEvalCycleChecks
    "eval.probes.assign",  // kEvalProbesAssign
    "eval.probes.merged",  // kEvalProbesMerged
    "eval.rebuilds",       // kEvalRebuilds
    "eval.repair_pushes",  // kEvalRepairPushes
    "fault.fail_stops",    // kFaultFailStops
    "fault.tasks_killed",  // kFaultTasksKilled
    "fault.transient_crashes",  // kFaultTransientCrashes
    "heft.edges_priced",   // kHeftEdgesPriced
    "heft.tasks_placed",   // kHeftTasksPlaced
    "merge.committed",     // kMergeCommitted
    "merge.memo.hits",     // kMergeMemoHits
    "merge.memo.misses",   // kMergeMemoMisses
    "merge.probes",        // kMergeProbes
    "portfolio.arms",      // kPortfolioArms
    "quotient.merges",     // kQuotientMerges
    "quotient.rollbacks",  // kQuotientRollbacks
    "resched.accepted",    // kReschedAccepted
    "resched.fault.evacuations",  // kReschedFaultEvacuations
    "resched.fault.greedy_wins",  // kReschedFaultGreedyWins
    "resched.fault.retries",      // kReschedFaultRetries
    "resched.fault.triggers",     // kReschedFaultTriggers
    "resched.merge_probes",       // kReschedMergeProbes
    "resched.rejected",    // kReschedRejected
    "resched.triggers",    // kReschedTriggers
    "service.breaker_probes",     // kServiceBreakerProbes
    "service.breaker_trips",      // kServiceBreakerTrips
    "service.deadline_misses",    // kServiceDeadlineMisses
    "service.fallback_cache",     // kServiceFallbackCache
    "service.fallback_heft",      // kServiceFallbackHeft
    "service.fallback_reject",    // kServiceFallbackReject
    "service.worker_exceptions",  // kServiceWorkerExceptions
    "sim.tasks_executed",  // kSimTasksExecuted
    "sim.transfers",       // kSimTransfers
    "span.peak_depth",     // kSpanPeakDepth
    "swap.idle_moves",     // kSwapIdleMoves
    "swap.pairs_probed",   // kSwapPairsProbed
    "swap.pairs_pruned",   // kSwapPairsPruned
    "swap.rounds",         // kSwapRounds
    "swap.committed",      // kSwapsCommitted
    "sweep.arms",          // kSweepArms
    "sweep.arms_pruned",   // kSweepArmsPruned
};

struct TraceEvent {
  const char* name;
  std::string detail;
  int tid;
  double tsMicros;
  double durMicros;
};

struct TimelineEventRec {
  int pid;
  int tid;
  std::string name;
  double tsMicros;
  double durMicros;
};

struct TrackMeta {
  int pid;
  int tid;
  std::string processName;
  std::string threadName;
};

/// Per-thread counter block: a single writer (the owning thread) updates
/// cells with relaxed stores; snapshot readers load relaxed. Merging across
/// blocks is a commutative sum (or max for gauges), so totals do not depend
/// on how work was distributed over threads.
struct ThreadState {
  std::array<std::atomic<std::uint64_t>, kNumCounters> cells{};
  int traceTid = 0;
  int spanDepth = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<ThreadState*> live;
  std::array<std::uint64_t, kNumCounters> retired{};
  std::vector<TraceEvent> spanEvents;
  std::vector<TimelineEventRec> timelineEvents;
  std::vector<TrackMeta> tracks;
  std::unordered_map<std::string, SpanAggregate> aggregates;
  int nextTid = 0;
  int nextTimelinePid = 100;
  std::string tracePath;
  std::string statsPath;
  Clock::time_point epoch = Clock::now();
};

// Leaky singleton: thread-exit retirement may run during process teardown,
// after static destructors would have destroyed a plain static object.
Registry& registry() {
  static Registry* r = new Registry;
  return *r;
}

void mergeInto(std::array<std::uint64_t, kNumCounters>& into,
               const ThreadState& s) {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const std::uint64_t v = s.cells[i].load(std::memory_order_relaxed);
    if (counterMergesByMax(static_cast<Counter>(i))) {
      into[i] = std::max(into[i], v);
    } else {
      into[i] += v;
    }
  }
}

void retire(ThreadState* s) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  mergeInto(r.retired, *s);
  r.live.erase(std::remove(r.live.begin(), r.live.end(), s), r.live.end());
  delete s;
}

struct TlsHandle {
  ThreadState* state = nullptr;
  ~TlsHandle() {
    if (state != nullptr) retire(state);
  }
};
thread_local TlsHandle tlsHandle;

ThreadState& threadState() {
  if (tlsHandle.state == nullptr) {
    auto* s = new ThreadState;
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    s->traceTid = r.nextTid++;
    r.live.push_back(s);
    tlsHandle.state = s;
  }
  return *tlsHandle.state;
}

double microsSince(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

void appendNumber(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

/// Reads DAGPM_TRACE / DAGPM_STATS once at process start and arranges for
/// the configured outputs to flush at exit.
struct EnvInit {
  EnvInit() {
    const std::string trace = support::getEnvOr("DAGPM_TRACE", "");
    const std::string stats = support::getEnvOr("DAGPM_STATS", "");
    if (!trace.empty()) {
      setTracePath(trace);
      enableTracing(true);
    }
    if (!stats.empty()) {
      setStatsPath(stats);
      enableCounters(true);
    }
    if (!trace.empty() || !stats.empty()) {
      std::atexit([] { flushConfiguredOutputs(); });
    }
  }
};
const EnvInit gEnvInit;

}  // namespace

const char* counterName(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

bool counterMergesByMax(Counter c) noexcept {
  return c == Counter::kSpanPeakDepth;
}

namespace detail {

void addSlow(Counter c, std::uint64_t delta) noexcept {
  auto& cell = threadState().cells[static_cast<std::size_t>(c)];
  cell.store(cell.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

void maxSlow(Counter c, std::uint64_t value) noexcept {
  auto& cell = threadState().cells[static_cast<std::size_t>(c)];
  if (value > cell.load(std::memory_order_relaxed)) {
    cell.store(value, std::memory_order_relaxed);
  }
}

}  // namespace detail

Span::Span(const char* name) noexcept
    : start_(Clock::now()), name_(name) {
  ThreadState& s = threadState();
  savedDepth_ = s.spanDepth;
  depth_ = savedDepth_ + 1;
  s.spanDepth = depth_;
  noteMax(Counter::kSpanPeakDepth, static_cast<std::uint64_t>(depth_));
}

Span::Span(const char* name, std::string detail)
    : Span(name, std::move(detail), -1) {}

Span::Span(const char* name, std::string detail, int parentDepth)
    : start_(Clock::now()), name_(name), detail_(std::move(detail)) {
  ThreadState& s = threadState();
  savedDepth_ = s.spanDepth;
  // Inside a parallel region the TLS depth of a worker thread is 0; the
  // caller passes the logical parent depth so nesting accounting matches
  // the single-threaded execution bit for bit.
  const int base = parentDepth >= 0 ? std::max(parentDepth, savedDepth_)
                                    : savedDepth_;
  depth_ = base + 1;
  s.spanDepth = depth_;
  noteMax(Counter::kSpanPeakDepth, static_cast<std::uint64_t>(depth_));
}

Span::~Span() {
  ThreadState& s = threadState();
  s.spanDepth = savedDepth_;
  const double sec = seconds();
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  SpanAggregate& agg = r.aggregates[name_];
  if (agg.name.empty()) agg.name = name_;
  agg.calls += 1;
  agg.seconds += sec;
  if (tracingEnabled()) {
    r.spanEvents.push_back(TraceEvent{name_, detail_, s.traceTid,
                                      microsSince(r.epoch, start_),
                                      sec * 1e6});
  }
}

double Span::seconds() const noexcept {
  return std::chrono::duration<double>(Clock::now() - start_).count();
}

int currentSpanDepth() noexcept { return threadState().spanDepth; }

ThreadCounterScope::ThreadCounterScope()
    : state_(&threadState()), start_(kNumCounters, 0) {
  const ThreadState& s = *static_cast<const ThreadState*>(state_);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    start_[i] = s.cells[i].load(std::memory_order_relaxed);
  }
}

std::vector<CounterValue> ThreadCounterScope::deltas() const {
  const ThreadState& s = *static_cast<const ThreadState*>(state_);
  std::vector<CounterValue> out;
  out.reserve(kNumCounters);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    const std::uint64_t now = s.cells[i].load(std::memory_order_relaxed);
    const Counter c = static_cast<Counter>(i);
    out.push_back(CounterValue{kCounterNames[i],
                               counterMergesByMax(c) ? now : now - start_[i]});
  }
  return out;
}

CounterMove::CounterMove(CounterTally& tally) noexcept
    : tally_(&tally), state_(countersEnabled() ? &threadState() : nullptr) {
  if (state_ == nullptr) return;
  const ThreadState& s = *static_cast<const ThreadState*>(state_);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    start_[i] = s.cells[i].load(std::memory_order_relaxed);
  }
}

CounterMove::~CounterMove() {
  if (state_ == nullptr) return;
  ThreadState& s = *static_cast<ThreadState*>(state_);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (counterMergesByMax(static_cast<Counter>(i))) continue;
    const std::uint64_t delta =
        s.cells[i].load(std::memory_order_relaxed) - start_[i];
    (*tally_)[i] += delta;
    s.cells[i].store(start_[i], std::memory_order_relaxed);
  }
}

void addTally(const CounterTally& tally) noexcept {
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (tally[i] != 0) detail::addSlow(static_cast<Counter>(i), tally[i]);
  }
}

void enableCounters(bool on) noexcept {
  detail::gCountersEnabled.store(on, std::memory_order_relaxed);
}

void enableTracing(bool on) noexcept {
  detail::gTracingEnabled.store(on, std::memory_order_relaxed);
}

void setTracePath(std::string path) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.tracePath = std::move(path);
}

void setStatsPath(std::string path) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.statsPath = std::move(path);
}

void resetForTest() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.retired.fill(0);
  for (ThreadState* s : r.live) {
    for (auto& cell : s->cells) cell.store(0, std::memory_order_relaxed);
  }
  r.spanEvents.clear();
  r.timelineEvents.clear();
  r.tracks.clear();
  r.aggregates.clear();
  r.nextTimelinePid = 100;
  r.epoch = Clock::now();
}

std::vector<CounterValue> counterSnapshot() {
  std::array<std::uint64_t, kNumCounters> totals{};
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lock(r.mu);
    totals = r.retired;
    for (const ThreadState* s : r.live) mergeInto(totals, *s);
  }
  std::vector<CounterValue> out;
  out.reserve(kNumCounters);
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.push_back(CounterValue{kCounterNames[i], totals[i]});
  }
  return out;
}

std::string statsText() {
  std::vector<CounterValue> snap = counterSnapshot();
  std::sort(snap.begin(), snap.end(),
            [](const CounterValue& a, const CounterValue& b) {
              return std::strcmp(a.name, b.name) < 0;
            });
  std::string out;
  for (const CounterValue& c : snap) {
    out += c.name;
    out += ' ';
    out += std::to_string(c.value);
    out += '\n';
  }
  return out;
}

std::vector<SpanAggregate> spanAggregates() {
  Registry& r = registry();
  std::vector<SpanAggregate> out;
  {
    std::lock_guard<std::mutex> lock(r.mu);
    out.reserve(r.aggregates.size());
    for (const auto& [name, agg] : r.aggregates) out.push_back(agg);
  }
  std::sort(out.begin(), out.end(),
            [](const SpanAggregate& a, const SpanAggregate& b) {
              return a.name < b.name;
            });
  return out;
}

int reserveTimelinePid() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.nextTimelinePid++;
}

void declareTrack(int pid, int tid, const std::string& processName,
                  const std::string& threadName) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.tracks.push_back(TrackMeta{pid, tid, processName, threadName});
}

void addTimelineEvent(int pid, int tid, std::string name, double tsMicros,
                      double durMicros) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  r.timelineEvents.push_back(
      TimelineEventRec{pid, tid, std::move(name), tsMicros, durMicros});
}

std::string traceJson() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);

  std::string out;
  out.reserve(256 + 160 * (r.spanEvents.size() + r.timelineEvents.size()));
  out += "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&] {
    if (!first) out += ",\n";
    first = false;
  };
  auto metadata = [&](int pid, int tid, const char* what,
                      const std::string& name) {
    comma();
    out += "{\"ph\":\"M\",\"pid\":" + std::to_string(pid);
    if (tid >= 0) out += ",\"tid\":" + std::to_string(tid);
    out += ",\"name\":\"";
    out += what;
    out += "\",\"args\":{\"name\":\"" + support::jsonEscape(name) + "\"}}";
  };

  // Process/thread track metadata: the solver process plus every declared
  // timeline track (schedule instances).
  metadata(kSolverPid, -1, "process_name", "dagpm solver");
  std::vector<int> solverTids;
  for (const TraceEvent& e : r.spanEvents) solverTids.push_back(e.tid);
  std::sort(solverTids.begin(), solverTids.end());
  solverTids.erase(std::unique(solverTids.begin(), solverTids.end()),
                   solverTids.end());
  for (const int tid : solverTids) {
    metadata(kSolverPid, tid, "thread_name",
             tid == 0 ? std::string("main") : "worker " + std::to_string(tid));
  }
  std::vector<int> namedPids;
  for (const TrackMeta& t : r.tracks) {
    if (std::find(namedPids.begin(), namedPids.end(), t.pid) ==
        namedPids.end()) {
      namedPids.push_back(t.pid);
      metadata(t.pid, -1, "process_name", t.processName);
    }
    metadata(t.pid, t.tid, "thread_name", t.threadName);
  }

  // Complete ("X") events, sorted by timestamp so readers (and the monotone
  // test) see a time-ordered stream.
  struct FlatEvent {
    int pid;
    int tid;
    double ts;
    double dur;
    std::string name;
  };
  std::vector<FlatEvent> events;
  events.reserve(r.spanEvents.size() + r.timelineEvents.size());
  for (const TraceEvent& e : r.spanEvents) {
    std::string name = e.name;
    if (!e.detail.empty()) {
      name += " [";
      name += e.detail;
      name += ']';
    }
    events.push_back(
        FlatEvent{kSolverPid, e.tid, e.tsMicros, e.durMicros, std::move(name)});
  }
  for (const TimelineEventRec& e : r.timelineEvents) {
    events.push_back(FlatEvent{e.pid, e.tid, e.tsMicros, e.durMicros, e.name});
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FlatEvent& a, const FlatEvent& b) {
                     return a.ts < b.ts;
                   });
  for (const FlatEvent& e : events) {
    comma();
    out += "{\"ph\":\"X\",\"pid\":" + std::to_string(e.pid) +
           ",\"tid\":" + std::to_string(e.tid) + ",\"ts\":";
    appendNumber(out, e.ts);
    out += ",\"dur\":";
    appendNumber(out, std::max(0.0, e.dur));
    out += ",\"name\":\"" + support::jsonEscape(e.name) + "\"}";
  }
  out += "]}\n";
  return out;
}

bool writeTrace(const std::string& path) {
  const std::string doc = traceJson();
  std::ofstream file(path, std::ios::binary);
  if (!file) return false;
  file << doc;
  return static_cast<bool>(file);
}

void flushConfiguredOutputs() {
  std::string tracePath;
  std::string statsPath;
  {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    tracePath = r.tracePath;
    statsPath = r.statsPath;
  }
  if (!tracePath.empty() && tracingEnabled()) {
    if (!writeTrace(tracePath)) {
      std::cerr << "obs: failed to write trace to " << tracePath << '\n';
    }
  }
  if (!statsPath.empty() && countersEnabled()) {
    const std::string text = statsText();
    if (statsPath == "-") {
      std::cout << text;
    } else {
      std::ofstream file(statsPath, std::ios::binary);
      if (file) {
        file << text;
      } else {
        std::cerr << "obs: failed to write stats to " << statsPath << '\n';
      }
    }
  }
}

}  // namespace dagpm::obs
