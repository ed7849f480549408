// Tests for the scheduling service: exact request keys, the LRU schedule
// cache, the concurrent executor, per-request counter attribution, graceful
// degradation, and multi-tenant co-scheduling.
//
// The load-bearing test is ConcurrentDifferential: N worker threads churning
// through a shuffled, duplicated request stream must produce schedules
// bit-identical to a sequential cold solve of each distinct request — and
// the service must solve each distinct request exactly once (cache +
// single-flight coalescing), so its counter totals are deterministic under
// any interleaving.

#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <string_view>
#include <vector>

#include <omp.h>

#include "comm/cost_model.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/options.hpp"
#include "service/cache.hpp"
#include "service/request_key.hpp"
#include "service/multitenant.hpp"
#include "service/service.hpp"
#include "test_util.hpp"
#include "workflows/families.hpp"

namespace dagpm {
namespace {

using service::Algorithm;
using service::SchedulerService;
using service::ServiceConfig;

/// Bitwise schedule equality: the service's cache/coalescing contract.
void expectIdentical(const scheduler::ScheduleResult& a,
                     const scheduler::ScheduleResult& b) {
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.makespan, b.makespan);  // exact, not approximate
  EXPECT_EQ(a.blockOf, b.blockOf);
  EXPECT_EQ(a.procOfBlock, b.procOfBlock);
}

/// Heterogeneous 6-processor cluster with base memory `mem` per processor.
platform::Cluster testCluster(double mem = 2.0e4) {
  std::vector<platform::Processor> procs;
  for (int p = 0; p < 6; ++p) {
    procs.push_back({"p" + std::to_string(p), 1.0 + 0.5 * (p % 3),
                     mem * (1.0 + 0.25 * (p % 2))});
  }
  return platform::Cluster(std::move(procs), 2.0);
}

/// A memory-tight cluster for the given workflows (cf. makeTightFuzzCase):
/// tight memories force genuinely multi-block schedules whose inter-block
/// transfers the multi-tenant evaluation has something to contend over.
platform::Cluster tightClusterFor(const std::vector<graph::Dag>& dags) {
  double maxTask = 0.0;
  for (const graph::Dag& g : dags) {
    maxTask = std::max(maxTask, g.maxTaskMemoryRequirement());
  }
  return testCluster(maxTask * 1.5);
}

workflows::GenConfig genConfig(int tasks, std::uint64_t seed) {
  workflows::GenConfig cfg;
  cfg.numTasks = tasks;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// Request keys
// ---------------------------------------------------------------------------

std::string defaultKey(const graph::Dag& g, const platform::Cluster& cluster) {
  return service::requestKey(g, cluster, {}, Algorithm::kDagHetPart);
}

TEST(ServiceRequestKey, IsomorphicRepeatsCollapse) {
  // Two independent generations with identical family/shape/params/seed are
  // the same workflow content, so their keys are equal: repeated requests
  // for "a Montage of 80 tasks, seed 7" share one cache entry.
  const platform::Cluster cluster = testCluster();
  const graph::Dag a =
      workflows::generate(workflows::Family::kMontage, genConfig(80, 7));
  const graph::Dag b =
      workflows::generate(workflows::Family::kMontage, genConfig(80, 7));
  EXPECT_EQ(defaultKey(a, cluster), defaultKey(b, cluster));
  // 8 bytes per field: V and E counts, 2 per vertex, 3 per edge, the
  // processor count, 2 per processor, the bandwidth and 12 config words.
  EXPECT_EQ(defaultKey(a, cluster).size(),
            8 * (2 + 2 * a.numVertices() + 3 * a.numEdges() + 2 +
                 2 * cluster.numProcessors() + 12));

  const graph::Dag other =
      workflows::generate(workflows::Family::kMontage, genConfig(80, 8));
  EXPECT_NE(defaultKey(a, cluster), defaultKey(other, cluster));
  EXPECT_NE(defaultKey(a, cluster), defaultKey(a, testCluster(3.0e4)));
}

TEST(ServiceRequestKey, ScheduleRelevantFieldsEnterTheKey) {
  const graph::Dag g =
      workflows::generate(workflows::Family::kSeismology, genConfig(60, 1));
  const platform::Cluster cluster = testCluster();
  const scheduler::DagHetPartConfig cfg;
  const std::string base =
      service::requestKey(g, cluster, cfg, Algorithm::kDagHetPart);

  // One row per schedule-relevant config field, moved off its default, plus
  // the algorithm selector: every row gives a key that neither the default
  // nor any other row gives.
  std::vector<std::string> seen = {base};
  const auto expectNewKey = [&](std::string key) {
    for (const std::string& other : seen) {
      EXPECT_NE(key, other) << "row " << seen.size();
    }
    seen.push_back(std::move(key));
  };
  const auto expectMoves = [&](auto change) {
    scheduler::DagHetPartConfig changed = cfg;
    change(changed);
    expectNewKey(
        service::requestKey(g, cluster, changed, Algorithm::kDagHetPart));
  };
  using C = scheduler::DagHetPartConfig;
  using Balance = partition::PartitionConfig::BalanceWeight;
  expectMoves([](C& c) { c.seed = 2; });
  expectMoves([](C& c) { c.sweep = scheduler::KPrimeSweep::kFull; });
  expectMoves([](C& c) { c.step1Epsilon = 0.2; });
  expectMoves([](C& c) { c.step1Balance = Balance::kMemoryFootprint; });
  expectMoves([](C& c) { c.oracle.useSpization = false; });
  expectMoves([](C& c) { c.preferOffCriticalPath = false; });
  expectMoves([](C& c) { c.anyHostFallback = false; });
  expectMoves([](C& c) { c.enableSwaps = false; });
  expectMoves([](C& c) { c.enableIdleMoves = false; });
  expectMoves([](C& c) { c.memoryBalanceFallback = false; });
  expectMoves([](C& c) { c.options.contentionAware = true; });
  expectNewKey(service::requestKey(g, cluster, cfg, Algorithm::kDagHetMem));
  expectNewKey(service::requestKey(g, cluster, cfg, Algorithm::kBest));
}

TEST(ServiceRequestKey, ProvenNoOpSwitchesExcluded) {
  // fullReevaluation provably does not change the schedule (a pinned
  // invariant), so it must NOT change the key: a cache entry stays valid
  // across evaluation modes.
  const graph::Dag g =
      workflows::generate(workflows::Family::kBlast, genConfig(60, 3));
  const platform::Cluster cluster = testCluster();
  scheduler::DagHetPartConfig cfg;
  const std::string base =
      service::requestKey(g, cluster, cfg, Algorithm::kDagHetPart);

  scheduler::DagHetPartConfig changed = cfg;
  changed.options.fullReevaluation = true;
  EXPECT_EQ(base,
            service::requestKey(g, cluster, changed, Algorithm::kDagHetPart));
}

// ---------------------------------------------------------------------------
// LRU cache
// ---------------------------------------------------------------------------

scheduler::ScheduleResult dummySchedule(double makespan) {
  scheduler::ScheduleResult r;
  r.feasible = true;
  r.makespan = makespan;
  return r;
}

TEST(ServiceCache, LruEvictionAndStats) {
  service::ScheduleCache cache(2);
  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert("a", dummySchedule(1.0));
  cache.insert("b", dummySchedule(2.0));
  ASSERT_TRUE(cache.lookup("a").has_value());  // "a" now most recent
  cache.insert("c", dummySchedule(3.0));       // evicts "b"
  EXPECT_FALSE(cache.lookup("b").has_value());
  ASSERT_TRUE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.lookup("a")->makespan, 1.0);
  ASSERT_TRUE(cache.lookup("c").has_value());
  EXPECT_EQ(cache.size(), 2u);

  const service::CacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 4u);
}

TEST(ServiceCache, KeysCompareInFull) {
  // Keys sharing a long prefix, differing only in their last byte, or being
  // prefixes of each other are distinct requests: each keeps its own entry.
  const std::string prefix(100000, 'k');
  std::string lastByte = prefix + "xy";
  lastByte.back() = 'z';
  const std::vector<std::string> keys = {prefix, prefix + "xy", lastByte,
                                         prefix + "x", prefix.substr(1)};
  service::ScheduleCache cache(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cache.insert(keys[i], dummySchedule(static_cast<double>(i)));
  }
  EXPECT_EQ(cache.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::optional<scheduler::ScheduleResult> hit = cache.lookup(keys[i]);
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_EQ(hit->makespan, static_cast<double>(i)) << "key " << i;
  }
  EXPECT_FALSE(cache.lookup(prefix + "xyz").has_value());
  EXPECT_FALSE(cache.lookup(prefix.substr(2)).has_value());

  // LRU still holds: refresh keys[0], then one more entry evicts keys[1],
  // the least recently used, and nothing else.
  ASSERT_TRUE(cache.lookup(keys[0]).has_value());
  cache.insert(prefix + "xyz", dummySchedule(9.0));
  EXPECT_EQ(cache.size(), keys.size());
  EXPECT_FALSE(cache.lookup(keys[1]).has_value());
  for (const std::size_t i : {0u, 2u, 3u, 4u}) {
    const std::optional<scheduler::ScheduleResult> hit = cache.lookup(keys[i]);
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_EQ(hit->makespan, static_cast<double>(i)) << "key " << i;
  }
  ASSERT_TRUE(cache.lookup(prefix + "xyz").has_value());
  EXPECT_EQ(cache.lookup(prefix + "xyz")->makespan, 9.0);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ServiceCache, ZeroCapacityDisables) {
  service::ScheduleCache cache(0);
  cache.insert("a", dummySchedule(1.0));
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// The concurrent engine
// ---------------------------------------------------------------------------

TEST(ServiceEngine, ConcurrentDifferential) {
  // Distinct workflows across families/seeds, each requested several times,
  // interleaved. Whatever the interleaving: every response is bit-identical
  // to the sequential cold solve, and each distinct request is solved
  // exactly once.
  const platform::Cluster cluster = testCluster();
  std::vector<graph::Dag> dags;
  dags.push_back(
      workflows::generate(workflows::Family::kSeismology, genConfig(60, 1)));
  dags.push_back(
      workflows::generate(workflows::Family::kMontage, genConfig(70, 2)));
  dags.push_back(
      workflows::generate(workflows::Family::kEpigenomics, genConfig(60, 3)));
  dags.push_back(
      workflows::generate(workflows::Family::kBwa, genConfig(60, 4)));

  scheduler::DagHetPartConfig cfg;
  std::vector<scheduler::ScheduleResult> reference;
  reference.reserve(dags.size());
  for (const graph::Dag& g : dags) {
    reference.push_back(scheduler::dagHetPart(g, cluster, cfg));
    ASSERT_TRUE(reference.back().feasible);
  }

  ServiceConfig sc;
  sc.numThreads = 4;
  SchedulerService svc(sc);
  constexpr int kRepeats = 3;
  std::vector<std::future<service::Response>> futures;
  for (int r = 0; r < kRepeats; ++r) {
    for (std::size_t i = 0; i < dags.size(); ++i) {
      // Interleave the repeats so duplicates meet in flight or in cache.
      service::Request req;
      req.dag = &dags[i];
      req.cluster = &cluster;
      req.config = cfg;
      futures.push_back(svc.submit(std::move(req)));
    }
  }
  for (std::size_t f = 0; f < futures.size(); ++f) {
    service::Response resp = futures[f].get();
    expectIdentical(resp.schedule, reference[f % dags.size()]);
  }
  svc.drain();

  const service::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.submitted, dags.size() * kRepeats);
  EXPECT_EQ(m.completed, dags.size() * kRepeats);
  // The deterministic-solve-set guarantee: one solve per distinct request,
  // everything else served by the cache or coalesced onto the leader.
  EXPECT_EQ(m.solves, dags.size());
  EXPECT_EQ(m.cacheHits + m.coalesced, dags.size() * (kRepeats - 1));
  EXPECT_EQ(m.infeasible, 0u);
  EXPECT_EQ(m.cacheSize, dags.size());
}

TEST(ServiceEngine, CacheHitIsBitIdenticalToColdSolve) {
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kGenome1000, genConfig(80, 5));

  ServiceConfig sc;
  sc.numThreads = 1;
  SchedulerService svc(sc);
  service::Request req;
  req.dag = &g;
  req.cluster = &cluster;
  const service::Response cold = svc.submit(req).get();
  EXPECT_FALSE(cold.cacheHit);
  ASSERT_TRUE(cold.schedule.feasible);

  const service::Response warm = svc.submit(req).get();
  EXPECT_TRUE(warm.cacheHit);
  expectIdentical(warm.schedule, cold.schedule);
  EXPECT_EQ(warm.solveSeconds, 0.0);
}

TEST(ServiceEngine, FullReevaluationRequestMatchesIncremental) {
  // A per-request fullReevaluation switch reaches the solve, and the
  // schedules are bit-identical either way (the pinned invariant), which
  // this pins end-to-end through the service.
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kSoyKb, genConfig(60, 6));

  ServiceConfig sc;
  sc.numThreads = 2;
  sc.cacheCapacity = 0;  // force both submissions to actually solve
  SchedulerService svc(sc);
  service::Request req;
  req.dag = &g;
  req.cluster = &cluster;
  const service::Response incremental = svc.submit(req).get();
  req.config.options.fullReevaluation = true;
  const service::Response full = svc.submit(req).get();
  ASSERT_TRUE(incremental.schedule.feasible);
  expectIdentical(full.schedule, incremental.schedule);
}

TEST(ServiceEngine, TrySubmitRejectsWhenFull) {
  ServiceConfig sc;
  sc.numThreads = 1;
  sc.queueCapacity = 1;
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kBlast, genConfig(400, 9));

  SchedulerService svc(sc);
  std::vector<std::future<service::Response>> accepted;
  std::uint64_t rejected = 0;
  // One request occupies the worker; with a 1-slot queue at least one of
  // the next burst must be refused (timing decides exactly how many).
  for (int i = 0; i < 8; ++i) {
    std::future<service::Response> out;
    service::Request req;
    req.dag = &g;
    req.cluster = &cluster;
    req.config.seed = static_cast<std::uint64_t>(i + 1);  // distinct jobs
    if (svc.trySubmit(std::move(req), &out)) {
      accepted.push_back(std::move(out));
    } else {
      ++rejected;
    }
  }
  for (std::future<service::Response>& f : accepted) f.get();
  svc.drain();  // futures resolve before the worker's completion bookkeeping
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(svc.metrics().rejected, rejected);
  EXPECT_EQ(svc.metrics().completed, accepted.size());
}

TEST(ServiceEngine, PerRequestCounterAttribution) {
  // Counters on: a solved request reports its own probe counts; cache hits
  // report none. The sum of per-request deltas for a sum-merged counter
  // equals the process-global total when the service is the only writer.
  obs::enableCounters(true);
  obs::resetForTest();
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kSeismology, genConfig(60, 11));

  ServiceConfig sc;
  sc.numThreads = 1;
  SchedulerService svc(sc);
  service::Request req;
  req.dag = &g;
  req.cluster = &cluster;
  const service::Response cold = svc.submit(req).get();
  const service::Response warm = svc.submit(req).get();
  obs::enableCounters(false);

  ASSERT_FALSE(cold.counters.empty());
  EXPECT_TRUE(warm.counters.empty());  // no solve, no attribution
  std::uint64_t coldProbes = 0;
  for (const obs::CounterValue& c : cold.counters) {
    if (std::string_view(c.name) == "sweep.arms") coldProbes = c.value;
  }
  EXPECT_GT(coldProbes, 0u);
  for (const obs::CounterValue& total : obs::counterSnapshot()) {
    if (std::string_view(total.name) == "sweep.arms") {
      EXPECT_EQ(total.value, coldProbes);
    }
  }
  obs::resetForTest();
}

TEST(ServiceEngine, WorkersKeepInnerParallelRegionsOnTheWorkerThread) {
  // With an OpenMP team available, the Step-4 swap scan would fork inside a
  // worker and the probes made on the team threads would escape the
  // worker's ThreadCounterScope. Pinned workers attribute every count: the
  // response's deltas equal a sequential single-thread solve's.
  if (omp_get_max_threads() < 2) {
    GTEST_SKIP() << "needs OMP_NUM_THREADS > 1";
  }
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kMontage, genConfig(200, 5));
  scheduler::DagHetPartConfig cfg;

  obs::enableCounters(true);
  obs::resetForTest();
  const std::vector<obs::CounterValue> sequential =
      test::withOmpThreads(1, [&] {
        const obs::ThreadCounterScope scope;
        EXPECT_TRUE(scheduler::dagHetPart(g, cluster, cfg).feasible);
        return scope.deltas();
      });
  ServiceConfig sc;
  sc.numThreads = 2;
  SchedulerService svc(sc);
  service::Request req;
  req.dag = &g;
  req.cluster = &cluster;
  req.config = cfg;
  const service::Response response = svc.submit(req).get();
  obs::enableCounters(false);
  obs::resetForTest();

  ASSERT_TRUE(response.schedule.feasible);
  ASSERT_EQ(response.counters.size(), sequential.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const std::string_view name = sequential[i].name;
    ASSERT_EQ(std::string_view(response.counters[i].name), name);
    if (name == "swap.pairs_probed") {
      EXPECT_GE(sequential[i].value, 2u);
    }
    if (name == "span.peak_depth") continue;  // max gauge, not a delta
    EXPECT_EQ(response.counters[i].value, sequential[i].value) << name;
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation: exception isolation, the deadline ladder, and the
// per-worker circuit breaker
// ---------------------------------------------------------------------------

TEST(ServiceDegradation, PoolSurvivesPoisonedRequest) {
  // A poisoned request (null workflow pointer) must fail its own future with
  // the solver's exception — and nothing else. The worker that processed it
  // stays alive and serves the healthy request behind it.
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kSeismology, genConfig(60, 31));

  ServiceConfig sc;
  sc.numThreads = 1;  // the poisoned and healthy jobs share one worker
  SchedulerService svc(sc);
  service::Request poison;  // dag == cluster == nullptr
  std::future<service::Response> bad = svc.submit(std::move(poison));
  EXPECT_THROW(bad.get(), std::invalid_argument);

  service::Request req;
  req.dag = &g;
  req.cluster = &cluster;
  const service::Response ok = svc.submit(std::move(req)).get();
  EXPECT_TRUE(ok.schedule.feasible);
  svc.drain();
  const service::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.completed, 2u);  // the failed job still retired cleanly
  EXPECT_EQ(m.solves, 1u);
}

TEST(ServiceDegradation, CyclicRequestFailsItsFutureAndPoolKeepsServing) {
  // A cyclic workflow fails the request's own future with the solver's
  // input error, for both algorithms and on the deadline ladder's HEFT
  // fast path; after each, the worker serves the healthy request behind it.
  const platform::Cluster cluster = testCluster();
  const graph::Dag cyclic = test::cyclicWorkflow();
  const graph::Dag g =
      workflows::generate(workflows::Family::kSeismology, genConfig(60, 31));

  ServiceConfig sc;
  sc.numThreads = 1;  // the cyclic and healthy jobs share one worker
  SchedulerService svc(sc);
  const auto failsThenServes = [&](Algorithm algorithm, double budget) {
    service::Request bad;
    bad.dag = &cyclic;
    bad.cluster = &cluster;
    bad.algorithm = algorithm;
    bad.deadlineBudget = budget;
    EXPECT_THROW(svc.submit(std::move(bad)).get(), std::invalid_argument);
    service::Request req;
    req.dag = &g;
    req.cluster = &cluster;
    EXPECT_TRUE(svc.submit(std::move(req)).get().schedule.feasible);
  };
  failsThenServes(Algorithm::kDagHetPart, 0.0);
  failsThenServes(Algorithm::kDagHetMem, 0.0);
  // Too small a budget for the full solve, enough for the HEFT fast path.
  failsThenServes(Algorithm::kDagHetPart, 1.0);
  svc.drain();
  EXPECT_EQ(svc.metrics().completed, 6u);
}

TEST(ServiceDegradation, LadderIsDeterministicAcrossWorkerCounts) {
  // The deadline ladder decides on cost-model estimates, never wall clocks,
  // so an identical request sequence must produce identical per-response
  // rung flags, identical schedules, and identical ladder metrics whether
  // one worker or four process it. The cache rung is pre-warmed and drained
  // before any deadline request so its decision is pinned too.
  const platform::Cluster cluster = testCluster();
  const graph::Dag warm =
      workflows::generate(workflows::Family::kMontage, genConfig(60, 41));
  const graph::Dag fresh =
      workflows::generate(workflows::Family::kSeismology, genConfig(60, 42));
  const graph::Dag big =
      workflows::generate(workflows::Family::kBlast, genConfig(60, 43));

  struct Run {
    std::vector<service::Response> responses;
    service::ServiceMetrics metrics;
  };
  constexpr int kRepeats = 3;
  const auto run = [&](int threads) {
    ServiceConfig sc;
    sc.numThreads = threads;
    SchedulerService svc(sc);
    Run out;
    service::Request w;
    w.dag = &warm;
    w.cluster = &cluster;
    out.responses.push_back(svc.submit(w).get());  // cache the full solve
    svc.drain();
    std::vector<std::future<service::Response>> futures;
    for (int r = 0; r < kRepeats; ++r) {
      // 60 tasks: full-solve estimate 60, HEFT estimate 3 (default costs).
      service::Request cached = w;  // rung 1: budget misses, cache serves
      cached.deadlineBudget = 10.0;
      futures.push_back(svc.submit(std::move(cached)));
      service::Request degrade;  // rung 2: uncached, HEFT estimate fits
      degrade.dag = &fresh;
      degrade.cluster = &cluster;
      degrade.deadlineBudget = 10.0;
      futures.push_back(svc.submit(std::move(degrade)));
      service::Request reject;  // rung 3: even HEFT blows the budget
      reject.dag = &big;
      reject.cluster = &cluster;
      reject.deadlineBudget = 1.0;
      futures.push_back(svc.submit(std::move(reject)));
    }
    for (std::future<service::Response>& f : futures) {
      out.responses.push_back(f.get());
    }
    svc.drain();
    out.metrics = svc.metrics();
    return out;
  };

  const Run solo = run(1);
  const Run pool = run(4);
  ASSERT_EQ(solo.responses.size(), pool.responses.size());
  for (std::size_t i = 0; i < solo.responses.size(); ++i) {
    EXPECT_EQ(solo.responses[i].deadlineMissed,
              pool.responses[i].deadlineMissed);
    EXPECT_EQ(solo.responses[i].cacheHit, pool.responses[i].cacheHit);
    EXPECT_EQ(solo.responses[i].degraded, pool.responses[i].degraded);
    EXPECT_EQ(solo.responses[i].rejected, pool.responses[i].rejected);
    expectIdentical(solo.responses[i].schedule, pool.responses[i].schedule);
  }
  // The rung each position must land on (same for both worker counts).
  for (int r = 0; r < kRepeats; ++r) {
    const service::Response& cached = solo.responses[1 + 3 * r];
    EXPECT_TRUE(cached.deadlineMissed);
    EXPECT_TRUE(cached.cacheHit);  // full fidelity despite the missed budget
    EXPECT_FALSE(cached.degraded);
    expectIdentical(cached.schedule, solo.responses[0].schedule);
    const service::Response& degraded = solo.responses[2 + 3 * r];
    EXPECT_TRUE(degraded.deadlineMissed);
    EXPECT_TRUE(degraded.degraded);
    EXPECT_FALSE(degraded.cacheHit);
    EXPECT_FALSE(degraded.rejected);
    const service::Response& rejected = solo.responses[3 + 3 * r];
    EXPECT_TRUE(rejected.deadlineMissed);
    EXPECT_TRUE(rejected.rejected);
    EXPECT_FALSE(rejected.schedule.feasible);  // well-formed, not an exception
  }
  EXPECT_EQ(solo.metrics.deadlineMisses, 3u * kRepeats);
  EXPECT_EQ(solo.metrics.degraded, static_cast<std::uint64_t>(kRepeats));
  EXPECT_EQ(solo.metrics.deadlineRejected,
            static_cast<std::uint64_t>(kRepeats));
  EXPECT_EQ(solo.metrics.solves, 1u);  // degraded responses never re-solve
  EXPECT_EQ(pool.metrics.deadlineMisses, solo.metrics.deadlineMisses);
  EXPECT_EQ(pool.metrics.degraded, solo.metrics.degraded);
  EXPECT_EQ(pool.metrics.deadlineRejected, solo.metrics.deadlineRejected);
  EXPECT_EQ(pool.metrics.solves, solo.metrics.solves);
  EXPECT_EQ(pool.metrics.infeasible, solo.metrics.infeasible);
  EXPECT_EQ(pool.metrics.breakerTrips, 0u);
}

TEST(ServiceDegradation, TrippedBreakerDrainsDeterministically) {
  // One worker, so the breaker's whole life cycle is a function of the job
  // sequence alone: 3 consecutive failures trip it, exactly 2 jobs fail
  // fast, the next job is the half-open probe. A failed probe reopens with
  // a doubled window; a healthy probe closes it.
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kBwa, genConfig(60, 51));

  ServiceConfig sc;
  sc.numThreads = 1;
  SchedulerService svc(sc);
  const auto poison = [&svc] {
    return svc.submit(service::Request{});  // fails inside solve()
  };
  const auto healthy = [&](std::uint64_t seed) {
    service::Request r;
    r.dag = &g;
    r.cluster = &cluster;
    r.config.seed = seed;  // distinct requests: no cache interference
    return svc.submit(std::move(r));
  };

  EXPECT_THROW(poison().get(), std::invalid_argument);
  EXPECT_THROW(poison().get(), std::invalid_argument);
  EXPECT_THROW(poison().get(), std::invalid_argument);  // third failure trips
  // Exactly 2 jobs fail fast, healthy or not.
  EXPECT_THROW(healthy(1).get(), std::runtime_error);
  EXPECT_THROW(healthy(2).get(), std::runtime_error);
  // Window drained: this job is the half-open probe; healthy, so it closes
  // the breaker and normal service resumes.
  EXPECT_TRUE(healthy(3).get().schedule.feasible);
  EXPECT_TRUE(healthy(4).get().schedule.feasible);
  svc.drain();
  service::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.breakerTrips, 1u);
  EXPECT_EQ(m.breakerFastFails, 2u);
  EXPECT_EQ(m.completed, 7u);

  // Trip again; this time the probe itself fails, reopening the breaker
  // with a doubled window (4 fast-fails) before a healthy probe closes it.
  EXPECT_THROW(poison().get(), std::invalid_argument);
  EXPECT_THROW(poison().get(), std::invalid_argument);
  EXPECT_THROW(poison().get(), std::invalid_argument);  // trip #2
  EXPECT_THROW(healthy(5).get(), std::runtime_error);
  EXPECT_THROW(healthy(6).get(), std::runtime_error);
  EXPECT_THROW(poison().get(), std::invalid_argument);  // failed probe: trip #3
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_THROW(healthy(10 + i).get(), std::runtime_error);
  }
  EXPECT_TRUE(healthy(20).get().schedule.feasible);  // healthy probe closes
  svc.drain();
  m = svc.metrics();
  EXPECT_EQ(m.breakerTrips, 3u);
  EXPECT_EQ(m.breakerFastFails, 2u + 2u + 4u);
}

TEST(ServiceDegradation, ConcurrentPoisonedRequestsEachFailAlone) {
  // A poisoned request has no key, so it never meets another one in the
  // cache or the in-flight table: each of these concurrent poisoned
  // requests fails on its own (inside solve(), or fast once its worker's
  // breaker has tripped), none coalesces onto another's failure, and
  // nothing is solved.
  const graph::Dag g =
      workflows::generate(workflows::Family::kBwa, genConfig(60, 52));
  const platform::Cluster cluster = testCluster();
  ServiceConfig sc;
  sc.numThreads = 4;
  SchedulerService svc(sc);
  std::vector<std::future<service::Response>> futures;
  for (int i = 0; i < 8; ++i) {
    service::Request poison;
    // Half null workflows, half null clusters: both are poisoned.
    if (i % 2 == 0) {
      poison.cluster = &cluster;
    } else {
      poison.dag = &g;
    }
    futures.push_back(svc.submit(std::move(poison)));
  }
  for (std::future<service::Response>& f : futures) {
    EXPECT_ANY_THROW(f.get());
  }
  svc.drain();
  const service::ServiceMetrics m = svc.metrics();
  EXPECT_EQ(m.coalesced, 0u);
  EXPECT_EQ(m.solves, 0u);
  EXPECT_EQ(m.cacheHits, 0u);
  EXPECT_EQ(m.cache.hits + m.cache.misses, 0u);  // no probe without a key
  EXPECT_EQ(m.completed, futures.size());
}

TEST(ServiceDegradation, HeftRungReturnsValidOrInfeasible) {
  // The HEFT rung folds a task-level mapping into one block per used
  // processor. The fold can overflow a processor or make the quotient
  // cyclic, and HEFT's own makespan is not the block model's: a degraded
  // response flagged feasible must pass the validator, makespan included.
  const graph::Dag g =
      workflows::generate(workflows::Family::kSeismology, genConfig(60, 1));
  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(20.0 * g.maxTaskMemoryRequirement());

  SchedulerService svc(ServiceConfig{});
  service::Request req;
  req.dag = &g;
  req.cluster = &cluster;
  req.deadlineBudget = 10.0;  // between the HEFT (3) and full (60) estimates
  const service::Response resp = svc.submit(std::move(req)).get();
  ASSERT_TRUE(resp.degraded);
  EXPECT_EQ(resp.schedule.makespan,
            scheduler::staticMakespan(g, cluster, resp.schedule));
  if (resp.schedule.feasible) {
    const memory::MemDagOracle oracle(g);
    const scheduler::ValidationReport report =
        scheduler::validateSchedule(g, cluster, oracle, resp.schedule);
    EXPECT_TRUE(report.valid) << report.error;
  }
}

// ---------------------------------------------------------------------------
// Multi-tenant co-scheduling
// ---------------------------------------------------------------------------

TEST(ServiceMultiTenant, UncontendedTenantsDoNotInteract) {
  // With the uncontended model transfers never slow each other down, so
  // each tenant's response time equals its solo makespan exactly and every
  // stretch is 1 — the differential that pins the combined-problem plumbing
  // (offsets, orders, arrivals) against the solo evaluations.
  std::vector<graph::Dag> dags;
  dags.push_back(
      workflows::generate(workflows::Family::kMontage, genConfig(70, 21)));
  dags.push_back(
      workflows::generate(workflows::Family::kBwa, genConfig(60, 22)));
  const platform::Cluster cluster = tightClusterFor(dags);
  scheduler::DagHetPartConfig cfg;
  std::vector<scheduler::ScheduleResult> schedules;
  for (const graph::Dag& g : dags) {
    schedules.push_back(scheduler::dagHetPart(g, cluster, cfg));
    ASSERT_TRUE(schedules.back().feasible);
  }

  std::vector<service::Tenant> tenants(2);
  tenants[0] = {&dags[0], &schedules[0], 0.0};
  tenants[1] = {&dags[1], &schedules[1], 0.0};
  const service::CoScheduleResult co =
      service::coSchedule(tenants, cluster, comm::uncontendedCommModel());
  ASSERT_TRUE(co.ok);
  ASSERT_EQ(co.tenants.size(), 2u);
  for (const service::TenantOutcome& t : co.tenants) {
    EXPECT_GT(t.soloMakespan, 0.0);
    EXPECT_EQ(t.responseTime, t.soloMakespan);  // exact: same fluid pass
    EXPECT_EQ(t.stretch, 1.0);
  }
  EXPECT_EQ(co.combinedMakespan,
            std::max(co.tenants[0].finish, co.tenants[1].finish));
}

TEST(ServiceMultiTenant, FairSharePricesContentionAndArrivalsDelay) {
  std::vector<graph::Dag> dags;
  dags.push_back(
      workflows::generate(workflows::Family::kMontage, genConfig(70, 21)));
  dags.push_back(
      workflows::generate(workflows::Family::kBwa, genConfig(60, 22)));
  const platform::Cluster cluster = tightClusterFor(dags);
  scheduler::DagHetPartConfig cfg;
  std::vector<scheduler::ScheduleResult> schedules;
  for (const graph::Dag& g : dags) {
    schedules.push_back(scheduler::dagHetPart(g, cluster, cfg));
    ASSERT_TRUE(schedules.back().feasible);
  }

  std::vector<service::Tenant> tenants(2);
  tenants[0] = {&dags[0], &schedules[0], 0.0};
  tenants[1] = {&dags[1], &schedules[1], 0.0};
  const service::CoScheduleResult contended =
      service::coSchedule(tenants, cluster, comm::fairShareCommModel());
  ASSERT_TRUE(contended.ok);
  for (const service::TenantOutcome& t : contended.tenants) {
    // Fair sharing can only delay transfers: response >= solo, to fp slack.
    EXPECT_GE(t.responseTime, t.soloMakespan - 1e-9);
    EXPECT_GE(t.stretch, 1.0 - 1e-12);
  }

  // A late arrival starts no earlier than its release and, released after
  // the other tenant's transfers have drained, interacts less: its stretch
  // cannot exceed the simultaneous-release stretch.
  const double late = 10.0 * contended.combinedMakespan;
  tenants[1].arrival = late;
  const service::CoScheduleResult staggered =
      service::coSchedule(tenants, cluster, comm::fairShareCommModel());
  ASSERT_TRUE(staggered.ok);
  EXPECT_GE(staggered.tenants[1].start, late);
  EXPECT_EQ(staggered.tenants[1].responseTime,
            staggered.tenants[1].soloMakespan);  // alone after release
  EXPECT_GE(staggered.combinedMakespan, late);
}

TEST(ServiceMultiTenant, RejectsUnusableTenants) {
  const platform::Cluster cluster = testCluster();
  const graph::Dag g =
      workflows::generate(workflows::Family::kBlast, genConfig(60, 23));
  scheduler::ScheduleResult infeasible;  // feasible = false
  std::vector<service::Tenant> tenants(1);
  tenants[0] = {&g, &infeasible, 0.0};
  EXPECT_FALSE(
      service::coSchedule(tenants, cluster, comm::uncontendedCommModel()).ok);
  // An empty tenant list is trivially co-schedulable.
  const service::CoScheduleResult empty =
      service::coSchedule({}, cluster, comm::uncontendedCommModel());
  EXPECT_TRUE(empty.ok);
  EXPECT_EQ(empty.combinedMakespan, 0.0);
}

}  // namespace
}  // namespace dagpm
