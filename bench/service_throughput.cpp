// Scheduling-as-a-service throughput (ISSUE 8; no paper figure): an
// open-loop arrival process drives a SchedulerService worker pool with a
// mixed stream of workflow requests (distinct workflows plus repeats), and
// the bench reports schedules/sec and p50/p99 request latency, the cache's
// share of the traffic, and a multi-tenant co-scheduling evaluation of the
// resulting schedules under both communication models.
//
// Differential guarantee (exit 1 otherwise): every service response is
// bit-identical to a sequential cold solve of the same request — cache
// hits, coalesced duplicates and concurrent solves included — and the
// service performs exactly one solve per distinct request, so the
// schedule-quality and traffic-accounting columns below are deterministic
// and regression-gated against bench/baselines/BENCH_service_throughput
// .quick.json. Latency/throughput columns carry the _seconds suffix and are
// ignored by the checker (machine-dependent).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <omp.h>

#include "comm/cost_model.hpp"
#include "experiments/export.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "service/multitenant.hpp"
#include "service/service.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "workflows/families.hpp"

namespace {

using namespace dagpm;

struct Workload {
  workflows::Family family = workflows::Family::kSeismology;
  int tasks = 0;
  std::uint64_t seed = 0;
  graph::Dag dag;
  scheduler::ScheduleResult reference;  // sequential cold solve
};

struct ScalePlan {
  std::vector<std::pair<int, int>> shapes;  // (tasks, seeds per family)
  int requests = 0;
  double meanInterarrivalSeconds = 0.0;
  int threads = 4;
};

ScalePlan plan(support::BenchScale scale) {
  switch (scale) {
    case support::BenchScale::kQuick:
      return {{{60, 1}}, 24, 1e-3, 4};
    case support::BenchScale::kDefault:
      return {{{300, 1}}, 120, 2e-3, 4};
    case support::BenchScale::kFull:
      return {{{1000, 2}}, 400, 5e-3, 8};
  }
  return {};
}

}  // namespace

int main() {
  const support::BenchEnv env = support::BenchEnv::fromEnvironment();
  const char* scaleName = env.scale == support::BenchScale::kQuick ? "quick"
                          : env.scale == support::BenchScale::kFull
                              ? "full"
                              : "default";
  support::printHeading(std::cout,
                        "Service throughput: concurrent requests + cache");
  std::cout << "extension (no paper figure); a worker pool consumes an "
               "open-loop request\nstream; repeats are served from the "
               "schedule cache or coalesced onto in-flight\nsolves, and "
               "every response is checked bit-identical to a sequential "
               "cold solve\nscale: "
            << scaleName << " (DAGPM_QUICK=1 / DAGPM_FULL=1 to change)\n\n";

  const ScalePlan sp = plan(env.scale);

  // The distinct workflows: every family at every (tasks, seed) shape.
  std::vector<Workload> workloads;
  for (const workflows::Family family : workflows::allFamilies()) {
    for (const auto& [tasks, seeds] : sp.shapes) {
      for (int s = 1; s <= seeds; ++s) {
        Workload w;
        w.family = family;
        w.tasks = tasks;
        w.seed = static_cast<std::uint64_t>(s);
        workflows::GenConfig gcfg;
        gcfg.numTasks = tasks;
        gcfg.seed = w.seed;
        w.dag = workflows::generate(family, gcfg);
        workloads.push_back(std::move(w));
      }
    }
  }

  // One shared cluster, memory-roomy so every workflow schedules (this
  // bench measures the engine, not schedulability).
  platform::Cluster cluster =
      platform::makeCluster(platform::Heterogeneity::kDefault, 2);
  double maxTask = 0.0;
  for (const Workload& w : workloads) {
    maxTask = std::max(maxTask, w.dag.maxTaskMemoryRequirement());
  }
  cluster.scaleMemoriesToFit(maxTask * 4.0);

  scheduler::DagHetPartConfig cfg;
  cfg.seed = 1;

  // Sequential reference solves: the differential baseline AND the gated
  // schedule-quality columns. They run pinned to one OpenMP thread, as a
  // service worker does, so the reference time is a one-thread figure.
  double sequentialSeconds = 0.0;
#pragma omp parallel num_threads(1)
  {
    omp_set_num_threads(1);
    for (Workload& w : workloads) {
      const auto t0 = std::chrono::steady_clock::now();
      w.reference = scheduler::dagHetPart(w.dag, cluster, cfg);
      sequentialSeconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
    }
  }

  // The request stream: every workload once, then repeats drawn from a
  // deterministic SplitMix64 stream, shuffled so duplicates interleave.
  std::vector<std::size_t> stream;
  for (std::size_t i = 0; i < workloads.size(); ++i) stream.push_back(i);
  support::Rng rng(42);
  while (stream.size() < static_cast<std::size_t>(sp.requests)) {
    stream.push_back(static_cast<std::size_t>(rng.uniformInt(
        0, static_cast<std::int64_t>(workloads.size()) - 1)));
  }
  rng.shuffle(stream);
  // Open-loop arrivals: exponential interarrivals, fixed in advance —
  // submission does not wait for completions, so queueing shows up as
  // latency exactly like it would for a real service under load.
  std::vector<double> arrival(stream.size());
  double clock = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    clock += -sp.meanInterarrivalSeconds *
             std::log(1.0 - rng.uniformReal());
    arrival[i] = clock;
  }

  service::ServiceConfig scfg;
  scfg.numThreads = sp.threads;
  service::SchedulerService svc(scfg);
  std::vector<std::future<service::Response>> futures;
  futures.reserve(stream.size());
  const auto epoch = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto due =
        epoch + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(arrival[i]));
    std::this_thread::sleep_until(due);
    service::Request req;
    req.dag = &workloads[stream[i]].dag;
    req.cluster = &cluster;
    req.config = cfg;
    futures.push_back(svc.submit(std::move(req)));
  }
  std::vector<double> latencies;
  latencies.reserve(futures.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    service::Response resp = futures[i].get();
    const scheduler::ScheduleResult& ref = workloads[stream[i]].reference;
    if (resp.schedule.feasible != ref.feasible ||
        resp.schedule.makespan != ref.makespan ||
        resp.schedule.blockOf != ref.blockOf ||
        resp.schedule.procOfBlock != ref.procOfBlock) {
      std::cerr << "error: service response " << resp.requestId
                << " diverges from the sequential cold solve (makespans "
                << resp.schedule.makespan << " vs " << ref.makespan << ")\n";
      return 1;
    }
    latencies.push_back(resp.totalSeconds);
  }
  svc.drain();
  const double wallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch)
          .count();
  const service::ServiceMetrics m = svc.metrics();

  // The deterministic-solve-set guarantee, enforced: one solve per distinct
  // workflow no matter how the workers interleaved.
  if (m.solves != workloads.size()) {
    std::cerr << "error: expected " << workloads.size()
              << " solves (one per distinct request), measured " << m.solves
              << "\n";
    return 1;
  }

  const double p50 = support::percentile(latencies, 0.5);
  const double p99 = support::percentile(latencies, 0.99);
  const double meanLatency = support::mean(latencies);

  support::Table table({"workflow", "tasks", "feasible", "makespan",
                        "blocks"});
  for (const Workload& w : workloads) {
    table.addRow({workflows::familyName(w.family) + "-s" +
                      std::to_string(w.seed),
                  std::to_string(w.dag.numVertices()),
                  w.reference.feasible ? "yes" : "no",
                  w.reference.feasible
                      ? support::Table::num(w.reference.makespan, 3)
                      : "-",
                  std::to_string(w.reference.stats.numBlocks)});
  }
  table.print(std::cout);

  std::cout << "\nrequests " << m.submitted << " (distinct "
            << workloads.size() << "), solves " << m.solves
            << ", cache hits " << m.cacheHits << ", coalesced "
            << m.coalesced << "\nthroughput "
            << support::Table::num(
                   static_cast<double>(m.completed) / wallSeconds, 1)
            << " schedules/s over " << support::Table::num(wallSeconds, 3)
            << " s (sequential reference "
            << support::Table::num(sequentialSeconds, 3)
            << " s)\nlatency p50 " << support::Table::num(p50 * 1e3, 2)
            << " ms, p99 " << support::Table::num(p99 * 1e3, 2)
            << " ms, mean " << support::Table::num(meanLatency * 1e3, 2)
            << " ms\nevery response bit-identical to its sequential cold "
               "solve; exactly one solve per\ndistinct request (cache + "
               "single-flight coalescing)\n";

  // Multi-tenant epilogue: the distinct schedules co-resident on the shared
  // cluster, priced by both communication models. Uncontended tenants never
  // interact (stretch exactly 1); fair sharing prices the cross-tenant link
  // contention. Deterministic, so the aggregates gate.
  std::vector<service::Tenant> tenants;
  for (const Workload& w : workloads) {
    if (w.reference.feasible) {
      tenants.push_back({&w.dag, &w.reference, 0.0});
    }
  }
  const service::CoScheduleResult uncontended =
      service::coSchedule(tenants, cluster, comm::uncontendedCommModel());
  const service::CoScheduleResult fairShare =
      service::coSchedule(tenants, cluster, comm::fairShareCommModel());
  double maxStretch = 0.0;
  double sumStretch = 0.0;
  if (fairShare.ok) {
    for (const service::TenantOutcome& t : fairShare.tenants) {
      maxStretch = std::max(maxStretch, t.stretch);
      sumStretch += t.stretch;
    }
  }
  const double meanStretch =
      fairShare.ok && !fairShare.tenants.empty()
          ? sumStretch / static_cast<double>(fairShare.tenants.size())
          : 0.0;
  if (uncontended.ok && fairShare.ok) {
    std::cout << "\nmulti-tenant (" << tenants.size()
              << " tenants on the shared cluster): combined makespan "
              << support::Table::num(uncontended.combinedMakespan, 3)
              << " uncontended, "
              << support::Table::num(fairShare.combinedMakespan, 3)
              << " fair-share\nfair-share stretch mean "
              << support::Table::num(meanStretch, 4) << ", max "
              << support::Table::num(maxStretch, 4)
              << " (1.0 = no cross-tenant interference)\n";
  }

  // JSON export: per-workflow quality rows + service accounting +
  // multi-tenant aggregates. Gated columns are deterministic; *_seconds
  // are ignored by the checker.
  experiments::BenchExport exported;
  exported.bench = "service_throughput";
  exported.meta = {
      {"scale", support::JsonValue(std::string(scaleName))},
      {"threads", support::JsonValue(static_cast<double>(sp.threads))},
      {"requests", support::JsonValue(static_cast<double>(sp.requests))}};
  support::JsonArray& rows = exported.rows;
  for (const Workload& w : workloads) {
    support::JsonObject row;
    row.emplace("config",
                support::JsonValue(workflows::familyName(w.family) + "-s" +
                                   std::to_string(w.seed)));
    row.emplace("num_tasks", support::JsonValue(
                                 static_cast<double>(w.dag.numVertices())));
    row.emplace("feasible", support::JsonValue(static_cast<double>(
                                w.reference.feasible)));
    row.emplace("makespan", support::JsonValue(w.reference.makespan));
    row.emplace("blocks", support::JsonValue(static_cast<double>(
                              w.reference.stats.numBlocks)));
    rows.emplace_back(std::move(row));
  }
  {
    support::JsonObject row;
    row.emplace("config", support::JsonValue(std::string("service")));
    row.emplace("requests",
                support::JsonValue(static_cast<double>(m.submitted)));
    row.emplace("distinct_requests",
                support::JsonValue(static_cast<double>(workloads.size())));
    row.emplace("solves", support::JsonValue(static_cast<double>(m.solves)));
    // Hits vs coalesced individually depend on timing; their sum does not.
    row.emplace("served_without_solve",
                support::JsonValue(
                    static_cast<double>(m.cacheHits + m.coalesced)));
    row.emplace("cache_insertions",
                support::JsonValue(
                    static_cast<double>(m.cache.insertions)));
    row.emplace("wall_seconds", support::JsonValue(wallSeconds));
    row.emplace("sequential_reference_seconds",
                support::JsonValue(sequentialSeconds));
    row.emplace("latency_p50_seconds", support::JsonValue(p50));
    row.emplace("latency_p99_seconds", support::JsonValue(p99));
    row.emplace("latency_mean_seconds", support::JsonValue(meanLatency));
    rows.emplace_back(std::move(row));
  }
  if (uncontended.ok && fairShare.ok) {
    support::JsonObject row;
    row.emplace("config", support::JsonValue(std::string("multitenant")));
    row.emplace("tenants",
                support::JsonValue(static_cast<double>(tenants.size())));
    row.emplace("combined_makespan_uncontended",
                support::JsonValue(uncontended.combinedMakespan));
    row.emplace("combined_makespan_fairshare",
                support::JsonValue(fairShare.combinedMakespan));
    row.emplace("stretch_mean", support::JsonValue(meanStretch));
    row.emplace("stretch_max", support::JsonValue(maxStretch));
    rows.emplace_back(std::move(row));
  }
  if (!experiments::exportBench(exported)) return 1;

  bool anyFeasible = false;
  for (const Workload& w : workloads) anyFeasible |= w.reference.feasible;
  if (!anyFeasible) {
    std::cerr << "error: no workflow produced a feasible schedule\n";
    return 1;
  }
  return 0;
}
