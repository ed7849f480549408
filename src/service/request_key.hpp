#pragma once
// The exact content key of a scheduling request, for the service's cache and
// its single-flight table.
//
// The key is the request's schedule-relevant content written out as
// fixed-width 8-byte words, each count before its array: the workflow
// (vertex work/memory in id order, edge src/dst/cost in edge-id order), the
// cluster (per-processor speed/memory, bandwidth), the algorithm and the
// solver configuration. Since every array is preceded by its length, two
// different requests never encode to the same bytes, so comparing keys
// compares requests. Generators emit their content deterministically, so two
// instances of the same family/shape/params/seed have equal keys and
// "isomorphic repeats" share one cache entry. Labels are left out: they
// never influence scheduling.
//
// Deliberately EXCLUDED from the key: SchedulerOptions::fullReevaluation,
// which is proven not to change the produced schedule (incremental and full
// evaluation are bit-identical, fuzz- and baseline-enforced). A cached
// schedule is therefore valid across both evaluation modes; everything that
// can move a schedule (sweep strategy, seed, epsilon, balance weight, oracle
// options, step toggles, contention awareness) is in the key.

#include <cstdint>
#include <string>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"

namespace dagpm::service {

/// Which solver a request runs.
enum class Algorithm : std::uint8_t {
  kDagHetPart = 0,  // the four-step partitioning heuristic
  kDagHetMem = 1,   // the memory-aware baseline
  kBest = 2,        // scheduleBest: the better feasible of the two
};

const char* algorithmName(Algorithm a) noexcept;

/// The request's content key: equal exactly when the two requests have the
/// same workflow content, cluster, algorithm and schedule-relevant config.
/// 8 bytes per field: 8 (2V + 3E) bytes for the workflow, plus 8 (2P + 16).
std::string requestKey(const graph::Dag& g, const platform::Cluster& cluster,
                       const scheduler::DagHetPartConfig& cfg,
                       Algorithm algorithm);

}  // namespace dagpm::service
