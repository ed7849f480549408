// Quickstart: build a small workflow by hand, schedule it onto the paper's
// default heterogeneous cluster, and print the mapping.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "scheduler/solution.hpp"

int main() {
  using namespace dagpm;

  // A small fork-join pipeline: preprocess fans out to four workers whose
  // results are aggregated. Vertex arguments: (work, memory); edge argument:
  // file size.
  graph::Dag workflow;
  const auto ingest = workflow.addVertex(50.0, 8.0, "ingest");
  const auto prep = workflow.addVertex(120.0, 24.0, "preprocess");
  workflow.addEdge(ingest, prep, 4.0);
  const auto gather = workflow.addVertex(60.0, 16.0, "gather");
  for (int i = 0; i < 4; ++i) {
    const auto worker = workflow.addVertex(300.0, 48.0, "analyze");
    workflow.addEdge(prep, worker, 6.0);
    workflow.addEdge(worker, gather, 3.0);
  }
  const auto report = workflow.addVertex(40.0, 12.0, "report");
  workflow.addEdge(gather, report, 2.0);

  // The paper's default cluster: 36 processors of six kinds (Table 2).
  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(workflow.maxTaskMemoryRequirement());

  // scheduleBest runs the four-step DagHetPart heuristic and falls back to
  // the DagHetMem baseline if needed.
  const scheduler::ScheduleResult schedule =
      scheduler::scheduleBest(workflow, cluster);
  if (!schedule.feasible) {
    std::puts("no valid mapping: the platform has too little memory");
    return 1;
  }

  std::printf("makespan: %.2f time units across %u blocks\n\n",
              schedule.makespan, schedule.numBlocks());
  for (std::uint32_t b = 0; b < schedule.numBlocks(); ++b) {
    const platform::Processor& proc =
        cluster.processor(schedule.procOfBlock[b]);
    std::printf("block %u -> processor %u (%s, speed %.0f, memory %.0f):",
                b, schedule.procOfBlock[b], proc.kind.c_str(), proc.speed,
                proc.memory);
    for (graph::VertexId v = 0; v < workflow.numVertices(); ++v) {
      if (schedule.blockOf[v] == b) {
        std::printf(" %s", workflow.label(v).c_str());
      }
    }
    std::printf("\n");
  }

  // Sanity: re-validate the schedule against all DAGP-PM constraints.
  const memory::MemDagOracle oracle(workflow);
  const auto report2 =
      scheduler::validateSchedule(workflow, cluster, oracle, schedule);
  std::printf("\nvalidation: %s\n",
              report2.valid ? "ok" : report2.error.c_str());
  return report2.valid ? 0 : 1;
}
