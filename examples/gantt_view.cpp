// Timeline example: schedule a BLAST-like workflow and render the resulting
// block-level execution plan as an ASCII Gantt chart, showing which machine
// kind runs which block and when.
//
//   ./build/examples/gantt_view [num_tasks]

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "platform/cluster.hpp"
#include "quotient/timeline.hpp"
#include "scheduler/daghetpart.hpp"
#include "workflows/families.hpp"

int main(int argc, char** argv) {
  using namespace dagpm;
  const int numTasks = argc > 1 ? std::atoi(argv[1]) : 200;

  workflows::GenConfig gen;
  gen.numTasks = numTasks;
  gen.seed = 3;
  const graph::Dag workflow =
      workflows::generate(workflows::Family::kBlast, gen);
  std::cout << "BLAST-like workflow: " << workflow.numVertices()
            << " tasks, " << workflow.numEdges() << " edges\n\n";

  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(workflow.maxTaskMemoryRequirement());

  const scheduler::ScheduleResult schedule =
      scheduler::scheduleBest(workflow, cluster);
  if (!schedule.feasible) {
    std::puts("no valid mapping found");
    return 1;
  }

  // Rebuild the quotient from the solution to derive the timeline.
  const quotient::QuotientGraph q = scheduler::quotientOf(workflow, schedule);
  const quotient::Timeline timeline = quotient::computeTimeline(q, cluster);
  std::printf("schedule across %u blocks (makespan %.1f):\n\n",
              schedule.numBlocks(), schedule.makespan);
  quotient::renderTimeline(std::cout, timeline, cluster, 64);
  return 0;
}
