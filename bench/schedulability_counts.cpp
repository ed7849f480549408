// Sec. 5.2.1 / 5.2.2: how many workflows each algorithm can schedule per
// cluster size. Paper (full scale): on the default cluster DagHetPart
// schedules 13/14 big and 31/32 small workflows; on the small 18-node
// cluster both algorithms fail on more instances; on the large cluster
// everything is schedulable.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Schedulability counts per cluster size",
                       "paper Sec. 5.2.1/5.2.2; expected shape: failures "
                       "concentrate on the small cluster, none on the large");

  const auto instances = ctx.allInstances();
  support::Table table({"cluster", "workflow type", "instances",
                        "DagHetPart scheduled", "DagHetMem scheduled"});
  experiments::OutcomeGroups groups;
  for (const auto size :
       {platform::ClusterSize::kSmall, platform::ClusterSize::kDefault,
        platform::ClusterSize::kLarge}) {
    const std::string name =
        platform::clusterName(platform::Heterogeneity::kDefault, size);
    const platform::Cluster cluster =
        platform::makeCluster(platform::Heterogeneity::kDefault, size);
    const auto outcomes = experiments::runComparison(
        instances, cluster, ctx.options());
    groups.emplace_back(name, outcomes);
    for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
      table.addRow({name, workflows::sizeBandName(band),
                    std::to_string(agg.total),
                    std::to_string(agg.partScheduled),
                    std::to_string(agg.memScheduled)});
    }
  }
  table.print(std::cout);
  // This bench intentionally probes clusters too small to host everything,
  // so infeasible schedules are data, not a harness failure.
  return bench::finish(ctx, "schedulability_counts", groups,
                       /*requireFeasible=*/false);
}
