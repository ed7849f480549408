// Fig. 3 (right): relative makespan on different cluster sizes (18/36/60
// CPUs) by workflow size. Paper: more processors widen DagHetPart's lead
// (up to 4.96x on big workflows on the large cluster); real-world workflows
// barely react because they cannot occupy the extra nodes.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 3 (right): relative makespan vs cluster size",
                       "paper Fig. 3 right; expected shape: ratios fall as "
                       "the cluster grows, most on big workflows");

  const auto instances = ctx.allInstances();
  support::Table table({"workflow type", "18 CPUs", "36 CPUs", "60 CPUs"});
  std::map<workflows::SizeBand, std::vector<std::string>> rows;
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
      rows[band].push_back(agg.geomeanRatio > 0.0
                               ? support::Table::percent(agg.geomeanRatio)
                               : "-");
    }
  }
  for (const auto& [band, cells] : rows) {
    std::vector<std::string> row{workflows::sizeBandName(band)};
    row.insert(row.end(), cells.begin(), cells.end());
    table.addRow(row);
  }
  table.print(std::cout);
  std::cout << "\n(lower is better; paper shows monotone improvement with "
               "cluster size except for real-world workflows)\n";
  return bench::finish(ctx, "fig03_right_cluster_sizes", groups);
}
