// Fig. 3 (left): relative makespan of DagHetPart vs DagHetMem by workflow
// type on the default 36-processor cluster. Paper: overall geometric mean
// 41% (2.44x better); big/mid workflows improve most (~3.2-3.3x), real-world
// least (1.59x).

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 3 (left): relative makespan on the default cluster",
                       "paper Fig. 3 left; expected shape: ratios well below "
                       "100%, big/mid lowest, real-world highest");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const auto outcomes = experiments::runComparison(
      ctx.allInstances(), cluster, ctx.options());

  const auto byBand = experiments::aggregateByBand(outcomes);
  support::Table table({"workflow type", "workflows", "scheduled(part/mem)",
                        "rel.makespan", "speedup"});
  std::vector<double> allRatios;
  for (const auto& [band, agg] : byBand) {
    table.addRow({workflows::sizeBandName(band), std::to_string(agg.total),
                  std::to_string(agg.partScheduled) + "/" +
                      std::to_string(agg.memScheduled),
                  support::Table::percent(agg.geomeanRatio),
                  support::Table::num(1.0 / agg.geomeanRatio, 2) + "x"});
  }
  for (const auto& out : outcomes) {
    if (out.partFeasible && out.memFeasible && out.memMakespan > 0.0) {
      allRatios.push_back(out.partMakespan / out.memMakespan);
    }
  }
  table.print(std::cout);
  std::cout << "\noverall geomean relative makespan: "
            << support::Table::percent(support::geometricMean(allRatios))
            << "  (paper: 41% => 2.44x)\n";
  return bench::finish(ctx, "fig03_left_default_cluster", {{"", outcomes}});
}
