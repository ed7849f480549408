// Fig. 9: absolute running time of DagHetPart by workflow type (log-scale
// y-axis in the paper). Paper (full scale, 36-node cluster): real-world
// ~0.5s, small ~2.83s, mid ~166s, big ~647s. At the bench's default reduced
// scale the absolute values are smaller; the ordering and the growth with
// size are the reproducible shape.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 9: absolute running time of DagHetPart",
                       "paper Fig. 9; expected shape: runtime grows "
                       "strongly with workflow size");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const auto outcomes = experiments::runComparison(
      ctx.allInstances(), cluster, ctx.options());

  support::Table table({"workflow type", "min (s)", "mean (s)", "max (s)"});
  const auto byBand = experiments::aggregateByBand(outcomes);
  for (const auto& [band, agg] : byBand) {
    std::vector<double> seconds;
    for (const auto& out : outcomes) {
      if (out.band == band && out.partFeasible) {
        seconds.push_back(out.partSeconds);
      }
    }
    if (seconds.empty()) continue;
    table.addRow({workflows::sizeBandName(band),
                  support::Table::num(support::minOf(seconds), 3),
                  support::Table::num(support::mean(seconds), 3),
                  support::Table::num(support::maxOf(seconds), 3)});
  }
  table.print(std::cout);
  std::cout << "\n(paper full-scale means: real 0.5s, small 2.83s, mid "
               "166s, big 647s; DAGPM_FULL=1 approaches those sizes)\n";
  return bench::finish(ctx, "fig09_absolute_runtime", {{"", outcomes}});
}
