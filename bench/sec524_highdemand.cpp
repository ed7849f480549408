// Sec. 5.2.4: impact of computational demands. All task works are multiplied
// by 4; the paper finds relative makespans "virtually identical" (e.g.,
// real-world 62.8% -> 61.73%, small 38.6% -> 36.4%).

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Sec. 5.2.4: 4x computational demand",
                       "paper Sec. 5.2.4; expected shape: ratios virtually "
                       "identical between 1x and 4x work");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);

  const auto base = experiments::runComparison(
      ctx.allInstances(1.0), cluster, ctx.options());
  const auto heavy = experiments::runComparison(
      ctx.allInstances(4.0), cluster, ctx.options());

  const auto baseAgg = experiments::aggregateByBand(base);
  const auto heavyAgg = experiments::aggregateByBand(heavy);

  support::Table table({"workflow type", "rel.makespan (1x work)",
                        "rel.makespan (4x work)", "difference"});
  for (const auto& [band, agg] : baseAgg) {
    const auto it = heavyAgg.find(band);
    if (it == heavyAgg.end()) continue;
    const double delta = it->second.geomeanRatio - agg.geomeanRatio;
    table.addRow({workflows::sizeBandName(band),
                  support::Table::percent(agg.geomeanRatio),
                  support::Table::percent(it->second.geomeanRatio),
                  support::Table::num(delta * 100.0, 1) + "pp"});
  }
  table.print(std::cout);
  return bench::finish(ctx, "sec524_highdemand",
                       {{"work1x", base}, {"work4x", heavy}});
}
