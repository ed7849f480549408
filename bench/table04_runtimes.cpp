// Table 4: relative (vs DagHetMem) and absolute running times of DagHetPart
// per workflow set. Paper: real-world 406x / 0.5s, small 1.63x / 2.83s,
// mid 1.02x / 166s, big 0.85x / 647s.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Table 4: running times of DagHetPart",
                       "paper Table 4; expected shape: relative runtime "
                       "falls with workflow size (below 1 for big), "
                       "absolute runtime grows");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const auto outcomes = experiments::runComparison(
      ctx.allInstances(), cluster, ctx.options());

  support::Table table({"Workflow set", "avg. relative runtime",
                        "avg. absolute runtime (sec)"});
  const auto byBand = experiments::aggregateByBand(outcomes);
  for (const auto& [band, agg] : byBand) {
    table.addRow({workflows::sizeBandName(band),
                  agg.geomeanRuntimeRatio > 0.0
                      ? support::Table::num(agg.geomeanRuntimeRatio, 2)
                      : "-",
                  support::Table::num(agg.meanPartSeconds, 3)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: real 406/0.5s, small 1.63/2.83s, mid 1.02/166s, "
               "big 0.85/647s at full scale)\n";
  return bench::finish(ctx, "table04_runtimes", {{"", outcomes}});
}
