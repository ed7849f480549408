// Fig. 8 / Table 4 (relative part): running time of DagHetPart relative to
// DagHetMem per workflow family and size. Paper: the heuristic is ~400x
// slower on (tiny) real-world workflows, 1.63x slower on small ones, equal
// on mid (1.02x) and *faster* on big workflows (0.85x) because the baseline
// must compute a memory traversal of the entire graph.
//
// Caveat: each instance is timed while other instances run in parallel
// (OpenMP), so absolute numbers carry scheduling noise. Shapes are stable.

#include <iostream>
#include <set>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 8: runtime of DagHetPart relative to DagHetMem",
                       "paper Fig. 8; expected shape: ratio >> 1 on tiny "
                       "workflows, falling toward/below 1 as size grows");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  const auto outcomes = experiments::runComparison(
      ctx.allInstances(), cluster, ctx.options());

  std::set<int> sizes;
  for (const auto& out : outcomes) {
    if (out.band != workflows::SizeBand::kReal) sizes.insert(out.numTasks);
  }

  std::vector<std::string> header{"family \\ tasks"};
  for (const int n : sizes) header.push_back(std::to_string(n));
  support::Table table(header);
  for (const workflows::Family family : workflows::allFamilies()) {
    const std::string name = workflows::familyName(family);
    std::vector<std::string> row{name};
    for (const int n : sizes) {
      std::vector<double> ratios;
      for (const auto& out : outcomes) {
        if (out.family == name && out.numTasks == n && out.partFeasible &&
            out.memFeasible && out.memSeconds > 0.0) {
          ratios.push_back(out.partSeconds / out.memSeconds);
        }
      }
      row.push_back(ratios.empty()
                        ? "-"
                        : support::Table::num(
                              support::geometricMean(ratios), 2) + "x");
    }
    table.addRow(row);
  }
  table.print(std::cout);

  std::vector<double> realRatios;
  for (const auto& out : outcomes) {
    if (out.band == workflows::SizeBand::kReal && out.partFeasible &&
        out.memFeasible && out.memSeconds > 0.0) {
      realRatios.push_back(out.partSeconds / out.memSeconds);
    }
  }
  std::cout << "\nreal-world workflows: "
            << support::Table::num(support::geometricMean(realRatios), 1)
            << "x (paper: ~406x -- both are fractions of a second)\n";
  return bench::finish(ctx, "fig08_relative_runtime", {{"", outcomes}});
}
