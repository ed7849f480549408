// Fig. 6: absolute makespan of DagHetPart per workflow family as a function
// of size. Paper: roughly linear growth for most families; SoyKB and
// Epigenomics grow superlinearly (a property of the workflows, not of the
// heuristic).

#include <iostream>
#include <set>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 6: absolute DagHetPart makespan by family",
                       "paper Fig. 6; expected shape: roughly linear in "
                       "size, superlinear for SoyKB/Epigenomics");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  auto instances = ctx.allInstances();
  std::erase_if(instances, [](const bench::Instance& inst) {
    return inst.band == workflows::SizeBand::kReal;
  });
  const auto outcomes = experiments::runComparison(
      instances, cluster, ctx.options());

  std::set<int> sizes;
  for (const auto& out : outcomes) sizes.insert(out.numTasks);

  std::vector<std::string> header{"family \\ tasks"};
  for (const int n : sizes) header.push_back(std::to_string(n));
  support::Table table(header);

  for (const workflows::Family family : workflows::allFamilies()) {
    const std::string name = workflows::familyName(family);
    std::vector<std::string> row{name};
    for (const int n : sizes) {
      double makespan = 0.0;
      int count = 0;
      for (const auto& out : outcomes) {
        if (out.family == name && out.numTasks == n && out.partFeasible) {
          makespan += out.partMakespan;
          ++count;
        }
      }
      row.push_back(count > 0 ? support::Table::num(makespan / count, 0) : "-");
    }
    table.addRow(row);
  }
  table.print(std::cout);
  return bench::finish(ctx, "fig06_absolute_by_family", {{"", outcomes}});
}
