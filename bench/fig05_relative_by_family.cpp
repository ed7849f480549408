// Fig. 5: relative makespan of DagHetPart vs DagHetMem per workflow family,
// as a function of the workflow size. Paper: the fanned-out families
// (Seismology, BWA, BLAST) are consistently easy; 1000Genome and SoyKB
// improve with size; SoyKB/Epigenomics (chain-dominated) improve least.

#include <iostream>
#include <set>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 5: relative makespan by family and size",
                       "paper Fig. 5; expected shape: fanned-out families "
                       "lowest, chain-dominated highest, falling with size");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  auto instances = ctx.allInstances();
  // Real-world workflows are not part of this figure.
  std::erase_if(instances, [](const bench::Instance& inst) {
    return inst.band == workflows::SizeBand::kReal;
  });
  const auto outcomes = experiments::runComparison(
      instances, cluster, ctx.options());

  // Collect sizes actually present, in ascending order.
  std::set<int> sizes;
  for (const auto& out : outcomes) sizes.insert(out.numTasks);

  std::vector<std::string> header{"family \\ tasks"};
  for (const int n : sizes) header.push_back(std::to_string(n));
  support::Table table(header);

  for (const workflows::Family family : workflows::allFamilies()) {
    const std::string name = workflows::familyName(family);
    std::vector<std::string> row{
        name + (workflows::isHighFanout(family) ? " (fan)" : "")};
    for (const int n : sizes) {
      const auto group = experiments::aggregateBy(
          outcomes, [&](const bench::RunOutcome& o) {
            return (o.family == name && o.numTasks == n) ? "x" : "";
          });
      const auto it = group.find("x");
      row.push_back(it != group.end() && it->second.geomeanRatio > 0.0
                        ? support::Table::percent(it->second.geomeanRatio)
                        : "-");
    }
    table.addRow(row);
  }
  table.print(std::cout);
  std::cout << "\n('-' = size not generated for this family or not "
               "schedulable by both algorithms)\n";
  return bench::finish(ctx, "fig05_relative_by_family", {{"", outcomes}});
}
