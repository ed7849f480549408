// Fig. 4: impact of the heterogeneity level. Left: relative makespan of
// DagHetPart vs DagHetMem for NoHet / LessHet / default / MoreHet clusters.
// Right: absolute makespan of DagHetPart. Paper: relative makespans *grow*
// with more heterogeneity (the baseline's biggest-memory-first strategy
// profits from the luxurious C2* machines), except for real-world workflows;
// absolute makespans grow with heterogeneity as well.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 4: impact of the heterogeneity level",
                       "paper Fig. 4; expected shape: relative makespan "
                       "grows with heterogeneity (except real-world), "
                       "absolute makespan grows too");

  const auto instances = ctx.allInstances();
  const std::vector<std::pair<platform::Heterogeneity, std::string>> levels{
      {platform::Heterogeneity::kNone, "NoHet"},
      {platform::Heterogeneity::kLess, "LessHet"},
      {platform::Heterogeneity::kDefault, "default"},
      {platform::Heterogeneity::kMore, "MoreHet"},
  };

  std::map<workflows::SizeBand, std::vector<std::string>> relRows, absRows;
  experiments::OutcomeGroups groups;
  for (const auto& [het, name] : levels) {
    const platform::Cluster cluster =
        platform::makeCluster(het, platform::ClusterSize::kDefault);
    const auto outcomes = experiments::runComparison(
        instances, cluster, ctx.options());
    groups.emplace_back(name, outcomes);
    for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
      relRows[band].push_back(agg.geomeanRatio > 0.0
                                  ? support::Table::percent(agg.geomeanRatio)
                                  : "-");
      absRows[band].push_back(
          agg.geomeanPartMakespan > 0.0
              ? support::Table::num(agg.geomeanPartMakespan, 0)
              : "-");
    }
  }

  std::cout << "Fig. 4 left: relative makespan (DagHetPart/DagHetMem)\n";
  support::Table rel({"workflow type", "NoHet", "LessHet", "default", "MoreHet"});
  for (const auto& [band, cells] : relRows) {
    std::vector<std::string> row{workflows::sizeBandName(band)};
    row.insert(row.end(), cells.begin(), cells.end());
    rel.addRow(row);
  }
  rel.print(std::cout);

  std::cout << "\nFig. 4 right: absolute DagHetPart makespan (geomean)\n";
  support::Table abs({"workflow type", "NoHet", "LessHet", "default", "MoreHet"});
  for (const auto& [band, cells] : absRows) {
    std::vector<std::string> row{workflows::sizeBandName(band)};
    row.insert(row.end(), cells.begin(), cells.end());
    abs.addRow(row);
  }
  abs.print(std::cout);
  return bench::finish(ctx, "fig04_heterogeneity", groups);
}
