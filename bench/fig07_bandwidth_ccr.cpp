// Fig. 7: impact of the communication-to-computation ratio -- relative
// makespan as a function of the cluster bandwidth beta in {0.1, 0.5, 1, 2, 5}.
// Paper: higher bandwidth helps DagHetPart (it uses more processors and
// communicates more); the effect is strongest on small workflows (~13pp) and
// on fanned-out families (~3.1-3.3x between extremes), weakest on
// chain-dominated families and real-world workflows.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Fig. 7: relative makespan vs bandwidth (CCR)",
                       "paper Fig. 7; expected shape: ratios fall as "
                       "bandwidth grows, most for fanned-out families");

  const auto instances = ctx.allInstances();
  const std::vector<double> bandwidths{0.1, 0.5, 1.0, 2.0, 5.0};

  std::map<workflows::SizeBand, std::vector<std::string>> rows;
  std::vector<std::string> fannedRow, chainedRow;
  experiments::OutcomeGroups groups;
  for (const double beta : bandwidths) {
    platform::Cluster cluster = platform::makeCluster(
        platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault,
        beta);
    char tag[64];
    std::snprintf(tag, sizeof tag, "beta%g", beta);
    const auto outcomes = experiments::runComparison(
        instances, cluster, ctx.options());
    groups.emplace_back(tag, outcomes);
    for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
      rows[band].push_back(agg.geomeanRatio > 0.0
                               ? support::Table::percent(agg.geomeanRatio)
                               : "-");
    }
    // Fan-out split (paper Sec. 5.2.6).
    std::vector<double> fanned, chained;
    for (const auto& out : outcomes) {
      if (!out.partFeasible || !out.memFeasible ||
          out.band == workflows::SizeBand::kReal) {
        continue;
      }
      bool high = false;
      for (const workflows::Family f : workflows::allFamilies()) {
        if (workflows::familyName(f) == out.family &&
            workflows::isHighFanout(f)) {
          high = true;
        }
      }
      (high ? fanned : chained).push_back(out.partMakespan / out.memMakespan);
    }
    fannedRow.push_back(
        support::Table::percent(support::geometricMean(fanned)));
    chainedRow.push_back(
        support::Table::percent(support::geometricMean(chained)));
  }

  std::vector<std::string> header{"group \\ beta"};
  for (const double beta : bandwidths) {
    header.push_back(support::Table::num(beta, 1));
  }
  support::Table table(header);
  for (const auto& [band, cells] : rows) {
    std::vector<std::string> row{workflows::sizeBandName(band)};
    row.insert(row.end(), cells.begin(), cells.end());
    table.addRow(row);
  }
  {
    std::vector<std::string> row{"fanned-out families"};
    row.insert(row.end(), fannedRow.begin(), fannedRow.end());
    table.addRow(row);
  }
  {
    std::vector<std::string> row{"chain-dominated families"};
    row.insert(row.end(), chainedRow.begin(), chainedRow.end());
    table.addRow(row);
  }
  table.print(std::cout);
  return bench::finish(ctx, "fig07_bandwidth_ccr", groups);
}
