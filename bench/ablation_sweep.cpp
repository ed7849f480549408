// Ablation (ours): quality/cost trade-off of the k' sweep strategy. The
// paper evaluates every k' <= k; the bench default substitutes a doubling
// sweep, O(log k) pipeline runs instead of k. This bench quantifies the makespan gap and
// the runtime difference between single / doubling / full sweeps.

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Ablation: k' sweep strategies",
                       "quantifies the doubling-sweep substitution "
                       "(doubling sweep vs the paper's full sweep)");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  auto instances = ctx.allInstances();
  // Small + real instances only: the full sweep is 36 pipeline runs each.
  std::erase_if(instances, [](const bench::Instance& inst) {
    return inst.band == workflows::SizeBand::kMid ||
           inst.band == workflows::SizeBand::kBig;
  });

  const std::vector<std::pair<std::string, scheduler::KPrimeSweep>> sweeps{
      {"single", scheduler::KPrimeSweep::kSingle},
      {"doubling", scheduler::KPrimeSweep::kDoubling},
      {"full", scheduler::KPrimeSweep::kFull},
  };

  support::Table table({"sweep", "k' candidates", "scheduled",
                        "rel.makespan vs baseline", "avg runtime (s)"});
  experiments::OutcomeGroups groups;
  for (const auto& [name, sweep] : sweeps) {
    auto options = ctx.options();
    options.part.sweep = sweep;
    const auto outcomes =
        experiments::runComparison(instances, cluster, options);
    groups.emplace_back(name, outcomes);
    int scheduled = 0;
    std::vector<double> ratios, seconds;
    for (const auto& out : outcomes) {
      if (out.partFeasible) {
        ++scheduled;
        seconds.push_back(out.partSeconds);
      }
      if (out.partFeasible && out.memFeasible && out.memMakespan > 0.0) {
        ratios.push_back(out.partMakespan / out.memMakespan);
      }
    }
    table.addRow({name,
                  std::to_string(scheduler::sweepCandidates(
                                     sweep, static_cast<std::uint32_t>(
                                                cluster.numProcessors()))
                                     .size()),
                  std::to_string(scheduled) + "/" +
                      std::to_string(outcomes.size()),
                  ratios.empty()
                      ? "-"
                      : support::Table::percent(support::geometricMean(ratios)),
                  support::Table::num(support::mean(seconds), 3)});
  }
  table.print(std::cout);
  return bench::finish(ctx, "ablation_sweep", groups);
}
