// Ablation (ours, not a paper artifact): contribution of the individual
// DagHetPart design choices to the final makespan. Variants:
//   full          all four steps as in the paper (+ library extensions)
//   no-swaps      Step 4 swap search disabled
//   no-idle       Step 4 idle-processor moves disabled
//   no-offcp      Step 3 merges do not prefer off-critical-path hosts
//   paper-merge   library rescue extensions off (Step-3 any-host
//                 fallback, memory-balanced Step-1 retry); Step 3's
//                 progress deferral is not switchable and stays on
// Reported per variant: geomean relative makespan vs DagHetMem and the
// number of schedulable instances (the paper-merge variant shows why the
// extensions exist).

#include <iostream>

#include "bench_common.hpp"

int main() {
  using namespace dagpm;
  bench::BenchContext ctx;
  bench::printPreamble(ctx, "Ablation: step contributions of DagHetPart",
                       "design-choice ablation (not a paper artifact)");

  const platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  // A reduced instance set keeps five variants affordable.
  auto instances = ctx.allInstances();
  std::erase_if(instances, [](const bench::Instance& inst) {
    return inst.band == workflows::SizeBand::kMid ||
           inst.band == workflows::SizeBand::kBig;
  });

  struct Variant {
    std::string name;
    scheduler::DagHetPartConfig cfg;
  };
  std::vector<Variant> variants;
  variants.push_back({"full", {}});
  {
    scheduler::DagHetPartConfig c;
    c.enableSwaps = false;
    variants.push_back({"no-swaps", c});
  }
  {
    scheduler::DagHetPartConfig c;
    c.enableIdleMoves = false;
    variants.push_back({"no-idle", c});
  }
  {
    scheduler::DagHetPartConfig c;
    c.preferOffCriticalPath = false;
    variants.push_back({"no-offcp", c});
  }
  {
    scheduler::DagHetPartConfig c;
    c.anyHostFallback = false;
    c.memoryBalanceFallback = false;
    variants.push_back({"paper-merge", c});
  }

  support::Table table({"variant", "scheduled", "rel.makespan vs baseline"});
  experiments::OutcomeGroups groups;
  for (const Variant& variant : variants) {
    auto options = ctx.options();
    options.part = variant.cfg;
    options.part.sweep = ctx.sweep();
    const auto outcomes =
        experiments::runComparison(instances, cluster, options);
    groups.emplace_back(variant.name, outcomes);
    int scheduled = 0;
    std::vector<double> ratios;
    for (const auto& out : outcomes) {
      if (out.partFeasible) ++scheduled;
      if (out.partFeasible && out.memFeasible && out.memMakespan > 0.0) {
        ratios.push_back(out.partMakespan / out.memMakespan);
      }
    }
    table.addRow({variant.name,
                  std::to_string(scheduled) + "/" +
                      std::to_string(outcomes.size()),
                  ratios.empty()
                      ? "-"
                      : support::Table::percent(
                            support::geometricMean(ratios))});
  }
  table.print(std::cout);
  return bench::finish(ctx, "ablation_steps", groups);
}
