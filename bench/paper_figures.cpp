// The paper's Sec. 5 figures from one process. Figs. 3-9, Table 4 and the
// Sec. 5.2.1/5.2.2/5.2.4 tables all read one DagHetPart-vs-DagHetMem
// comparison over a handful of cluster configurations. Each configuration
// is scheduled once, the first time a figure asks for it; every figure then
// prints its table and exports its document under its own bench name.
//
//   ./build/bench/paper_figures [figure ...]
//
// With no argument every figure runs; otherwise only the named ones (the
// names of kFigures below). An unknown name exits with status 2.

#include <algorithm>
#include <compare>
#include <cstdio>
#include <functional>
#include <iostream>
#include <set>
#include <string_view>
#include <utility>

#include "bench_common.hpp"

namespace dagpm::bench {
namespace {

using Heterogeneity = platform::Heterogeneity;
using ClusterSize = platform::ClusterSize;
using Outcomes = std::vector<RunOutcome>;
using Cell = std::function<std::string(const Aggregate&)>;
using GroupCell = std::function<std::string(const Outcomes&)>;

/// One comparison: the cluster it runs on and the work scale of its
/// instances.
struct Config {
  Heterogeneity het = Heterogeneity::kDefault;
  ClusterSize size = ClusterSize::kDefault;
  double bandwidth = 1.0;
  double workScale = 1.0;
  auto operator<=>(const Config&) const = default;
};

/// The comparisons of this process. Each is scheduled the first time a
/// figure asks for it and lives until the process exits.
class Comparisons {
 public:
  explicit Comparisons(const BenchContext& ctx) : ctx_(ctx) {}

  const Outcomes& operator()(const Config& config) {
    auto [run, fresh] = runs_.try_emplace(config);
    if (!fresh) return run->second;
    auto [instances, generate] = instances_.try_emplace(config.workScale);
    if (generate) instances->second = ctx_.allInstances(config.workScale);
    const platform::Cluster cluster =
        platform::makeCluster(config.het, config.size, config.bandwidth);
    run->second =
        experiments::runComparison(instances->second, cluster, ctx_.options());
    return run->second;
  }

 private:
  const BenchContext& ctx_;
  std::map<double, std::vector<Instance>> instances_;
  std::map<Config, Outcomes> runs_;
};

/// The relative makespan of an aggregate, "-" when nothing was scheduled
/// by both schedulers.
std::string relativeCell(const Aggregate& agg) {
  return agg.geomeanRatio > 0.0 ? support::Table::percent(agg.geomeanRatio)
                                : "-";
}

/// The "band x configuration" table: one row per size band, one column
/// per configuration group, `cell` formatting the band's aggregate.
support::Table bandByConfig(std::vector<std::string> header,
                            const experiments::OutcomeGroups& groups,
                            const Cell& cell) {
  std::map<SizeBand, std::vector<std::string>> rows;
  for (const auto& [name, outcomes] : groups) {
    for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
      rows[band].push_back(cell(agg));
    }
  }
  support::Table table(std::move(header));
  for (const auto& [band, cells] : rows) {
    std::vector<std::string> row{workflows::sizeBandName(band)};
    row.insert(row.end(), cells.begin(), cells.end());
    table.addRow(row);
  }
  return table;
}

/// The "family x size" table over the synthetic outcomes: one row per
/// family, one column per generated size, `cell` formatting the outcomes
/// of one (family, size) pair (empty when that pair was not generated).
support::Table familyBySize(const Outcomes& outcomes, bool markFanout,
                            const GroupCell& cell) {
  std::set<int> sizes;
  std::map<std::pair<std::string, int>, Outcomes> groups;
  for (const RunOutcome& out : outcomes) {
    if (out.band == SizeBand::kReal) continue;
    sizes.insert(out.numTasks);
    groups[{out.family, out.numTasks}].push_back(out);
  }
  std::vector<std::string> header{"family \\ tasks"};
  for (const int n : sizes) header.push_back(std::to_string(n));
  support::Table table(header);
  for (const workflows::Family family : workflows::allFamilies()) {
    const std::string name = workflows::familyName(family);
    std::vector<std::string> row{
        name + (markFanout && workflows::isHighFanout(family) ? " (fan)" : "")};
    for (const int n : sizes) row.push_back(cell(groups[{name, n}]));
    table.addRow(row);
  }
  return table;
}

/// The outcomes of the real-world workflows (`real`) or of the synthetic
/// ones.
Outcomes filterReal(const Outcomes& outcomes, bool real) {
  Outcomes result;
  for (const RunOutcome& out : outcomes) {
    if ((out.band == SizeBand::kReal) == real) result.push_back(out);
  }
  return result;
}

/// Part/mem runtime ratios of the outcomes both schedulers scheduled.
std::vector<double> runtimeRatios(const Outcomes& outcomes) {
  std::vector<double> ratios;
  for (const RunOutcome& out : outcomes) {
    if (out.partFeasible && out.memFeasible && out.memSeconds > 0.0) {
      ratios.push_back(out.partSeconds / out.memSeconds);
    }
  }
  return ratios;
}

bool highFanout(const std::string& family) {
  for (const workflows::Family f : workflows::allFamilies()) {
    if (workflows::familyName(f) == family && workflows::isHighFanout(f)) {
      return true;
    }
  }
  return false;
}

// Fig. 3 (left): relative makespan of DagHetPart vs DagHetMem by workflow
// type on the default 36-processor cluster. Paper: overall geometric mean
// 41% (2.44x better); big/mid workflows improve most (~3.2-3.3x),
// real-world least (1.59x).
int fig03Left(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 3 (left): relative makespan on the default cluster",
                "paper Fig. 3 left; expected shape: ratios well below "
                "100%, big/mid lowest, real-world highest");
  const Outcomes& outcomes = runs({});
  support::Table table({"workflow type", "workflows", "scheduled(part/mem)",
                        "rel.makespan", "speedup"});
  for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
    table.addRow({workflows::sizeBandName(band), std::to_string(agg.total),
                  std::to_string(agg.partScheduled) + "/" +
                      std::to_string(agg.memScheduled),
                  support::Table::percent(agg.geomeanRatio),
                  support::Table::num(1.0 / agg.geomeanRatio, 2) + "x"});
  }
  std::vector<double> allRatios;
  for (const RunOutcome& out : outcomes) {
    if (out.partFeasible && out.memFeasible && out.memMakespan > 0.0) {
      allRatios.push_back(out.partMakespan / out.memMakespan);
    }
  }
  table.print(std::cout);
  std::cout << "\noverall geomean relative makespan: "
            << support::Table::percent(support::geometricMean(allRatios))
            << "  (paper: 41% => 2.44x)\n";
  return finish(ctx, "fig03_left_default_cluster", {{"", outcomes}});
}

// Table 4: relative (vs DagHetMem) and absolute running times of
// DagHetPart per workflow set. Paper: real-world 406x / 0.5s, small
// 1.63x / 2.83s, mid 1.02x / 166s, big 0.85x / 647s.
int table04(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Table 4: running times of DagHetPart",
                "paper Table 4; expected shape: relative runtime "
                "falls with workflow size (below 1 for big), "
                "absolute runtime grows");
  const Outcomes& outcomes = runs({});
  support::Table table({"Workflow set", "avg. relative runtime",
                        "avg. absolute runtime (sec)"});
  for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
    table.addRow({workflows::sizeBandName(band),
                  agg.geomeanRuntimeRatio > 0.0
                      ? support::Table::num(agg.geomeanRuntimeRatio, 2)
                      : "-",
                  support::Table::num(agg.meanPartSeconds, 3)});
  }
  table.print(std::cout);
  std::cout << "\n(paper: real 406/0.5s, small 1.63/2.83s, mid 1.02/166s, "
               "big 0.85/647s at full scale)\n";
  return finish(ctx, "table04_runtimes", {{"", outcomes}});
}

// Fig. 5: relative makespan of DagHetPart vs DagHetMem per workflow family,
// as a function of the workflow size. Paper: the fanned-out families
// (Seismology, BWA, BLAST) are consistently easy; 1000Genome and SoyKB
// improve with size; SoyKB/Epigenomics (chain-dominated) improve least.
int fig05(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 5: relative makespan by family and size",
                "paper Fig. 5; expected shape: fanned-out families "
                "lowest, chain-dominated highest, falling with size");
  // Real-world workflows are not part of this figure.
  const Outcomes outcomes = filterReal(runs({}), /*real=*/false);
  const GroupCell cell = [](const Outcomes& group) {
    const auto agg = experiments::aggregateBy(
        group, [](const RunOutcome&) { return std::string(); });
    return agg.empty() ? "-" : relativeCell(agg.begin()->second);
  };
  familyBySize(outcomes, /*markFanout=*/true, cell).print(std::cout);
  std::cout << "\n('-' = size not generated for this family or not "
               "schedulable by both algorithms)\n";
  return finish(ctx, "fig05_relative_by_family", {{"", outcomes}});
}

// Fig. 6: absolute makespan of DagHetPart per workflow family as a function
// of size. Paper: roughly linear growth for most families; SoyKB and
// Epigenomics grow superlinearly (a property of the workflows, not of the
// heuristic).
int fig06(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 6: absolute DagHetPart makespan by family",
                "paper Fig. 6; expected shape: roughly linear in "
                "size, superlinear for SoyKB/Epigenomics");
  const Outcomes outcomes = filterReal(runs({}), /*real=*/false);
  const GroupCell cell = [](const Outcomes& group) {
    double makespan = 0.0;
    int count = 0;
    for (const RunOutcome& out : group) {
      if (out.partFeasible) {
        makespan += out.partMakespan;
        ++count;
      }
    }
    return count > 0 ? support::Table::num(makespan / count, 0) : "-";
  };
  familyBySize(outcomes, /*markFanout=*/false, cell).print(std::cout);
  return finish(ctx, "fig06_absolute_by_family", {{"", outcomes}});
}

// Fig. 8 / Table 4 (relative part): running time of DagHetPart relative to
// DagHetMem per workflow family and size. Paper: the heuristic is ~400x
// slower on (tiny) real-world workflows, 1.63x slower on small ones, equal
// on mid (1.02x) and *faster* on big workflows (0.85x) because the
// baseline must compute a memory traversal of the entire graph.
//
// Caveat: each instance is timed while other instances run in parallel
// (OpenMP), so absolute numbers carry scheduling noise. Shapes are stable.
int fig08(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 8: runtime of DagHetPart relative to DagHetMem",
                "paper Fig. 8; expected shape: ratio >> 1 on tiny "
                "workflows, falling toward/below 1 as size grows");
  const Outcomes& outcomes = runs({});
  const GroupCell cell = [](const Outcomes& group) {
    const std::vector<double> ratios = runtimeRatios(group);
    return ratios.empty()
               ? "-"
               : support::Table::num(support::geometricMean(ratios), 2) + "x";
  };
  familyBySize(outcomes, /*markFanout=*/false, cell).print(std::cout);
  const std::vector<double> realRatios =
      runtimeRatios(filterReal(outcomes, /*real=*/true));
  std::cout << "\nreal-world workflows: "
            << support::Table::num(support::geometricMean(realRatios), 1)
            << "x (paper: ~406x -- both are fractions of a second)\n";
  return finish(ctx, "fig08_relative_runtime", {{"", outcomes}});
}

// Fig. 9: absolute running time of DagHetPart by workflow type (log-scale
// y-axis in the paper). Paper (full scale, 36-node cluster): real-world
// ~0.5s, small ~2.83s, mid ~166s, big ~647s. At the bench's default reduced
// scale the absolute values are smaller; the ordering and the growth with
// size are the reproducible shape.
int fig09(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 9: absolute running time of DagHetPart",
                "paper Fig. 9; expected shape: runtime grows "
                "strongly with workflow size");
  const Outcomes& outcomes = runs({});
  support::Table table({"workflow type", "min (s)", "mean (s)", "max (s)"});
  for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
    std::vector<double> seconds;
    for (const RunOutcome& out : outcomes) {
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
  return finish(ctx, "fig09_absolute_runtime", {{"", outcomes}});
}

// Sec. 5.2.4: impact of computational demands. All task works are
// multiplied by 4; the paper finds relative makespans "virtually
// identical" (e.g., real-world 62.8% -> 61.73%, small 38.6% -> 36.4%).
int sec524(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Sec. 5.2.4: 4x computational demand",
                "paper Sec. 5.2.4; expected shape: ratios virtually "
                "identical between 1x and 4x work");
  const Outcomes& base = runs({});
  const Outcomes& heavy = runs({.workScale = 4.0});
  const auto heavyAgg = experiments::aggregateByBand(heavy);
  support::Table table({"workflow type", "rel.makespan (1x work)",
                        "rel.makespan (4x work)", "difference"});
  for (const auto& [band, agg] : experiments::aggregateByBand(base)) {
    const auto it = heavyAgg.find(band);
    if (it == heavyAgg.end()) continue;
    const double delta = it->second.geomeanRatio - agg.geomeanRatio;
    table.addRow({workflows::sizeBandName(band),
                  support::Table::percent(agg.geomeanRatio),
                  support::Table::percent(it->second.geomeanRatio),
                  support::Table::num(delta * 100.0, 1) + "pp"});
  }
  table.print(std::cout);
  return finish(ctx, "sec524_highdemand",
                {{"work1x", base}, {"work4x", heavy}});
}

/// The three cluster sizes of Fig. 3 (right) and Secs. 5.2.1/5.2.2, one
/// group per cluster name.
experiments::OutcomeGroups clusterSizes(Comparisons& runs) {
  experiments::OutcomeGroups groups;
  for (const ClusterSize size :
       {ClusterSize::kSmall, ClusterSize::kDefault, ClusterSize::kLarge}) {
    groups.emplace_back(platform::clusterName(Heterogeneity::kDefault, size),
                        runs({.size = size}));
  }
  return groups;
}

// Fig. 3 (right): relative makespan on different cluster sizes (18/36/60
// CPUs) by workflow size. Paper: more processors widen DagHetPart's lead
// (up to 4.96x on big workflows on the large cluster); real-world
// workflows barely react because they cannot occupy the extra nodes.
int fig03Right(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 3 (right): relative makespan vs cluster size",
                "paper Fig. 3 right; expected shape: ratios fall as "
                "the cluster grows, most on big workflows");
  const experiments::OutcomeGroups groups = clusterSizes(runs);
  const std::vector<std::string> header{"workflow type", "18 CPUs", "36 CPUs",
                                        "60 CPUs"};
  bandByConfig(header, groups, relativeCell).print(std::cout);
  std::cout << "\n(lower is better; paper shows monotone improvement with "
               "cluster size except for real-world workflows)\n";
  return finish(ctx, "fig03_right_cluster_sizes", groups);
}

// Sec. 5.2.1 / 5.2.2: how many workflows each algorithm can schedule per
// cluster size. Paper (full scale): on the default cluster DagHetPart
// schedules 13/14 big and 31/32 small workflows; on the small 18-node
// cluster both algorithms fail on more instances; on the large cluster
// everything is schedulable.
int schedulability(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Schedulability counts per cluster size",
                "paper Sec. 5.2.1/5.2.2; expected shape: failures "
                "concentrate on the small cluster, none on the large");
  const experiments::OutcomeGroups groups = clusterSizes(runs);
  support::Table table({"cluster", "workflow type", "instances",
                        "DagHetPart scheduled", "DagHetMem scheduled"});
  for (const auto& [name, outcomes] : groups) {
    for (const auto& [band, agg] : experiments::aggregateByBand(outcomes)) {
      table.addRow({name, workflows::sizeBandName(band),
                    std::to_string(agg.total),
                    std::to_string(agg.partScheduled),
                    std::to_string(agg.memScheduled)});
    }
  }
  table.print(std::cout);
  // This figure intentionally probes clusters too small to host
  // everything, so infeasible schedules are data, not a harness failure.
  return finish(ctx, "schedulability_counts", groups,
                /*requireFeasible=*/false);
}

// Fig. 4: impact of the heterogeneity level. Left: relative makespan of
// DagHetPart vs DagHetMem for NoHet / LessHet / default / MoreHet clusters.
// Right: absolute makespan of DagHetPart. Paper: relative makespans *grow*
// with more heterogeneity (the baseline's biggest-memory-first strategy
// profits from the luxurious C2* machines), except for real-world
// workflows; absolute makespans grow with heterogeneity as well.
int fig04(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 4: impact of the heterogeneity level",
                "paper Fig. 4; expected shape: relative makespan "
                "grows with heterogeneity (except real-world), "
                "absolute makespan grows too");
  const std::vector<std::pair<Heterogeneity, std::string>> levels{
      {Heterogeneity::kNone, "NoHet"},
      {Heterogeneity::kLess, "LessHet"},
      {Heterogeneity::kDefault, "default"},
      {Heterogeneity::kMore, "MoreHet"},
  };
  std::vector<std::string> header{"workflow type"};
  experiments::OutcomeGroups groups;
  for (const auto& [het, name] : levels) {
    header.push_back(name);
    groups.emplace_back(name, runs({.het = het}));
  }
  const Cell absoluteCell = [](const Aggregate& agg) {
    return agg.geomeanPartMakespan > 0.0
               ? support::Table::num(agg.geomeanPartMakespan, 0)
               : "-";
  };
  std::cout << "Fig. 4 left: relative makespan (DagHetPart/DagHetMem)\n";
  bandByConfig(header, groups, relativeCell).print(std::cout);
  std::cout << "\nFig. 4 right: absolute DagHetPart makespan (geomean)\n";
  bandByConfig(header, groups, absoluteCell).print(std::cout);
  return finish(ctx, "fig04_heterogeneity", groups);
}

// Fig. 7: impact of the communication-to-computation ratio -- relative
// makespan as a function of the cluster bandwidth beta in
// {0.1, 0.5, 1, 2, 5}. Paper: higher bandwidth helps DagHetPart (it uses
// more processors and communicates more); the effect is strongest on small
// workflows (~13pp) and on fanned-out families (~3.1-3.3x between
// extremes), weakest on chain-dominated families and real-world workflows.
int fig07(const BenchContext& ctx, Comparisons& runs) {
  printPreamble(ctx, "Fig. 7: relative makespan vs bandwidth (CCR)",
                "paper Fig. 7; expected shape: ratios fall as "
                "bandwidth grows, most for fanned-out families");
  std::vector<std::string> header{"group \\ beta"};
  std::vector<std::string> fannedRow{"fanned-out families"};
  std::vector<std::string> chainedRow{"chain-dominated families"};
  experiments::OutcomeGroups groups;
  for (const double beta : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    char tag[64];
    std::snprintf(tag, sizeof tag, "beta%g", beta);
    const Outcomes& outcomes = runs({.bandwidth = beta});
    groups.emplace_back(tag, outcomes);
    header.push_back(support::Table::num(beta, 1));
    // Fan-out split (paper Sec. 5.2.6).
    std::vector<double> fanned, chained;
    for (const RunOutcome& out : outcomes) {
      if (!out.partFeasible || !out.memFeasible ||
          out.band == SizeBand::kReal) {
        continue;
      }
      const bool high = highFanout(out.family);
      (high ? fanned : chained).push_back(out.partMakespan / out.memMakespan);
    }
    fannedRow.push_back(
        support::Table::percent(support::geometricMean(fanned)));
    chainedRow.push_back(
        support::Table::percent(support::geometricMean(chained)));
  }
  support::Table table = bandByConfig(header, groups, relativeCell);
  table.addRow(fannedRow);
  table.addRow(chainedRow);
  table.print(std::cout);
  return finish(ctx, "fig07_bandwidth_ccr", groups);
}

struct Figure {
  std::string_view name;
  int (*run)(const BenchContext&, Comparisons&);
};

// Run order, whatever the argument order: the default-cluster figures
// first, then sec524 (which adds the 4x-work run), then the sweeps. Each of
// the first seven stats blocks thus covers exactly the comparisons its
// figure reads.
constexpr Figure kFigures[] = {
    {"fig03_left_default_cluster", fig03Left},
    {"table04_runtimes", table04},
    {"fig05_relative_by_family", fig05},
    {"fig06_absolute_by_family", fig06},
    {"fig08_relative_runtime", fig08},
    {"fig09_absolute_runtime", fig09},
    {"sec524_highdemand", sec524},
    {"fig03_right_cluster_sizes", fig03Right},
    {"schedulability_counts", schedulability},
    {"fig04_heterogeneity", fig04},
    {"fig07_bandwidth_ccr", fig07},
};

}  // namespace
}  // namespace dagpm::bench

int main(int argc, char** argv) {
  using dagpm::bench::kFigures;
  const std::set<std::string_view> selected(argv + 1, argv + argc);
  for (const std::string_view name : selected) {
    const auto named = [&](const auto& figure) { return figure.name == name; };
    if (std::ranges::none_of(kFigures, named)) {
      std::cerr << "error: unknown figure '" << name << "'; figures:";
      for (const auto& figure : kFigures) std::cerr << ' ' << figure.name;
      std::cerr << '\n';
      return 2;
    }
  }
  const dagpm::bench::BenchContext ctx;
  dagpm::bench::Comparisons runs(ctx);
  int status = 0;
  for (const auto& figure : kFigures) {
    if (selected.empty() || selected.contains(figure.name)) {
      status |= figure.run(ctx, runs);
      std::cout << '\n';
    }
  }
  return status;
}
