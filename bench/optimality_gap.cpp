// Optimality gap bench (ROADMAP item 3): how far do the heuristics sit
// from *optimal*?
//
// Part 1 — small-instance grid: every instance is closed exactly by the
// anchor::solveExact branch-and-bound (the bench exits 1 if any instance
// fails to close within budget), and the table reports the
// heuristic/optimal and SA-refined/optimal makespan ratios plus the
// visited-node count of the proof. Both sides of every ratio come from the
// same Eq. (1)-(2) evaluation, so ratios are >= 1.0 by construction and
// bit-reproducible across runs, thread counts, and standard libraries.
//
// Part 2 — paper families: instances far beyond closing, so the anchors
// report what they can prove — the SA-refinement gain over the
// DagHetPart/DagHetMem winner, the portfolio-racer winner, and the cheap
// relaxation lower bound that caps how much could remain on the table.
//
// Gated columns (bench/baselines/BENCH_optimality_gap.quick.json): makespans,
// ratios, blocks, *_nodes_visited; *_seconds are machine-dependent and
// ignored by bench/compare_bench_json.py.

#include <cstdint>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "anchor/annealing.hpp"
#include "anchor/bnb.hpp"
#include "anchor/portfolio.hpp"
#include "experiments/export.hpp"
#include "graph/generators.hpp"
#include "obs/obs.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "support/env.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "workflows/families.hpp"

namespace {

using namespace dagpm;

struct GridInstance {
  std::string name;
  int layers = 3;
  int width = 2;
  int maxIn = 2;
  std::uint64_t seed = 1;
  int procs = 3;
};

struct GridRow {
  GridInstance instance;
  std::size_t tasks = 0;
  bool feasible = false;      // exact solver's verdict
  double optimum = 0.0;
  double heuristic = 0.0;     // 0 when the heuristic failed
  double refined = 0.0;
  double gapRatio = 0.0;      // heuristic / optimum
  double refinedRatio = 0.0;  // refined / optimum
  std::uint64_t nodesVisited = 0;
  double bnbSeconds = 0.0;
};

struct FamilyRow {
  std::string name;
  std::size_t tasks = 0;
  std::size_t procs = 0;
  bool feasible = false;
  double heuristic = 0.0;
  double refined = 0.0;
  double saGainRatio = 0.0;   // heuristic / refined (>= 1 when SA helped)
  double portfolio = 0.0;
  std::string winningArm;
  double lowerBound = 0.0;    // relaxation; optimum unknown at this size
  double refineSeconds = 0.0;
  double portfolioSeconds = 0.0;
};

std::vector<GridInstance> smallGrid(support::BenchScale scale) {
  std::vector<GridInstance> grid = {
      {"chain-ish", 3, 2, 2, 1, 3},
      {"bushy", 3, 2, 2, 2, 3},
      {"fan", 3, 2, 2, 5, 4},
      {"deep", 4, 2, 2, 3, 3},
  };
  if (scale != support::BenchScale::kQuick) {
    grid.push_back({"wide", 3, 3, 2, 7, 4});
    grid.push_back({"dense", 3, 3, 3, 11, 4});
  }
  if (scale == support::BenchScale::kFull) {
    grid.push_back({"wider", 4, 3, 2, 13, 4});
    grid.push_back({"tall", 5, 2, 2, 17, 4});
  }
  return grid;
}

platform::Cluster gridCluster(const graph::Dag& g, int numProcessors) {
  std::vector<platform::Processor> procs;
  const std::vector<platform::Processor> kinds =
      platform::machineKinds(platform::Heterogeneity::kDefault);
  for (int p = 0; p < numProcessors; ++p) {
    procs.push_back(kinds[static_cast<std::size_t>(p) % kinds.size()]);
  }
  platform::Cluster cluster(std::move(procs), /*bandwidth=*/1.0);
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
  return cluster;
}

/// Memory-roomy family cluster (same regime as bench/scheduler_scaling:
/// quality is measured, not schedulability).
platform::Cluster familyCluster(const graph::Dag& g, int perKind) {
  platform::Cluster cluster =
      platform::makeCluster(platform::Heterogeneity::kDefault, perKind);
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
  double totalRequirement = 0.0;
  for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
    totalRequirement += g.taskMemoryRequirement(v);
  }
  double capacity = 0.0;
  for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    capacity += cluster.memory(p);
  }
  if (capacity < totalRequirement) {
    cluster.scaleMemoriesToFit(cluster.largestMemory() * totalRequirement /
                               capacity);
  }
  return cluster;
}

}  // namespace

int main() {
  const support::BenchEnv env = support::BenchEnv::fromEnvironment();
  const char* scaleName = env.scale == support::BenchScale::kQuick ? "quick"
                          : env.scale == support::BenchScale::kFull
                              ? "full"
                              : "default";
  support::printHeading(std::cout,
                        "Optimality gap: heuristics vs exact / refined");
  std::cout << "extension (no paper figure); expected shape: grid gap "
               "ratios close to 1.0 (the\nheuristics are near-optimal on "
               "closable instances, every instance closes exactly);\nSA "
               "refinement never worsens the family seeds\nscale: "
            << scaleName << " (DAGPM_QUICK=1 / DAGPM_FULL=1 to change)\n\n";

  // ---- Part 1: small-instance grid, closed exactly ----------------------
  anchor::AnnealConfig gridAnneal;
  gridAnneal.restarts = 2;
  gridAnneal.stepsPerRestart = 400;
  gridAnneal.descentSteps = 100;

  std::vector<GridRow> grid;
  for (const GridInstance& inst : smallGrid(env.scale)) {
    graph::LayeredDagConfig gcfg;
    gcfg.layers = inst.layers;
    gcfg.maxWidth = inst.width;
    gcfg.maxInDegree = inst.maxIn;
    gcfg.seed = inst.seed;
    const graph::Dag g = graph::randomLayeredDag(gcfg);
    const platform::Cluster cluster = gridCluster(g, inst.procs);

    GridRow row;
    row.instance = inst;
    row.tasks = g.numVertices();
    anchor::BnbResult exact;
    {
      const obs::Span span("bench.grid_bnb", inst.name);
      exact = anchor::solveExact(g, cluster);
      row.bnbSeconds = span.seconds();
    }
    if (!exact.closed) {
      std::cerr << "error: branch-and-bound failed to close grid instance '"
                << inst.name << "' within budget\n";
      return 1;
    }
    row.feasible = exact.feasible;
    row.nodesVisited = exact.nodesVisited;
    if (exact.feasible) {
      row.optimum = exact.optimum;
      const scheduler::ScheduleResult heuristic =
          scheduler::scheduleBest(g, cluster);
      if (heuristic.feasible) {
        row.heuristic = heuristic.makespan;
        row.gapRatio = heuristic.makespan / exact.optimum;
        const anchor::AnnealResult refined =
            anchor::refine(g, cluster, heuristic, gridAnneal);
        row.refined = refined.refinedMakespan;
        row.refinedRatio = refined.refinedMakespan / exact.optimum;
        if (row.gapRatio < 1.0 || row.refinedRatio < 1.0 ||
            row.refined > row.heuristic) {
          std::cerr << "error: impossible gap on grid instance '"
                    << inst.name << "' (heuristic beat a closed optimum or "
                    << "SA worsened its seed)\n";
          return 1;
        }
      }
    }
    grid.push_back(row);
  }

  support::Table gridTable({"instance", "tasks", "procs", "optimal",
                            "heuristic", "gap", "SA-refined", "SA gap",
                            "B&B nodes", "B&B (s)"});
  for (const GridRow& r : grid) {
    gridTable.addRow(
        {r.instance.name, std::to_string(r.tasks),
         std::to_string(r.instance.procs),
         r.feasible ? support::Table::num(r.optimum, 4) : "infeasible",
         r.heuristic > 0.0 ? support::Table::num(r.heuristic, 4) : "-",
         r.gapRatio > 0.0 ? support::Table::num(r.gapRatio, 4) + "x" : "-",
         r.refined > 0.0 ? support::Table::num(r.refined, 4) : "-",
         r.refinedRatio > 0.0 ? support::Table::num(r.refinedRatio, 4) + "x"
                              : "-",
         std::to_string(r.nodesVisited),
         support::Table::num(r.bnbSeconds, 4)});
  }
  std::cout << "small-instance grid (every row closed exactly):\n";
  gridTable.print(std::cout);
  std::cout << "\n";

  // ---- Part 2: paper families — refinement gain, portfolio, bound -------
  std::vector<workflows::Family> families = {workflows::Family::kMontage,
                                             workflows::Family::kEpigenomics};
  int familyTasks = 300;
  int perKind = 1;
  anchor::AnnealConfig familyAnneal;
  familyAnneal.restarts = 2;
  familyAnneal.stepsPerRestart = 600;
  familyAnneal.descentSteps = 200;
  if (env.scale == support::BenchScale::kDefault) {
    families.push_back(workflows::Family::kSeismology);
    families.push_back(workflows::Family::kGenome1000);
    familyTasks = 2000;
    perKind = 2;
    familyAnneal.restarts = 4;
    familyAnneal.stepsPerRestart = 2000;
    familyAnneal.descentSteps = 500;
  } else if (env.scale == support::BenchScale::kFull) {
    families = workflows::allFamilies();
    familyTasks = 5000;
    perKind = 2;
    familyAnneal.restarts = 6;
    familyAnneal.stepsPerRestart = 4000;
    familyAnneal.descentSteps = 1000;
  }

  std::vector<FamilyRow> familyRows;
  for (const workflows::Family family : families) {
    workflows::GenConfig gcfg;
    gcfg.numTasks = familyTasks;
    gcfg.seed = 7;
    const graph::Dag g = workflows::generate(family, gcfg);
    const platform::Cluster cluster = familyCluster(g, perKind);

    FamilyRow row;
    row.name = workflows::familyName(family);
    row.tasks = g.numVertices();
    row.procs = cluster.numProcessors();
    row.lowerBound = anchor::relaxationLowerBound(g, cluster);

    const scheduler::ScheduleResult heuristic =
        scheduler::scheduleBest(g, cluster);
    row.feasible = heuristic.feasible;
    if (heuristic.feasible) {
      row.heuristic = heuristic.makespan;
      {
        const obs::Span span("bench.family_refine", row.name);
        const anchor::AnnealResult refined =
            anchor::refine(g, cluster, heuristic, familyAnneal);
        row.refined = refined.refinedMakespan;
        row.refineSeconds = span.seconds();
      }
      row.saGainRatio = row.heuristic / row.refined;

      anchor::PortfolioConfig portfolioCfg;
      portfolioCfg.saArms = 2;
      portfolioCfg.anneal = familyAnneal;
      const std::vector<anchor::PortfolioArm> arms =
          anchor::defaultArms(cluster, portfolioCfg);
      {
        const obs::Span span("bench.family_portfolio", row.name);
        const anchor::PortfolioResult raced =
            anchor::race(g, cluster, arms, portfolioCfg);
        row.portfolioSeconds = span.seconds();
        if (raced.winningArm != anchor::kNoArm) {
          row.portfolio = raced.schedule.makespan;
          row.winningArm = raced.arms[raced.winningArm].name;
        }
      }
      if (row.refined > row.heuristic ||
          row.lowerBound > row.refined * (1.0 + 1e-9)) {
        std::cerr << "error: refinement worsened '" << row.name
                  << "' or the relaxation bound exceeded a feasible "
                  << "makespan\n";
        return 1;
      }
    }
    familyRows.push_back(row);
  }

  support::Table familyTable({"family", "tasks", "procs", "heuristic",
                              "SA-refined", "SA gain", "portfolio",
                              "winning arm", "lower bound", "refine (s)"});
  for (const FamilyRow& r : familyRows) {
    familyTable.addRow(
        {r.name, std::to_string(r.tasks), std::to_string(r.procs),
         r.feasible ? support::Table::num(r.heuristic, 3) : "infeasible",
         r.refined > 0.0 ? support::Table::num(r.refined, 3) : "-",
         r.saGainRatio > 0.0 ? support::Table::num(r.saGainRatio, 4) + "x"
                             : "-",
         r.portfolio > 0.0 ? support::Table::num(r.portfolio, 3) : "-",
         r.winningArm.empty() ? "-" : r.winningArm,
         support::Table::num(r.lowerBound, 3),
         support::Table::num(r.refineSeconds, 3)});
  }
  std::cout << "paper families (exact optimum out of reach; relaxation "
               "bound + refinement gain):\n";
  familyTable.print(std::cout);

  if (obs::countersEnabled()) {
    std::map<std::string, std::uint64_t> c;
    for (const obs::CounterValue& v : obs::counterSnapshot()) {
      c[v.name] = v.value;
    }
    support::Table counters({"counter", "value"});
    counters.addRow({"B&B nodes visited",
                     std::to_string(c["bnb.nodes_visited"])});
    counters.addRow({"B&B subtrees pruned",
                     std::to_string(c["bnb.nodes_pruned"])});
    counters.addRow({"SA moves proposed",
                     std::to_string(c["anneal.proposed"])});
    counters.addRow({"SA moves accepted",
                     std::to_string(c["anneal.accepted"])});
    counters.addRow({"SA restarts", std::to_string(c["anneal.restarts"])});
    counters.addRow({"portfolio arms", std::to_string(c["portfolio.arms"])});
    std::cout << "\nheadline counters (DAGPM_STATS totals across both "
                 "parts):\n";
    counters.print(std::cout);
  }

  // JSON export: everything except *_seconds gates.
  experiments::BenchExport exported;
  exported.bench = "optimality_gap";
  exported.meta = experiments::metaJson(
      {{"scale", scaleName}, {"seeds", std::to_string(env.seeds)}});
  support::JsonArray& rows = exported.rows;
  for (const GridRow& r : grid) {
    support::JsonObject row;
    row.emplace("config",
                support::JsonValue("grid-" + r.instance.name));
    row.emplace("num_tasks",
                support::JsonValue(static_cast<double>(r.tasks)));
    row.emplace("num_procs",
                support::JsonValue(static_cast<double>(r.instance.procs)));
    row.emplace("feasible",
                support::JsonValue(static_cast<double>(r.feasible)));
    row.emplace("optimal_makespan", support::JsonValue(r.optimum));
    row.emplace("heuristic_makespan", support::JsonValue(r.heuristic));
    row.emplace("sa_makespan", support::JsonValue(r.refined));
    row.emplace("gap_ratio", support::JsonValue(r.gapRatio));
    row.emplace("sa_gap_ratio", support::JsonValue(r.refinedRatio));
    row.emplace("bnb_nodes_visited",
                support::JsonValue(static_cast<double>(r.nodesVisited)));
    row.emplace("bnb_seconds", support::JsonValue(r.bnbSeconds));
    rows.emplace_back(std::move(row));
  }
  for (const FamilyRow& r : familyRows) {
    support::JsonObject row;
    row.emplace("config", support::JsonValue("family-" + r.name));
    row.emplace("num_tasks",
                support::JsonValue(static_cast<double>(r.tasks)));
    row.emplace("num_procs",
                support::JsonValue(static_cast<double>(r.procs)));
    row.emplace("feasible",
                support::JsonValue(static_cast<double>(r.feasible)));
    row.emplace("heuristic_makespan", support::JsonValue(r.heuristic));
    row.emplace("sa_makespan", support::JsonValue(r.refined));
    row.emplace("sa_gain_ratio", support::JsonValue(r.saGainRatio));
    row.emplace("portfolio_makespan", support::JsonValue(r.portfolio));
    row.emplace("portfolio_winner", support::JsonValue(
                                        r.winningArm.empty() ? "-"
                                                             : r.winningArm));
    row.emplace("relaxation_lower_bound", support::JsonValue(r.lowerBound));
    row.emplace("refine_seconds", support::JsonValue(r.refineSeconds));
    row.emplace("portfolio_seconds", support::JsonValue(r.portfolioSeconds));
    rows.emplace_back(std::move(row));
  }
  if (!experiments::exportBench(exported)) return 1;

  bool anyClosed = false;
  for (const GridRow& r : grid) anyClosed |= r.feasible;
  if (grid.empty() || !anyClosed) {
    std::cerr << "error: no grid instance closed with a feasible optimum\n";
    return 1;
  }
  return 0;
}
