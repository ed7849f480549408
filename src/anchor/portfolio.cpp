#include "anchor/portfolio.hpp"

#include <utility>
#include <vector>

#include <omp.h>

#include "scheduler/daghetmem.hpp"

namespace dagpm::anchor {

std::vector<PortfolioArm> defaultArms(const platform::Cluster& cluster,
                                      const PortfolioConfig& cfg) {
  std::vector<PortfolioArm> arms;
  const auto candidates = scheduler::sweepCandidates(
      cfg.heuristic.sweep,
      static_cast<std::uint32_t>(cluster.numProcessors()));
  for (const std::uint32_t kPrime : candidates) {
    PortfolioArm arm;
    arm.kind = PortfolioArm::Kind::kDagHetPartKPrime;
    arm.name = "daghetpart.k" + std::to_string(kPrime);
    arm.kPrime = kPrime;
    arms.push_back(std::move(arm));
  }
  {
    PortfolioArm arm;
    arm.kind = PortfolioArm::Kind::kDagHetMem;
    arm.name = "daghetmem";
    arms.push_back(std::move(arm));
  }
  for (std::uint32_t i = 0; i < cfg.saArms; ++i) {
    PortfolioArm arm;
    arm.kind = PortfolioArm::Kind::kSaRefine;
    arm.seed = cfg.anneal.seed + i;
    arm.name = "sa.seed" + std::to_string(arm.seed);
    arms.push_back(std::move(arm));
  }
  return arms;
}

PortfolioResult race(const graph::Dag& g, const platform::Cluster& cluster,
                     const std::vector<PortfolioArm>& arms,
                     const PortfolioConfig& cfg) {
  const obs::Span span("anchor.portfolio",
                       "arms=" + std::to_string(arms.size()));
  PortfolioResult result;
  result.arms.resize(arms.size());
  if (arms.empty()) return result;

  // The refinement arms need the heuristic winner as their seed, so the
  // race runs in two waves.
  std::vector<std::size_t> heuristicWave, refineWave;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    (arms[i].kind == PortfolioArm::Kind::kSaRefine ? refineWave
                                                   : heuristicWave)
        .push_back(i);
  }

  const scheduler::ScheduleResult* refineSeed = nullptr;
  const auto runArm = [&](std::size_t index) {
    const PortfolioArm& arm = arms[index];
    ArmOutcome& out = result.arms[index];
    out.name = arm.name;
    const obs::Span armSpan("portfolio.arm", arm.name);
    const obs::ThreadCounterScope scope;
    obs::add(obs::Counter::kPortfolioArms);
    switch (arm.kind) {
      case PortfolioArm::Kind::kDagHetPartKPrime:
        out.schedule =
            scheduler::dagHetPartSingle(g, cluster, arm.kPrime, cfg.heuristic);
        break;
      case PortfolioArm::Kind::kDagHetMem: {
        scheduler::DagHetMemConfig c;
        c.oracle = cfg.heuristic.oracle;
        out.schedule = scheduler::dagHetMem(g, cluster, c);
        break;
      }
      case PortfolioArm::Kind::kSaRefine: {
        AnnealConfig c = cfg.anneal;
        c.seed = arm.seed;
        if (refineSeed != nullptr && refineSeed->feasible) {
          out.schedule = refine(g, cluster, *refineSeed, c).schedule;
        }
        break;
      }
    }
    out.feasible = out.schedule.feasible;
    out.makespan = out.schedule.makespan;
    out.seconds = armSpan.seconds();
    if (obs::countersEnabled()) out.counters = scope.deltas();
  };

  // A wave is an OpenMP loop like runSweep's: one team; nested Step-4 work
  // is tasks on the innermost team. An arm's Step-4 scan chunks may run on
  // wave threads that are idle at the barrier, and their counts are charged
  // back to the arm's thread, so the ThreadCounterScope delta is exact. Each
  // arm pins any inner parallel region to its own thread; the pin lives in
  // the region's implicit task and does not outlast the loop.
  const auto runWave = [&](const std::vector<std::size_t>& wave) {
#pragma omp parallel for schedule(dynamic)
    for (std::size_t i = 0; i < wave.size(); ++i) {
      omp_set_num_threads(1);
      runArm(wave[i]);
    }
  };

  runWave(heuristicWave);

  // Interim winner of the heuristic wave: least (makespan, arm index).
  for (std::size_t i = 0; i < arms.size(); ++i) {
    if (arms[i].kind == PortfolioArm::Kind::kSaRefine) continue;
    const ArmOutcome& out = result.arms[i];
    if (!out.feasible) continue;
    if (refineSeed == nullptr || out.makespan < refineSeed->makespan) {
      refineSeed = &out.schedule;
    }
  }

  runWave(refineWave);

  for (std::uint32_t i = 0; i < result.arms.size(); ++i) {
    const ArmOutcome& out = result.arms[i];
    if (!out.feasible) continue;
    if (result.winningArm == kNoArm ||
        out.makespan < result.schedule.makespan) {
      result.winningArm = i;
      result.schedule = out.schedule;
    }
  }
  return result;
}

}  // namespace dagpm::anchor
