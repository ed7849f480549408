#include "anchor/annealing.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "obs/obs.hpp"
#include "quotient/incremental.hpp"
#include "quotient/quotient.hpp"
#include "support/rng.hpp"

namespace dagpm::anchor {

using platform::ProcessorId;
using quotient::BlockId;

namespace {

/// Initial temperature as a fraction of the seed makespan.
constexpr double kInitialTempFraction = 0.05;
/// Per-proposal geometric cooling.
constexpr double kCoolingFactor = 0.995;

/// Outcome of one restart, materialized so parallel restarts can be merged
/// deterministically afterwards.
struct RestartOutcome {
  double makespan = 0.0;
  scheduler::ScheduleResult schedule;  // only filled when improved
  bool improved = false;
  std::uint64_t proposed = 0;
  std::uint64_t accepted = 0;
};

/// One SA restart: rebuild the quotient from the seed, anneal, polish.
RestartOutcome runRestart(const graph::Dag& g,
                          const platform::Cluster& cluster,
                          const scheduler::ScheduleResult& seed,
                          const AnnealConfig& cfg, std::uint64_t rngSeed) {
  RestartOutcome out;
  out.makespan = seed.makespan;

  quotient::QuotientGraph q = scheduler::quotientOf(g, seed);
  const memory::MemDagOracle oracle(g, cfg.oracle);  // own memo per restart
  std::vector<BlockId> alive;
  std::vector<bool> procUsed(cluster.numProcessors(), false);
  for (BlockId b = 0; b < seed.numBlocks(); ++b) {
    q.setMemReq(b, oracle.blockRequirement(q.node(b).members));
    alive.push_back(b);
    procUsed[seed.procOfBlock[b]] = true;
  }
  std::vector<ProcessorId> idle;
  for (ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    if (!procUsed[p]) idle.push_back(p);
  }

  quotient::IncrementalEvaluator eval(q, cluster);
  quotient::IncrementalEvaluator::Scratch scratch(eval);
  quotient::TentativeMerge merge(q, &eval);
  support::Rng rng(rngSeed);

  double current = eval.makespan();
  double best = current;
  double temperature = seed.makespan * kInitialTempFraction;
  const std::uint64_t totalSteps =
      std::uint64_t{cfg.stepsPerRestart} + cfg.descentSteps;

  // `accept` implements the transcendental-free surrogate of Metropolis:
  // always take improvements, take a worsening of delta with probability
  // max(0, 1 - delta/T). At T == 0 (the descent tail) only strict
  // improvements pass, which makes the polish a randomized hill-climb.
  const auto accept = [&](double delta) {
    if (delta < -1e-12) return true;
    if (temperature <= 0.0) return false;
    return delta <= temperature * rng.uniformReal();
  };

  for (std::uint64_t step = 0; step < totalSteps; ++step) {
    if (step >= cfg.stepsPerRestart) {
      temperature = 0.0;
    } else {
      temperature *= kCoolingFactor;
    }
    const std::int64_t kind = rng.uniformInt(0, 2);
    if (kind == 0 && alive.size() >= 2) {
      // Swap the processors of two distinct alive blocks.
      const auto i = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1));
      auto j = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 2));
      if (j >= i) ++j;
      const BlockId a = alive[i], b = alive[j];
      const ProcessorId pa = q.node(a).proc, pb = q.node(b).proc;
      if (q.node(a).memReq > cluster.memory(pb) ||
          q.node(b).memReq > cluster.memory(pa)) {
        continue;
      }
      ++out.proposed;
      obs::add(obs::Counter::kAnnealProposed);
      const quotient::ProcOverride overrides[2] = {{a, pb}, {b, pa}};
      const double probed = eval.probeAssign(scratch, overrides);
      if (!accept(probed - current)) continue;
      q.setProcessor(a, pb);
      q.setProcessor(b, pa);
      const BlockId dirty[2] = {a, b};
      eval.commitAssign(dirty);
      current = probed;
    } else if (kind == 1 && !idle.empty() && !alive.empty()) {
      // Move one alive block to an idle processor.
      const auto i = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1));
      const auto ip = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(idle.size()) - 1));
      const BlockId a = alive[i];
      const ProcessorId from = q.node(a).proc, to = idle[ip];
      if (q.node(a).memReq > cluster.memory(to)) continue;
      ++out.proposed;
      obs::add(obs::Counter::kAnnealProposed);
      const quotient::ProcOverride overrides[1] = {{a, to}};
      const double probed = eval.probeAssign(scratch, overrides);
      if (!accept(probed - current)) continue;
      q.setProcessor(a, to);
      const BlockId dirty[1] = {a};
      eval.commitAssign(dirty);
      idle[ip] = from;  // the vacated processor becomes idle
      current = probed;
    } else if (kind == 2 && alive.size() >= 2) {
      // Merge one alive block into another (host keeps its processor),
      // following the Step-3 probe: tentative merge with 2-cycle repair,
      // oracle feasibility, cone-repair probe, rollback on reject.
      // Acceptance keeps the merge and rebuilds the evaluator (structural
      // commit).
      const auto hi = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1));
      auto ai = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 2));
      if (ai >= hi) ++ai;
      const BlockId host = alive[hi], absorbed = alive[ai];
      if (!merge.apply(host, absorbed)) continue;
      const double memReq = oracle.blockRequirement(q.node(host).members);
      if (memReq <= cluster.memory(q.node(host).proc)) {
        ++out.proposed;
        obs::add(obs::Counter::kAnnealProposed);
        const double probed = merge.probe();
        if (accept(probed - current)) {
          merge.keep();
          q.setMemReq(host, memReq);
          // A merge leaves the absorbed blocks' processors in place.
          const auto release = [&](BlockId b) {
            alive.erase(std::find(alive.begin(), alive.end(), b));
            idle.push_back(q.node(b).proc);
          };
          release(absorbed);
          if (merge.third() != quotient::kNoBlock) release(merge.third());
          std::sort(idle.begin(), idle.end());
          eval.rebuild();
          current = eval.makespan();
          ++out.accepted;
          obs::add(obs::Counter::kAnnealAccepted);
          if (current < best) {
            best = current;
            if (best < seed.makespan) {
              out.improved = true;
              out.schedule = scheduler::scheduleOf(q, best);
            }
          }
          continue;
        }
      }
      merge.rollback();
      continue;
    } else {
      continue;  // move kind not applicable to the current state
    }
    // Shared accept path of the assignment moves (swap / idle move).
    ++out.accepted;
    obs::add(obs::Counter::kAnnealAccepted);
    if (current < best) {
      best = current;
      if (best < seed.makespan) {
        out.improved = true;
        out.schedule = scheduler::scheduleOf(q, best);
      }
    }
  }
  out.makespan = out.improved ? out.schedule.makespan : seed.makespan;
  obs::add(obs::Counter::kAnnealRestarts);
  return out;
}

}  // namespace

AnnealResult refine(const graph::Dag& g, const platform::Cluster& cluster,
                    const scheduler::ScheduleResult& seedSchedule,
                    const AnnealConfig& cfg) {
  const obs::Span span("anchor.anneal");
  AnnealResult result;
  result.schedule = seedSchedule;
  result.seedMakespan = seedSchedule.makespan;
  result.refinedMakespan = seedSchedule.makespan;
  if (!seedSchedule.feasible || seedSchedule.numBlocks() == 0 ||
      cfg.restarts == 0) {
    return result;
  }

  // Per-restart streams are fixed up front so the work of restart i is a
  // pure function of (instance, cfg, i) regardless of which thread runs it.
  std::vector<std::uint64_t> streamSeeds(cfg.restarts);
  support::Rng root(cfg.seed);
  for (auto& s : streamSeeds) s = root.fork().next();

  std::vector<RestartOutcome> outcomes(cfg.restarts);
#pragma omp parallel for schedule(dynamic)
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i] = runRestart(g, cluster, seedSchedule, cfg, streamSeeds[i]);
  }

  for (std::uint32_t i = 0; i < cfg.restarts; ++i) {
    result.proposed += outcomes[i].proposed;
    result.accepted += outcomes[i].accepted;
    // Strict < keeps the earliest restart on ties: the winner is the
    // lexicographically least (makespan, restart index).
    if (outcomes[i].improved &&
        outcomes[i].makespan < result.refinedMakespan) {
      result.refinedMakespan = outcomes[i].makespan;
      result.schedule = outcomes[i].schedule;
      result.winningRestart = i;
    }
  }
  return result;
}

}  // namespace dagpm::anchor
