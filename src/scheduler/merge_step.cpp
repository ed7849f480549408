#include "scheduler/merge_step.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <map>
#include <set>

#include "obs/obs.hpp"
#include "quotient/incremental.hpp"

namespace dagpm::scheduler {

using quotient::BlockId;
using quotient::kNoBlock;

namespace {

/// Paper Algorithm 3: a node with unassigned neighbors is reinserted at most
/// this many times.
constexpr int kMaxReinserts = 2;
/// Any-host rescue limits: at most kMaxRescueProbes oracle evaluations per
/// stuck node and kRescueProbeBudget per merge-step invocation, so rescue
/// attempts stay a small fraction of the total runtime.
constexpr int kMaxRescueProbes = 12;
constexpr int kRescueProbeBudget = 400;
/// Relative margin of the abort test, so that rounding in merged work sums
/// cannot flip it.
constexpr double kAbortSlack = 1e-9;

/// Outcome of probing one merge candidate.
struct CandidateOutcome {
  double makespan = std::numeric_limits<double>::infinity();
  BlockId target = kNoBlock;  // assigned node to merge into
  BlockId third = kNoBlock;   // optional third node (2-cycle repair)
  double mergedMemReq = 0.0;
};

/// FindMSOptMerge (Algorithm 3): finds the best feasible merge of `nu` into
/// an assigned neighbor from `allowed`. All merges are tentative; the
/// quotient is restored before returning. With a non-null `eval` (which
/// `merge` shares), cycle detection runs as a bounded reachability query
/// and the makespan probes repair only the affected cone; the null-eval
/// path is the legacy full recompute (differential reference).
CandidateOutcome findMsOptMerge(quotient::QuotientGraph& q,
                                const platform::Cluster& cluster,
                                const memory::MemDagOracle& oracle,
                                const comm::CommCostModel* comm,
                                const quotient::IncrementalEvaluator* eval,
                                quotient::TentativeMerge& merge,
                                BlockId nu, const std::set<BlockId>& allowed,
                                bool neighborsOnly, int maxProbes = -1,
                                bool firstFeasibleWins = false) {
  CandidateOutcome best;
  // Candidate hosts: parents and children of nu that are in `allowed`
  // (paper Algorithm 3). The any-host fallback widens this to every allowed
  // node -- merges with non-neighbors are legal as long as the quotient
  // stays acyclic and the combined traversal fits the host's memory.
  std::vector<BlockId> candidates;
  if (neighborsOnly) {
    const quotient::AdjSpan nuIn = q.in(nu);
    for (const auto& [p, cost] : nuIn) {
      if (allowed.count(p) > 0) candidates.push_back(p);
    }
    for (const auto& [c, cost] : q.out(nu)) {
      if (allowed.count(c) > 0 && nuIn.count(c) == 0) {
        candidates.push_back(c);
      }
    }
  } else {
    // Rescue mode: probing every host with a full oracle evaluation is
    // expensive on large workflows, so try the hosts with the largest
    // memory slack first and bound the number of probes.
    candidates.assign(allowed.begin(), allowed.end());
    std::sort(candidates.begin(), candidates.end(),
              [&](BlockId a, BlockId b) {
                const double slackA =
                    cluster.memory(q.node(a).proc) - q.node(a).memReq;
                const double slackB =
                    cluster.memory(q.node(b).proc) - q.node(b).memReq;
                if (slackA != slackB) return slackA > slackB;
                return a < b;
              });
  }
  if (maxProbes >= 0 &&
      candidates.size() > static_cast<std::size_t>(maxProbes)) {
    candidates.resize(static_cast<std::size_t>(maxProbes));
  }

  for (const BlockId host : candidates) {
    obs::add(obs::Counter::kMergeProbes);
    // Tentatively absorb nu into the host (the host keeps its processor).
    if (!merge.apply(host, nu)) continue;
    // The same merged set is probed repeatedly across the off-path /
    // anywhere / rescue passes of a round; the oracle's memo serves the
    // repeats, and its evaluation count tells a hit from a miss.
    const std::size_t evalsBefore = oracle.evaluations();
    const double memReq = oracle.blockRequirement(q.node(host).members);
    obs::add(oracle.evaluations() == evalsBefore
                 ? obs::Counter::kMergeMemoHits
                 : obs::Counter::kMergeMemoMisses);
    bool done = false;
    if (memReq <= cluster.memory(q.node(host).proc)) {
      // Null comm keeps the legacy uncontended recurrence byte-for-byte.
      const std::optional<double> makespan =
          eval != nullptr ? merge.probe()
                          : quotient::makespanValue(q, cluster, comm);
      assert(makespan.has_value());
      if (*makespan <= best.makespan) {
        best.makespan = *makespan;
        best.target = host;
        best.third = merge.third();
        best.mergedMemReq = memReq;
      }
      done = firstFeasibleWins;  // rescue mode: any feasible merge will do
    }
    merge.rollback();
    if (done) break;
  }
  return best;
}

}  // namespace

MergeStepResult mergeUnassignedToAssigned(quotient::QuotientGraph& q,
                                          const platform::Cluster& cluster,
                                          const memory::MemDagOracle& oracle,
                                          const MergeStepConfig& cfg) {
  MergeStepResult result;

  std::set<BlockId> assigned;
  std::deque<BlockId> unassigned;
  {
    // Process unassigned nodes in topological order of the quotient. The
    // paper iterates over U in an unspecified order; topological order is
    // the robust choice: when a node merges, its unassigned descendants are
    // still separate blocks, so the merge cannot close a cycle through
    // prematurely-placed downstream dust (a gather task whose consumers
    // were merged first becomes permanently unmergeable otherwise).
    const auto topo = q.topologicalOrder();
    assert(topo.has_value() && "merge step requires an acyclic quotient");
    for (const BlockId b : *topo) {
      if (q.node(b).proc == platform::kNoProcessor) {
        unassigned.push_back(b);
      } else {
        assigned.insert(b);
      }
    }
  }
  if (unassigned.empty()) {
    result.success = true;
    return result;
  }
  // The incremental evaluator serves every probe of the main loop; each
  // committed merge rebuilds its caches (once per merge, not per probe).
  std::optional<quotient::IncrementalEvaluator> eval;
  if (!cfg.fullReevaluation) eval.emplace(q, cluster, cfg.comm);
  quotient::IncrementalEvaluator* evalPtr = eval ? &*eval : nullptr;
  quotient::TentativeMerge merge(q, evalPtr);
  const double abortAt = cfg.abortAbove * (1.0 + kAbortSlack);
  const double fastest = cluster.fastestSpeed();
  const auto boundCrossed = [&] {
    return evalPtr != nullptr &&
           evalPtr->heaviestPathWork() / fastest > abortAt;
  };
  if (boundCrossed()) {
    result.aborted = true;
    return result;
  }

  // Progress-based deferral bookkeeping: merge count at a node's last
  // failed attempt (see below).
  std::map<BlockId, std::uint32_t> mergesAtLastFailure;
  int rescueProbesLeft = kRescueProbeBudget;

  while (!unassigned.empty()) {
    const BlockId nu = unassigned.front();
    unassigned.pop_front();
    if (!q.node(nu).alive) continue;  // absorbed as a 2-cycle third node

    // Critical path of the current estimated makespan (under the configured
    // cost model: contention moves the path toward transfer-heavy chains).
    std::set<BlockId> offPath = assigned;
    if (cfg.preferOffCriticalPath) {
      if (evalPtr != nullptr) {
        // Committed-cache walk, bit-identical to computeMakespan's path.
        for (const BlockId b : evalPtr->criticalPath()) offPath.erase(b);
      } else {
        const quotient::MakespanResult ms =
            computeMakespan(q, cluster, cfg.comm);
        assert(ms.acyclic);
        for (const BlockId b : ms.criticalPath) offPath.erase(b);
      }
    }

    CandidateOutcome outcome =
        findMsOptMerge(q, cluster, oracle, cfg.comm, evalPtr, merge, nu,
                       offPath, /*neighborsOnly=*/true);
    if (outcome.target == kNoBlock && cfg.preferOffCriticalPath) {
      // No feasible merge off the critical path; allow merges anywhere.
      outcome = findMsOptMerge(q, cluster, oracle, cfg.comm, evalPtr, merge,
                               nu, assigned, /*neighborsOnly=*/true);
    }
    if (outcome.target == kNoBlock && cfg.anyHostFallback &&
        rescueProbesLeft > 0) {
      // Library extension, not in the paper (the paper-merge variant of
      // paper_figures' ablation_steps turns it off): before declaring the
      // instance infeasible, try merging nu into *any* assigned block with
      // enough memory. This rescues "saturation" dead ends where all of nu's
      // neighbors sit on full processors while other hosts have headroom;
      // the resulting block is simply disconnected (the paper's own
      // DagHetMem baseline produces disconnected blocks as well). Probes
      // are slack-ordered, first-feasible-wins, and budgeted so rescue
      // attempts cannot dominate the runtime of large instances.
      const int probes = std::min(rescueProbesLeft, kMaxRescueProbes);
      outcome = findMsOptMerge(q, cluster, oracle, cfg.comm, evalPtr, merge,
                               nu, assigned, /*neighborsOnly=*/false, probes,
                               /*firstFeasibleWins=*/true);
      rescueProbesLeft -= probes;
    }

    if (outcome.target != kNoBlock) {
      // Commit: the host absorbs nu (and the third node if the merge needed
      // a 2-cycle repair). The host keeps its processor and id, so it stays
      // in the candidate set A (the paper's A.remove(nu_min)/A.remove(nu_o)
      // drops the pre-merge ids; the merged vertex remains assigned and must
      // stay mergeable, otherwise deferred nodes could never find a host).
      q.merge(outcome.target, nu);
      if (outcome.third != kNoBlock) q.merge(outcome.target, outcome.third);
      q.setMemReq(outcome.target, outcome.mergedMemReq);
      if (outcome.third != kNoBlock) assigned.erase(outcome.third);
      if (evalPtr != nullptr) evalPtr->rebuild();  // structural commit
      ++result.mergesCommitted;
      obs::add(obs::Counter::kMergeCommitted);
      if (boundCrossed()) {
        result.aborted = true;
        return result;
      }
      continue;
    }

    // No feasible merge at all: defer if an unassigned neighbor might later
    // become a viable host (paper rule, bounded by the reinsert counter).
    const bool hasUnassignedNeighbor = [&] {
      for (const auto& [p, cost] : q.in(nu)) {
        if (q.node(p).proc == platform::kNoProcessor) return true;
      }
      for (const auto& [c, cost] : q.out(nu)) {
        if (q.node(c).proc == platform::kNoProcessor) return true;
      }
      return false;
    }();
    if (hasUnassignedNeighbor && q.node(nu).reinsertCount < kMaxReinserts) {
      q.bumpReinsertCount(nu);
      unassigned.push_back(nu);
      continue;
    }
    // Library extension: progress-based deferral. A merge that is infeasible
    // now can become feasible after other merges reshape the hosts (e.g., a
    // high-in-degree gather task fits only once most of its producers live
    // in the host, turning its inputs internal). Retry as long as the last
    // attempt is older than the newest committed merge; each retry consumes
    // at least one new merge, so this terminates.
    const auto it = mergesAtLastFailure.find(nu);
    if (it == mergesAtLastFailure.end() ||
        it->second < result.mergesCommitted) {
      mergesAtLastFailure[nu] = result.mergesCommitted;
      unassigned.push_back(nu);
      continue;
    }
    result.success = false;
    return result;
  }
  result.success = true;
  return result;
}

}  // namespace dagpm::scheduler
