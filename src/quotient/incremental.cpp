#include "quotient/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <limits>
#include <utility>

#include "obs/obs.hpp"

namespace dagpm::quotient {

IncrementalEvaluator::IncrementalEvaluator(const QuotientGraph& q,
                                           const platform::Cluster& cluster,
                                           const comm::CommCostModel* comm)
    : q_(&q), cluster_(&cluster), comm_(comm) {
  rebuild();
}

IncrementalEvaluator::Scratch::Scratch(const IncrementalEvaluator& eval) {
  allocate(eval.q_->numSlots());
}

void IncrementalEvaluator::Scratch::allocate(std::size_t slots) {
  value.assign(slots, 0.0);
  stamp.assign(slots, 0);
  dead.assign(slots, 0);
  queued.assign(slots, 0);
  bestVal.assign(slots, 0.0);
  bestStamp.assign(slots, 0);
  refold.assign(slots, 0);
}

void IncrementalEvaluator::rebuild() {
  obs::add(obs::Counter::kEvalRebuilds);
  criticalPathValid_ = false;
  ++version_;

  if (comm_ != nullptr) {
    // Model path: retain the fluid problem and its forward evaluation; the
    // blockOfNode sequence doubles as the committed topological order for
    // the cycle check.
    fluid_ = buildQuotientFluid(*q_, *cluster_);
    assert(fluid_.has_value() &&
           "incremental evaluation requires an acyclic quotient");
    nodeOfBlock_.assign(q_->numSlots(), comm::kNoFluidEdge);
    order_ = fluid_->blockOfNode;
    pos_.assign(q_->numSlots(), 0);
    for (std::uint32_t i = 0; i < order_.size(); ++i) {
      nodeOfBlock_[order_[i]] = i;
      pos_[order_[i]] = i;
    }
    eval_ = comm_->evaluate(fluid_->problem, cluster_->bandwidth());
    assert(eval_.ok);
    makespan_ = eval_.makespan;
    pathWork_.assign(q_->numSlots(), 0.0);
    heaviestPathWork_ = 0.0;
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      double heaviest = 0.0;
      for (const auto& [child, cost] : q_->out(*it)) {
        heaviest = std::max(heaviest, pathWork_[child]);
      }
      pathWork_[*it] = q_->node(*it).work + heaviest;
      heaviestPathWork_ = std::max(heaviestPathWork_, pathWork_[*it]);
    }
    return;
  }

  const auto order = q_->topologicalOrder();
  assert(order.has_value() &&
         "incremental evaluation requires an acyclic quotient");
  order_ = *order;
  pos_.assign(q_->numSlots(), 0);
  for (std::uint32_t i = 0; i < order_.size(); ++i) pos_[order_[i]] = i;

  // The exact recurrence of quotient::makespanValue: bottom weights in
  // reverse topological order, makespan = running max. The same walk folds
  // the heaviest path work.
  bottom_.assign(q_->numSlots(), 0.0);
  bestTerm_.assign(q_->numSlots(), 0.0);
  pathWork_.assign(q_->numSlots(), 0.0);
  makespan_ = 0.0;
  heaviestPathWork_ = 0.0;
  const double beta = cluster_->bandwidth();
  for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
    const BlockId b = *it;
    const QNode& node = q_->node(b);
    double best = 0.0;
    double heaviest = 0.0;
    for (const auto& [child, cost] : q_->out(b)) {
      best = std::max(best, cost / beta + bottom_[child]);
      heaviest = std::max(heaviest, pathWork_[child]);
    }
    const platform::ProcessorId p = node.proc;
    const double speed = p == platform::kNoProcessor ? 1.0 : cluster_->speed(p);
    bestTerm_[b] = best;
    bottom_[b] = node.work / speed + best;
    pathWork_[b] = node.work + heaviest;
    makespan_ = std::max(makespan_, bottom_[b]);
    heaviestPathWork_ = std::max(heaviestPathWork_, pathWork_[b]);
  }
  // Keep the entries of alive blocks whose bottom weight is bit-equal to
  // the stored one, append the other alive blocks sorted, and merge the two
  // runs: the same pairs in the same order as a fresh sort.
  listed_.assign(q_->numSlots(), 0);
  std::erase_if(values_, [&](const std::pair<double, BlockId>& v) {
    const BlockId b = v.second;
    const bool keep = b < listed_.size() && q_->node(b).alive &&
                      std::bit_cast<std::uint64_t>(v.first) ==
                          std::bit_cast<std::uint64_t>(bottom_[b]);
    if (keep) listed_[b] = 1;
    return !keep;
  });
  const auto kept = static_cast<std::ptrdiff_t>(values_.size());
  for (const BlockId b : order_) {
    if (listed_[b] == 0) values_.emplace_back(bottom_[b], b);
  }
  std::sort(values_.begin() + kept, values_.end());
  std::inplace_merge(values_.begin(), values_.begin() + kept, values_.end());
}

double IncrementalEvaluator::speedOf(
    BlockId b, std::span<const ProcOverride> overrides) const {
  platform::ProcessorId p = q_->node(b).proc;
  for (const ProcOverride& o : overrides) {
    if (o.block == b) {
      p = o.proc;
      break;
    }
  }
  return p == platform::kNoProcessor ? 1.0 : cluster_->speed(p);
}

double IncrementalEvaluator::repair(Scratch& s,
                                    std::span<const BlockId> dirtySeeds,
                                    std::span<const BlockId> deadBlocks,
                                    std::span<const ProcOverride> overrides,
                                    bool structural) const {
  if (s.stamp.size() != q_->numSlots()) s.allocate(q_->numSlots());
  ++s.epoch;
  if (s.epoch == 0) {  // stamp wrap-around: reset and restart at 1
    std::fill(s.stamp.begin(), s.stamp.end(), 0u);
    std::fill(s.dead.begin(), s.dead.end(), 0u);
    std::fill(s.queued.begin(), s.queued.end(), 0u);
    std::fill(s.bestStamp.begin(), s.bestStamp.end(), 0u);
    std::fill(s.refold.begin(), s.refold.end(), 0u);
    s.epoch = 1;
  }
  s.touched.clear();
  s.bestTouched.clear();
  s.heap.clear();

  const double beta = cluster_->bandwidth();
  auto effective = [&](BlockId b) {
    return s.stamp[b] == s.epoch ? s.value[b] : bottom_[b];
  };
  // Max-heap on the committed topological position: children (larger pos)
  // repair before parents. A position gone stale through a tentative merge
  // only costs a re-push (the parent re-dirties when its child changes).
  // Heap pushes are tallied locally and reported once at the end — the hot
  // loop must not pay per-push counter traffic.
  std::uint64_t pushes = 0;
  auto push = [&](BlockId b) {
    if (s.queued[b] == s.epoch || s.dead[b] == s.epoch) return;
    s.queued[b] = s.epoch;
    s.heap.emplace_back(pos_[b], b);
    std::push_heap(s.heap.begin(), s.heap.end());
    ++pushes;
  };

  for (const BlockId d : deadBlocks) s.dead[d] = s.epoch;
  for (const BlockId b : dirtySeeds) {
    if (q_->node(b).alive) push(b);
  }

  if (structural) {
    // The live adjacency differs from the committed one after a tentative
    // merge; fold the current spans until a fixpoint.
    while (!s.heap.empty()) {
      std::pop_heap(s.heap.begin(), s.heap.end());
      const BlockId b = s.heap.back().second;
      s.heap.pop_back();
      s.queued[b] = 0;

      double best = 0.0;
      for (const auto& [child, cost] : q_->out(b)) {
        best = std::max(best, cost / beta + effective(child));
      }
      const double newValue = q_->node(b).work / speedOf(b, overrides) + best;
      if (newValue == effective(b)) continue;  // early cutoff
      if (s.stamp[b] != s.epoch) {
        s.stamp[b] = s.epoch;
        s.touched.push_back(b);
      }
      s.value[b] = newValue;
      for (const auto& [parent, cost] : q_->in(b)) push(parent);
    }
  } else {
    // Hot path (Step-4 probes, processor-only commits): the topology
    // matches the committed CSR, positions are exact, so every node pops
    // at most once with its children final. A node's best child-term is
    // patched in O(1) per changed child — max over doubles is exact, so
    // any composition order yields the identical fold value — and only a
    // decayed previous maximum forces an O(deg) refold at pop time.
    auto bestOf = [&](BlockId b) {
      return s.bestStamp[b] == s.epoch ? s.bestVal[b] : bestTerm_[b];
    };
    while (!s.heap.empty()) {
      std::pop_heap(s.heap.begin(), s.heap.end());
      const BlockId b = s.heap.back().second;
      s.heap.pop_back();
      s.queued[b] = 0;

      double best;
      if (s.refold[b] == s.epoch) {
        best = 0.0;
        for (const auto& [child, cost] : q_->out(b)) {
          best = std::max(best, cost / beta + effective(child));
        }
        if (s.bestStamp[b] != s.epoch) {
          s.bestStamp[b] = s.epoch;
          s.bestTouched.push_back(b);
        }
        s.bestVal[b] = best;
      } else {
        best = bestOf(b);
      }
      const double newValue =
          q_->node(b).work / speedOf(b, overrides) + best;
      if (newValue == bottom_[b]) continue;  // early cutoff
      s.stamp[b] = s.epoch;
      s.touched.push_back(b);
      s.value[b] = newValue;

      // Patch every parent's best term: old contribution out, new one in.
      for (const auto& [p, cost] : q_->in(b)) {
        if (s.refold[p] == s.epoch) {
          push(p);  // already refolding: the fold will read the overlay
          continue;
        }
        // b's in-entry carries the same cost as p's out-entry for b, so
        // the term is available without touching p's adjacency.
        const double costBeta = cost / beta;
        const double oldTerm = costBeta + bottom_[b];
        const double newTerm = costBeta + newValue;
        const double current = bestOf(p);
        if (oldTerm == current && newTerm < oldTerm) {
          s.refold[p] = s.epoch;  // previous maximum decayed: exact refold
          push(p);
        } else if (newTerm > current) {
          if (s.bestStamp[p] != s.epoch) {
            s.bestStamp[p] = s.epoch;
            s.bestTouched.push_back(p);
          }
          s.bestVal[p] = newTerm;
          push(p);
        }
        // else: the parent's maximum provably did not move — no work.
      }
    }
  }

  obs::add(obs::Counter::kEvalRepairPushes, pushes);
  // New makespan: the best tentative value vs the best committed value of a
  // block the probe left untouched (walk down from the committed maximum).
  double result = 0.0;
  for (const BlockId b : s.touched) result = std::max(result, s.value[b]);
  for (auto it = values_.rbegin(); it != values_.rend(); ++it) {
    const BlockId b = it->second;
    if (s.stamp[b] == s.epoch || s.dead[b] == s.epoch) continue;
    result = std::max(result, it->first);
    break;
  }
  return result;
}

double IncrementalEvaluator::probeAssign(
    Scratch& s, std::span<const ProcOverride> overrides) const {
  obs::add(obs::Counter::kEvalProbesAssign);
  if (comm_ != nullptr) return contendedProbe(s, overrides);
  // Seeds are the overridden blocks themselves; only their own term of the
  // Eq. (1) recurrence changed. The searches pass at most two overrides;
  // larger sets spill to the heap.
  BlockId inlineSeeds[8];
  std::vector<BlockId> spill;
  BlockId* seeds = inlineSeeds;
  if (overrides.size() > std::size(inlineSeeds)) {
    spill.resize(overrides.size());
    seeds = spill.data();
  }
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    seeds[i] = overrides[i].block;
  }
  return repair(s, std::span<const BlockId>(seeds, overrides.size()), {},
                overrides, /*structural=*/false);
}

double IncrementalEvaluator::probeMerged(
    Scratch& s, std::span<const BlockId> dirtySeeds,
    std::span<const BlockId> deadBlocks) const {
  obs::add(obs::Counter::kEvalProbesMerged);
  if (comm_ != nullptr) {
    // Structural probe under a model: the node set changed, so the cached
    // fluid does not apply; price the merged quotient like the full path.
    const auto fluid = buildQuotientFluid(*q_, *cluster_);
    assert(fluid.has_value() && "probeMerged requires an acyclic quotient");
    const comm::FluidResult eval =
        comm_->evaluate(fluid->problem, cluster_->bandwidth());
    assert(eval.ok);
    return eval.makespan;
  }
  assert(q_->isAcyclic() && "probeMerged requires an acyclic quotient");
  return repair(s, dirtySeeds, deadBlocks, {}, /*structural=*/true);
}

void IncrementalEvaluator::seedsOfMerge(const MergeTransaction& tx,
                                        std::vector<BlockId>& dirtySeeds,
                                        std::vector<BlockId>& deadBlocks) {
  dirtySeeds.clear();
  deadBlocks.clear();
  dirtySeeds.push_back(tx.survivor);
  // The absorbed node's former parents lost their edge to it and gained (or
  // grew) one to the survivor: their child terms changed structurally.
  for (const auto& [parent, prior] : tx.neighborOutOfSurvivor) {
    dirtySeeds.push_back(parent);
  }
  deadBlocks.push_back(tx.absorbed);
}

TentativeMerge::TentativeMerge(QuotientGraph& q,
                               const IncrementalEvaluator* eval)
    : q_(q), eval_(eval) {
  if (eval != nullptr) scratch_ = IncrementalEvaluator::Scratch(*eval);
}

bool TentativeMerge::apply(BlockId host, BlockId absorbed) {
  assert(!tx1_ && "the previous merge was neither rolled back nor kept");
  const bool knownCyclic =
      eval_ != nullptr && eval_->mergeWouldCreateCycle(host, absorbed);
  tx1_ = q_.merge(host, absorbed);
  assert(eval_ == nullptr || knownCyclic == !q_.isAcyclic());
  third_ = kNoBlock;
  if (eval_ != nullptr ? !knownCyclic : q_.isAcyclic()) return true;
  // A 2-cycle can be repaired by absorbing the partner; anything longer
  // discards the candidate. Rare path: the full acyclicity check after the
  // repair merge stays.
  if (const auto partner = q_.twoCyclePartner(host)) {
    tx2_ = q_.merge(host, *partner);
    if (q_.isAcyclic()) {
      third_ = *partner;
      return true;
    }
  }
  rollback();
  return false;
}

double TentativeMerge::probe() {
  assert(eval_ != nullptr && tx1_);
  IncrementalEvaluator::seedsOfMerge(*tx1_, seeds_, dead_);
  if (tx2_) {
    IncrementalEvaluator::seedsOfMerge(*tx2_, seeds2_, dead2_);
    seeds_.insert(seeds_.end(), seeds2_.begin(), seeds2_.end());
    dead_.insert(dead_.end(), dead2_.begin(), dead2_.end());
  }
  return eval_->probeMerged(scratch_, seeds_, dead_);
}

void TentativeMerge::rollback() {
  if (tx2_) q_.rollback(std::move(*tx2_));
  q_.rollback(std::move(*tx1_));
  tx1_.reset();
  tx2_.reset();
}

bool IncrementalEvaluator::mergeWouldCreateCycle(BlockId a, BlockId b) const {
  obs::add(obs::Counter::kEvalCycleChecks);
  // The committed quotient is acyclic, so a path between the two blocks can
  // only run in one direction: from the earlier position to the later one.
  // Merging closes a cycle exactly when such a path passes through at least
  // one intermediate node (direct edges collapse into the merged block).
  BlockId src = a;
  BlockId dst = b;
  if (pos_[src] > pos_[dst]) std::swap(src, dst);
  const std::uint32_t limit = pos_[dst];

  if (visitStamp_.size() != q_->numSlots()) {
    visitStamp_.assign(q_->numSlots(), 0);
    visitEpoch_ = 0;
  }
  ++visitEpoch_;
  if (visitEpoch_ == 0) {
    std::fill(visitStamp_.begin(), visitStamp_.end(), 0u);
    visitEpoch_ = 1;
  }
  dfsStack_.clear();
  for (const auto& [child, cost] : q_->out(src)) {
    if (child == dst) continue;  // the direct edge becomes internal
    if (pos_[child] < limit) dfsStack_.push_back(child);
  }
  while (!dfsStack_.empty()) {
    const BlockId n = dfsStack_.back();
    dfsStack_.pop_back();
    if (visitStamp_[n] == visitEpoch_) continue;
    visitStamp_[n] = visitEpoch_;
    for (const auto& [child, cost] : q_->out(n)) {
      if (child == dst) return true;
      if (pos_[child] < limit && visitStamp_[child] != visitEpoch_) {
        dfsStack_.push_back(child);
      }
    }
  }
  return false;
}

void IncrementalEvaluator::commitAssign(std::span<const BlockId> dirtySeeds) {
  obs::add(obs::Counter::kEvalCommits);
  criticalPathValid_ = false;
  ++version_;
  if (comm_ != nullptr) {
    // Patch the committed fluid in place (same expressions as
    // buildQuotientFluid) and re-price it.
    for (const BlockId b : dirtySeeds) {
      const QNode& node = q_->node(b);
      const platform::ProcessorId p = node.proc;
      const double speed =
          p == platform::kNoProcessor ? 1.0 : cluster_->speed(p);
      comm::FluidNode& fn = fluid_->problem.nodes[nodeOfBlock_[b]];
      fn.duration = node.work / speed;
    }
    eval_ = comm_->evaluate(fluid_->problem, cluster_->bandwidth());
    assert(eval_.ok);
    makespan_ = eval_.makespan;
    return;
  }
  repair(commitScratch_, dirtySeeds, {}, {}, /*structural=*/false);
  for (const BlockId b : commitScratch_.bestTouched) {
    bestTerm_[b] = commitScratch_.bestVal[b];
  }
  // Drop the touched blocks' entries (stamped by this repair), append their
  // new values sorted, and merge the two runs: the same pairs in the same
  // order as a fresh sort.
  const Scratch& s = commitScratch_;
  values_.erase(std::remove_if(values_.begin(), values_.end(),
                               [&](const std::pair<double, BlockId>& v) {
                                 return s.stamp[v.second] == s.epoch;
                               }),
                values_.end());
  const auto kept = static_cast<std::ptrdiff_t>(values_.size());
  for (const BlockId b : s.touched) {
    bottom_[b] = s.value[b];
    values_.emplace_back(bottom_[b], b);
  }
  std::sort(values_.begin() + kept, values_.end());
  std::inplace_merge(values_.begin(), values_.begin() + kept, values_.end());
  makespan_ = values_.empty() ? 0.0 : values_.back().first;
}

const std::vector<BlockId>& IncrementalEvaluator::criticalPath() const {
  if (criticalPathValid_) return criticalPath_;
  criticalPathValid_ = true;
  if (comm_ != nullptr) {
    criticalPath_ = fluidCriticalPath(*fluid_, eval_);
  } else {
    const double beta = cluster_->bandwidth();
    criticalPath_ = bottomWeightCriticalPath(*q_, beta, order_, bottom_);
  }
  return criticalPath_;
}

void IncrementalEvaluator::syncScratchFluid(Scratch& s) const {
  if (s.fluidVersion == version_) return;
  s.fluid = fluid_->problem;
  s.fluidVersion = version_;
}

double IncrementalEvaluator::contendedProbe(
    Scratch& s, std::span<const ProcOverride> overrides) const {
  syncScratchFluid(s);
  // Patch only the overridden nodes; everything else (order, edges, other
  // durations) is byte-identical to what buildQuotientFluid would rebuild,
  // so the evaluation is bit-identical to the full path.
  comm::FluidNode inlineSaved[8];
  std::vector<comm::FluidNode> spill;
  comm::FluidNode* saved = inlineSaved;
  if (overrides.size() > std::size(inlineSaved)) {
    spill.resize(overrides.size());
    saved = spill.data();
  }
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    const BlockId b = overrides[i].block;
    const std::uint32_t idx = nodeOfBlock_[b];
    saved[i] = s.fluid.nodes[idx];
    const platform::ProcessorId p = overrides[i].proc;
    const double speed = p == platform::kNoProcessor ? 1.0 : cluster_->speed(p);
    s.fluid.nodes[idx].duration = q_->node(b).work / speed;
  }
  const comm::FluidResult eval =
      comm_->evaluate(s.fluid, cluster_->bandwidth());
  for (std::size_t i = 0; i < overrides.size(); ++i) {
    s.fluid.nodes[nodeOfBlock_[overrides[i].block]] = saved[i];
  }
  assert(eval.ok);
  return eval.makespan;
}

}  // namespace dagpm::quotient
