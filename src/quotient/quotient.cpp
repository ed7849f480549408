#include "quotient/quotient.hpp"

#include <algorithm>
#include <cassert>

#include "obs/obs.hpp"

namespace dagpm::quotient {

using graph::EdgeId;
using graph::VertexId;

namespace {

constexpr auto kKeyLess = [](const AdjEntry& e, BlockId key) {
  return e.first < key;
};

AdjEntry* slabFind(std::vector<AdjEntry>& pool, const AdjRef& ref,
                   BlockId key) {
  AdjEntry* first = pool.data() + ref.offset;
  AdjEntry* last = first + ref.size;
  AdjEntry* it = std::lower_bound(first, last, key, kKeyLess);
  return it != last && it->first == key ? it : nullptr;
}

void slabErase(std::vector<AdjEntry>& pool, AdjRef& ref, AdjEntry* pos) {
  AdjEntry* first = pool.data() + ref.offset;
  std::move(pos + 1, first + ref.size, pos);
  --ref.size;
}

void slabInsert(std::vector<AdjEntry>& pool, AdjRef& ref, BlockId key,
                double value) {
  assert(ref.size < ref.capacity &&
         "slab insert only re-fills room freed by a prior erase");
  AdjEntry* first = pool.data() + ref.offset;
  AdjEntry* last = first + ref.size;
  AdjEntry* pos = std::lower_bound(first, last, key, kKeyLess);
  std::move_backward(pos, last, last + 1);
  *pos = AdjEntry(key, value);
  ++ref.size;
}

// Grows `pool` so at least `extra` entries can be appended without
// reallocating (spans into the pool stay valid through the merge).
// Geometric growth keeps repeated merges amortized O(1) per entry.
void reservePool(std::vector<AdjEntry>& pool, std::size_t extra) {
  const std::size_t need = pool.size() + extra;
  assert(need < 0xffffffffu && "adjacency arena exceeds 32-bit offsets");
  if (need > pool.capacity()) {
    pool.reserve(std::max(need, pool.capacity() * 2));
  }
}

// Appends the survivor's merged adjacency as a fresh slab: a sorted merge
// of its old list (minus the absorbed node) and the absorbed node's list
// (minus the survivor), summing costs where both have the neighbor — the
// exact key order and addition order (survivor + absorbed) the legacy
// map's `out[n] += cost` rewiring produced.
AdjRef appendMerged(std::vector<AdjEntry>& pool, AdjSpan sList, AdjSpan aList,
                    BlockId skipInS, BlockId skipInA) {
  AdjRef ref;
  ref.offset = static_cast<std::uint32_t>(pool.size());
  const AdjEntry* i = sList.begin();
  const AdjEntry* iEnd = sList.end();
  const AdjEntry* j = aList.begin();
  const AdjEntry* jEnd = aList.end();
  while (i != iEnd || j != jEnd) {
    if (i != iEnd && i->first == skipInS) {
      ++i;  // edge survivor<->absorbed becomes internal
      continue;
    }
    if (j != jEnd && j->first == skipInA) {
      ++j;
      continue;
    }
    if (j == jEnd || (i != iEnd && i->first < j->first)) {
      pool.push_back(*i++);
    } else if (i == iEnd || j->first < i->first) {
      pool.push_back(*j++);
    } else {
      pool.emplace_back(i->first, i->second + j->second);
      ++i;
      ++j;
    }
  }
  ref.size = ref.capacity =
      static_cast<std::uint32_t>(pool.size() - ref.offset);
  return ref;
}

// Replaces a neighbor's entry for the absorbed node by one for the
// survivor (summing when a survivor entry already exists), in place and
// order-preserving. Returns the prior survivor cost for the rollback log.
std::optional<double> redirectToSurvivor(std::vector<AdjEntry>& pool,
                                         AdjRef& ref, BlockId absorbed,
                                         BlockId survivor, double cost) {
  AdjEntry* posA = slabFind(pool, ref, absorbed);
  assert(posA != nullptr && "absorbed node missing from neighbor's list");
  AdjEntry* posS = slabFind(pool, ref, survivor);
  if (posS != nullptr) {
    const double prev = posS->second;
    posS->second += cost;
    slabErase(pool, ref, posA);
    return prev;
  }
  slabErase(pool, ref, posA);
  slabInsert(pool, ref, survivor, cost);
  return std::nullopt;
}

// Inverse of redirectToSurvivor, applied in LIFO rollback order: the
// absorbed entry returns at its sorted slot and the survivor entry reverts
// to its logged prior value (or disappears). The erase/insert pairing
// keeps slab sizes within the capacity recorded at slab birth.
void restoreNeighbor(std::vector<AdjEntry>& pool, AdjRef& ref,
                     BlockId absorbed, double cost, BlockId survivor,
                     const std::optional<double>& prior) {
  AdjEntry* posS = slabFind(pool, ref, survivor);
  assert(posS != nullptr && "survivor missing from neighbor's list");
  if (prior) {
    posS->second = *prior;
  } else {
    slabErase(pool, ref, posS);
  }
  slabInsert(pool, ref, absorbed, cost);
}

}  // namespace

QuotientGraph::QuotientGraph(const graph::Dag& g,
                             const std::vector<std::uint32_t>& blockOf,
                             std::uint32_t numBlocks)
    : g_(&g) {
  assert(blockOf.size() == g.numVertices());
  nodes_.resize(numBlocks);
  for (std::uint32_t b = 0; b < numBlocks; ++b) nodes_[b].alive = true;
  numAlive_ = numBlocks;
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    const std::uint32_t b = blockOf[v];
    assert(b < numBlocks);
    nodes_[b].work += g.work(v);
    nodes_[b].members.push_back(v);
  }

  // Flat two-pass build: count cross edges per endpoint, lay the slabs out
  // back to back, bucket-fill in edge-id order, then sort each slab by
  // neighbor and fold duplicates left to right — the same key order and
  // `+=` accumulation order as inserting into a std::map edge by edge.
  std::vector<std::uint32_t> outCnt(numBlocks, 0);
  std::vector<std::uint32_t> inCnt(numBlocks, 0);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    const std::uint32_t a = blockOf[edge.src];
    const std::uint32_t b = blockOf[edge.dst];
    if (a == b) continue;
    ++outCnt[a];
    ++inCnt[b];
  }
  std::size_t outTotal = 0;
  std::size_t inTotal = 0;
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    nodes_[b].outRef.offset = static_cast<std::uint32_t>(outTotal);
    nodes_[b].outRef.capacity = outCnt[b];
    outTotal += outCnt[b];
    nodes_[b].inRef.offset = static_cast<std::uint32_t>(inTotal);
    nodes_[b].inRef.capacity = inCnt[b];
    inTotal += inCnt[b];
  }
  assert(outTotal < 0xffffffffu && inTotal < 0xffffffffu);
  outPool_.resize(outTotal);
  inPool_.resize(inTotal);
  for (EdgeId e = 0; e < g.numEdges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    const std::uint32_t a = blockOf[edge.src];
    const std::uint32_t b = blockOf[edge.dst];
    if (a == b) continue;
    AdjRef& outRef = nodes_[a].outRef;
    outPool_[outRef.offset + outRef.size++] = AdjEntry(b, edge.cost);
    AdjRef& inRef = nodes_[b].inRef;
    inPool_[inRef.offset + inRef.size++] = AdjEntry(a, edge.cost);
  }
  const auto finalizeSlab = [](std::vector<AdjEntry>& pool, AdjRef& ref) {
    AdjEntry* first = pool.data() + ref.offset;
    AdjEntry* last = first + ref.size;
    // stable: parallel edges keep edge-id order, so their costs fold in
    // the same sequence the map's repeated `+=` used
    std::stable_sort(first, last,
                     [](const AdjEntry& x, const AdjEntry& y) {
                       return x.first < y.first;
                     });
    AdjEntry* w = first;
    for (AdjEntry* r = first; r != last; ++w) {
      *w = *r++;
      while (r != last && r->first == w->first) {
        w->second += r->second;
        ++r;
      }
    }
    ref.size = static_cast<std::uint32_t>(w - first);
  };
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    finalizeSlab(outPool_, nodes_[b].outRef);
    finalizeSlab(inPool_, nodes_[b].inRef);
  }
}

std::vector<BlockId> QuotientGraph::aliveNodes() const {
  std::vector<BlockId> alive;
  alive.reserve(numAlive_);
  for (BlockId b = 0; b < nodes_.size(); ++b) {
    if (nodes_[b].alive) alive.push_back(b);
  }
  return alive;
}

MergeTransaction QuotientGraph::merge(BlockId survivor, BlockId absorbed) {
  obs::add(obs::Counter::kQuotientMerges);
  assert(survivor != absorbed);
  QNode& s = nodes_[survivor];
  QNode& a = nodes_[absorbed];
  assert(s.alive && a.alive);

  MergeTransaction tx;
  tx.survivor = survivor;
  tx.absorbed = absorbed;
  tx.survivorWork = s.work;
  tx.survivorMemReq = s.memReq;
  tx.survivorMemberCount = static_cast<std::uint32_t>(s.members.size());
  tx.survivorOut = s.outRef;
  tx.survivorIn = s.inRef;
  tx.outPoolSize = static_cast<std::uint32_t>(outPool_.size());
  tx.inPoolSize = static_cast<std::uint32_t>(inPool_.size());

  // Grow the arenas up front so the appends below never reallocate while
  // spans into the pools are being read.
  reservePool(outPool_, std::size_t{s.outRef.size} + a.outRef.size);
  reservePool(inPool_, std::size_t{s.inRef.size} + a.inRef.size);

  const AdjSpan sOut = out(survivor);
  const AdjSpan sIn = in(survivor);
  const AdjSpan aOut = out(absorbed);
  const AdjSpan aIn = in(absorbed);

  // The survivor's merged lists go to fresh slabs at the arena top; its old
  // slabs — like the absorbed node's — stay intact as rollback data.
  s.outRef = appendMerged(outPool_, sOut, aOut, absorbed, survivor);
  s.inRef = appendMerged(inPool_, sIn, aIn, absorbed, survivor);

  // Rewire the absorbed node's neighbors to the survivor, logging each
  // prior survivor entry (in absorbed-adjacency order) for the rollback.
  for (const auto& [n, cost] : aOut) {
    if (n == survivor) continue;
    tx.neighborInOfSurvivor.emplace_back(
        n, redirectToSurvivor(inPool_, nodes_[n].inRef, absorbed, survivor,
                              cost));
  }
  for (const auto& [n, cost] : aIn) {
    if (n == survivor) continue;
    tx.neighborOutOfSurvivor.emplace_back(
        n, redirectToSurvivor(outPool_, nodes_[n].outRef, absorbed, survivor,
                              cost));
  }

  s.work += a.work;
  s.members.insert(s.members.end(), a.members.begin(), a.members.end());
  s.memReq = 0.0;  // caller recomputes via the memory oracle
  a.alive = false;
  --numAlive_;
  return tx;
}

void QuotientGraph::rollback(MergeTransaction&& tx) {
  obs::add(obs::Counter::kQuotientRollbacks);
  QNode& s = nodes_[tx.survivor];
  QNode& a = nodes_[tx.absorbed];
  assert(!a.alive);
  // The absorbed node's slabs were never touched: replay them against the
  // transaction logs to restore every neighbor in place, then drop the
  // survivor's merged slabs by truncating the arenas (LIFO: this merge's
  // slabs are the topmost outstanding ones).
  std::size_t k = 0;
  for (const auto& [n, cost] : out(tx.absorbed)) {
    if (n == tx.survivor) continue;
    restoreNeighbor(inPool_, nodes_[n].inRef, tx.absorbed, cost, tx.survivor,
                    tx.neighborInOfSurvivor[k++].second);
  }
  assert(k == tx.neighborInOfSurvivor.size());
  k = 0;
  for (const auto& [n, cost] : in(tx.absorbed)) {
    if (n == tx.survivor) continue;
    restoreNeighbor(outPool_, nodes_[n].outRef, tx.absorbed, cost, tx.survivor,
                    tx.neighborOutOfSurvivor[k++].second);
  }
  assert(k == tx.neighborOutOfSurvivor.size());
  s.outRef = tx.survivorOut;
  s.inRef = tx.survivorIn;
  s.work = tx.survivorWork;
  s.memReq = tx.survivorMemReq;
  s.members.resize(tx.survivorMemberCount);
  outPool_.resize(tx.outPoolSize);
  inPool_.resize(tx.inPoolSize);
  a.alive = true;
  ++numAlive_;
}

std::optional<std::vector<BlockId>> QuotientGraph::topologicalOrder() const {
  std::vector<std::uint32_t> indeg(nodes_.size(), 0);
  std::vector<BlockId> ready;
  std::size_t aliveCount = 0;
  for (BlockId b = 0; b < nodes_.size(); ++b) {
    if (!nodes_[b].alive) continue;
    ++aliveCount;
    indeg[b] = nodes_[b].inRef.size;
    if (indeg[b] == 0) ready.push_back(b);
  }
  std::vector<BlockId> order;
  order.reserve(aliveCount);
  while (!ready.empty()) {
    const BlockId b = ready.back();
    ready.pop_back();
    order.push_back(b);
    for (const auto& [n, cost] : out(b)) {
      if (--indeg[n] == 0) ready.push_back(n);
    }
  }
  if (order.size() != aliveCount) return std::nullopt;
  return order;
}

bool QuotientGraph::isAcyclic() const { return topologicalOrder().has_value(); }

std::optional<BlockId> QuotientGraph::twoCyclePartner(BlockId b) const {
  const AdjSpan ins = in(b);
  for (const auto& [n, cost] : out(b)) {
    if (ins.count(n) > 0) return n;
  }
  return std::nullopt;
}

namespace {

double speedOf(const QuotientGraph& q, const platform::Cluster& cluster,
               BlockId b) {
  const platform::ProcessorId p = q.node(b).proc;
  return p == platform::kNoProcessor ? 1.0 : cluster.speed(p);
}

/// Eq. (1): bottom weights in reverse topological order; returns their
/// maximum, the makespan of Eq. (2).
double fillBottomWeights(const QuotientGraph& q,
                         const platform::Cluster& cluster,
                         const std::vector<BlockId>& order,
                         std::vector<double>& bottom) {
  const double beta = cluster.bandwidth();
  bottom.assign(q.numSlots(), 0.0);
  double makespan = 0.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const BlockId b = *it;
    double best = 0.0;
    for (const auto& [child, cost] : q.out(b)) {
      best = std::max(best, cost / beta + bottom[child]);
    }
    bottom[b] = q.node(b).work / speedOf(q, cluster, b) + best;
    makespan = std::max(makespan, bottom[b]);
  }
  return makespan;
}

/// The Eq. (1)-(2) backward pass, with the critical path.
MakespanResult bottomWeightMakespan(const QuotientGraph& q,
                                    const platform::Cluster& cluster) {
  MakespanResult result;
  const auto order = q.topologicalOrder();
  if (!order) return result;  // acyclic=false: makespan undefined
  result.acyclic = true;
  const double beta = cluster.bandwidth();
  result.makespan = fillBottomWeights(q, cluster, *order, result.bottomWeight);
  result.criticalPath =
      bottomWeightCriticalPath(q, beta, *order, result.bottomWeight);
  return result;
}

MakespanResult makespanFromFluid(const QuotientFluid& fluid,
                                 const comm::FluidResult& eval) {
  MakespanResult result;
  if (!eval.ok) return result;
  result.acyclic = true;
  result.makespan = eval.makespan;
  result.criticalPath = fluidCriticalPath(fluid, eval);
  return result;
}

}  // namespace

std::optional<QuotientFluid> buildQuotientFluid(
    const QuotientGraph& q, const platform::Cluster& cluster) {
  const auto order = q.topologicalOrder();
  if (!order) return std::nullopt;
  QuotientFluid fluid;
  fluid.blockOfNode = *order;
  std::vector<std::uint32_t> nodeOfBlock(q.numSlots(), comm::kNoFluidEdge);
  for (std::uint32_t i = 0; i < order->size(); ++i) {
    nodeOfBlock[(*order)[i]] = i;
  }
  fluid.problem.nodes.resize(order->size());
  for (std::uint32_t i = 0; i < order->size(); ++i) {
    const BlockId b = (*order)[i];
    fluid.problem.nodes[i].duration = q.node(b).work / speedOf(q, cluster, b);
    // Per-destination in-edges in adjacency (sorted) order, so the
    // uncontended forward pass folds a fixed, reproducible term sequence.
    for (const auto& [parent, cost] : q.in(b)) {
      fluid.problem.edges.push_back({nodeOfBlock[parent], i, cost});
    }
  }
  return fluid;
}

std::vector<BlockId> bottomWeightCriticalPath(const QuotientGraph& q,
                                              double bandwidth,
                                              std::span<const BlockId> order,
                                              std::span<const double> bottom) {
  std::vector<BlockId> path;
  BlockId cur = kNoBlock;
  for (const BlockId b : order) {
    if (cur == kNoBlock || bottom[b] > bottom[cur]) cur = b;
  }
  while (cur != kNoBlock) {
    path.push_back(cur);
    BlockId next = kNoBlock;
    double bestTail = -1.0;
    for (const auto& [child, cost] : q.out(cur)) {
      const double tail = cost / bandwidth + bottom[child];
      if (tail > bestTail) {
        bestTail = tail;
        next = child;
      }
    }
    cur = next;
  }
  return path;
}

std::vector<BlockId> fluidCriticalPath(const QuotientFluid& fluid,
                                       const comm::FluidResult& eval) {
  std::vector<BlockId> path;
  std::uint32_t cur = comm::kNoFluidEdge;
  for (std::uint32_t i = 0; i < eval.finish.size(); ++i) {
    if (cur == comm::kNoFluidEdge || eval.finish[i] > eval.finish[cur]) {
      cur = i;
    }
  }
  while (cur != comm::kNoFluidEdge) {
    path.push_back(fluid.blockOfNode[cur]);
    const std::uint32_t e = eval.bindingEdge[cur];
    if (e == comm::kNoFluidEdge) break;
    cur = fluid.problem.edges[e].src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

MakespanResult computeMakespan(const QuotientGraph& q,
                               const platform::Cluster& cluster,
                               const comm::CommCostModel* model) {
  if (model == nullptr) return bottomWeightMakespan(q, cluster);
  const auto fluid = buildQuotientFluid(q, cluster);
  if (!fluid) return MakespanResult{};
  return makespanFromFluid(
      *fluid, model->evaluate(fluid->problem, cluster.bandwidth()));
}

std::optional<double> makespanValue(const QuotientGraph& q,
                                    const platform::Cluster& cluster,
                                    const comm::CommCostModel* model) {
  if (model != nullptr) {
    const auto fluid = buildQuotientFluid(q, cluster);
    if (!fluid) return std::nullopt;
    const comm::FluidResult eval =
        model->evaluate(fluid->problem, cluster.bandwidth());
    if (!eval.ok) return std::nullopt;
    return eval.makespan;
  }
  const auto order = q.topologicalOrder();
  if (!order) return std::nullopt;
  std::vector<double> bottom;
  return fillBottomWeights(q, cluster, *order, bottom);
}

}  // namespace dagpm::quotient
