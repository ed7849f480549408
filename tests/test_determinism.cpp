// Differential and determinism tests for the flat CSR quotient core and
// the partitioner's stdlib-independent edge emission.
//
// Part 1 pins the CSR quotient bit-exact against a legacy reference that
// stores adjacency in std::map<BlockId, double> — the storage the core
// used before the arena refactor. The reference replays the old
// edge-by-edge `+=` construction and the old map-rewiring merge inside the
// test; rollback on the reference side is a deep-copy snapshot (trivially
// correct), which makes it a genuine oracle for the transaction-based CSR
// rollback. Every comparison is bitwise on doubles: the CSR build's whole
// claim is that it reproduces the map's key order and fold order exactly.
//
// Part 2 asserts the coarsener emits coarse edges in sorted (src, dst)
// order and pins FNV-1a hashes of full coarsen->bisect partitions on fixed
// seeds. Coarse edge ids feed every RNG-coupled decision in bisect/FM, so
// these hashes must reproduce on any standard library implementation; a
// mismatch means iteration order of an unordered container leaked back
// into an emission path.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>
#include <vector>

#include "graph/dag.hpp"
#include "partition/coarsen.hpp"
#include "partition/partitioner.hpp"
#include "platform/cluster.hpp"
#include "quotient/quotient.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace dagpm {
namespace {

using graph::Dag;
using graph::EdgeId;
using graph::VertexId;
using quotient::BlockId;

using test::fuzzSeeds;

// ---------------------------------------------------------------------------
// Part 1: CSR quotient vs. legacy map-based reference
// ---------------------------------------------------------------------------

/// The pre-refactor quotient node: adjacency as ordered maps.
struct RefNode {
  bool alive = false;
  double work = 0.0;
  platform::ProcessorId proc = platform::kNoProcessor;
  std::vector<VertexId> members;
  std::map<BlockId, double> out;
  std::map<BlockId, double> in;
};

/// Legacy map-based quotient, replayed exactly as the old implementation
/// built and merged it. Copyable, so rollback is snapshot/restore.
struct RefQuotient {
  std::vector<RefNode> nodes;

  RefQuotient(const Dag& g, const std::vector<std::uint32_t>& blockOf,
              std::uint32_t numBlocks) {
    nodes.resize(numBlocks);
    for (auto& n : nodes) n.alive = true;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      nodes[blockOf[v]].work += g.work(v);
      nodes[blockOf[v]].members.push_back(v);
    }
    // Edge-by-edge map insertion: key order is sorted, parallel-edge costs
    // fold in edge-id order via repeated `+=`.
    for (EdgeId e = 0; e < g.numEdges(); ++e) {
      const graph::Edge& edge = g.edge(e);
      const std::uint32_t a = blockOf[edge.src];
      const std::uint32_t b = blockOf[edge.dst];
      if (a == b) continue;
      nodes[a].out[b] += edge.cost;
      nodes[b].in[a] += edge.cost;
    }
  }

  void merge(BlockId survivor, BlockId absorbed) {
    RefNode& s = nodes[survivor];
    RefNode& a = nodes[absorbed];
    for (const auto& [n, cost] : a.out) {
      if (n == survivor) continue;
      s.out[n] += cost;  // survivor value first, absorbed added onto it
      nodes[n].in.erase(absorbed);
      nodes[n].in[survivor] += cost;
    }
    for (const auto& [n, cost] : a.in) {
      if (n == survivor) continue;
      s.in[n] += cost;
      nodes[n].out.erase(absorbed);
      nodes[n].out[survivor] += cost;
    }
    s.out.erase(absorbed);
    s.in.erase(absorbed);
    s.work += a.work;
    s.members.insert(s.members.end(), a.members.begin(), a.members.end());
    a.alive = false;
  }
};

/// Bitwise comparison of the CSR graph against the map reference: alive
/// sets, works, member lists, and every adjacency entry (key and cost).
void expectMatchesReference(const quotient::QuotientGraph& q,
                            const RefQuotient& ref, const char* context) {
  ASSERT_EQ(q.numSlots(), ref.nodes.size()) << context;
  const auto expectAdjEqualsMap = [&](const quotient::AdjSpan span,
                                      const std::map<BlockId, double>& m,
                                      BlockId b, const char* dir) {
    ASSERT_EQ(span.size(), m.size())
        << context << ": node " << b << " " << dir;
    auto it = m.begin();
    for (const auto& [neighbor, cost] : span) {
      EXPECT_EQ(neighbor, it->first)
          << context << ": node " << b << " " << dir;
      EXPECT_EQ(cost, it->second)  // bitwise, not approximate
          << context << ": node " << b << " " << dir << " -> " << neighbor;
      ++it;
    }
  };
  for (BlockId b = 0; b < q.numSlots(); ++b) {
    const quotient::QNode& n = q.node(b);
    const RefNode& r = ref.nodes[b];
    ASSERT_EQ(n.alive, r.alive) << context << ": node " << b;
    if (!n.alive) continue;
    EXPECT_EQ(n.work, r.work) << context << ": node " << b;
    EXPECT_EQ(n.members, r.members) << context << ": node " << b;
    expectAdjEqualsMap(q.out(b), r.out, b, "out");
    expectAdjEqualsMap(q.in(b), r.in, b, "in");
  }
}

struct DiffCase {
  Dag dag;
  std::vector<std::uint32_t> blockOf;
  std::uint32_t numBlocks = 0;
};

DiffCase makeDiffCase(std::uint64_t seed) {
  DiffCase dc;
  support::Rng rng(seed * 419 + 13);
  dc.dag = test::randomLayeredDag(4 + static_cast<int>(rng.uniformInt(0, 4)),
                                  3 + static_cast<int>(rng.uniformInt(0, 4)),
                                  1 + static_cast<int>(rng.uniformInt(0, 2)),
                                  seed * 101 + 3);
  partition::PartitionConfig pcfg;
  pcfg.numParts = 4 + static_cast<std::uint32_t>(rng.uniformInt(0, 8));
  pcfg.seed = seed;
  const auto pr = partition::partitionAcyclic(dc.dag, pcfg);
  dc.blockOf = pr.blockOf;
  dc.numBlocks = pr.numBlocks;
  return dc;
}

class CsrDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(CsrDifferential, ConstructionMatchesLegacyMapBuild) {
  const DiffCase dc = makeDiffCase(GetParam());
  const quotient::QuotientGraph q(dc.dag, dc.blockOf, dc.numBlocks);
  const RefQuotient ref(dc.dag, dc.blockOf, dc.numBlocks);
  expectMatchesReference(q, ref, "construction");
}

TEST_P(CsrDifferential, MergeAndRollbackSequencesMatchLegacyMapSemantics) {
  const std::uint64_t seed = GetParam();
  const DiffCase dc = makeDiffCase(seed);
  quotient::QuotientGraph q(dc.dag, dc.blockOf, dc.numBlocks);
  RefQuotient ref(dc.dag, dc.blockOf, dc.numBlocks);
  support::Rng rng(seed ^ 0xc5a11d0f);

  const auto randomAlivePair = [&](BlockId& a, BlockId& b) {
    const auto alive = q.aliveNodes();
    if (alive.size() < 2) return false;
    a = alive[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
    b = a;
    while (b == a) {
      b = alive[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
    }
    return true;
  };

  for (int round = 0; round < 15 && q.numAlive() > 2; ++round) {
    if (rng.bernoulli(0.5)) {
      // Nested tentative merges, rolled back LIFO. The reference rolls
      // back by restoring deep-copy snapshots; both sides must agree at
      // every depth on the way down and on the way back up.
      std::vector<quotient::MergeTransaction> stack;
      std::vector<RefQuotient> snapshots;
      const int depth = 1 + static_cast<int>(rng.uniformInt(0, 2));
      for (int d = 0; d < depth; ++d) {
        BlockId a = 0, b = 0;
        if (!randomAlivePair(a, b)) break;
        snapshots.push_back(ref);
        stack.push_back(q.merge(a, b));
        ref.merge(a, b);
        expectMatchesReference(q, ref, "tentative merge");
      }
      while (!stack.empty()) {
        q.rollback(std::move(stack.back()));
        stack.pop_back();
        ref = std::move(snapshots.back());
        snapshots.pop_back();
        expectMatchesReference(q, ref, "rollback");
      }
    } else {
      // Committed merge.
      BlockId a = 0, b = 0;
      if (!randomAlivePair(a, b)) break;
      q.merge(a, b);
      ref.merge(a, b);
      expectMatchesReference(q, ref, "committed merge");
    }
  }
}

/// Bottom-weight recurrence (paper Eq. (1)-(2)) evaluated directly over the
/// reference maps: same per-node child iteration order (sorted keys), so
/// the CSR makespanValue must reproduce it bitwise.
double referenceMakespan(const RefQuotient& ref,
                         const platform::Cluster& cluster) {
  const std::size_t n = ref.nodes.size();
  // Kahn over the map adjacency.
  std::vector<std::uint32_t> indeg(n, 0);
  std::vector<BlockId> ready;
  for (BlockId b = 0; b < n; ++b) {
    if (!ref.nodes[b].alive) continue;
    indeg[b] = static_cast<std::uint32_t>(ref.nodes[b].in.size());
    if (indeg[b] == 0) ready.push_back(b);
  }
  std::vector<BlockId> order;
  while (!ready.empty()) {
    const BlockId b = ready.back();
    ready.pop_back();
    order.push_back(b);
    for (const auto& [child, cost] : ref.nodes[b].out) {
      if (--indeg[child] == 0) ready.push_back(child);
    }
  }
  const double beta = cluster.bandwidth();
  std::vector<double> bottom(n, 0.0);
  double makespan = 0.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const BlockId b = *it;
    double best = 0.0;
    for (const auto& [child, cost] : ref.nodes[b].out) {
      best = std::max(best, cost / beta + bottom[child]);
    }
    const platform::ProcessorId p = ref.nodes[b].proc;
    const double speed = p == platform::kNoProcessor ? 1.0 : cluster.speed(p);
    bottom[b] = ref.nodes[b].work / speed + best;
    makespan = std::max(makespan, bottom[b]);
  }
  return makespan;
}

TEST_P(CsrDifferential, MakespanFoldsMatchLegacyMapOrderBitExact) {
  const std::uint64_t seed = GetParam();
  const DiffCase dc = makeDiffCase(seed);
  quotient::QuotientGraph q(dc.dag, dc.blockOf, dc.numBlocks);
  RefQuotient ref(dc.dag, dc.blockOf, dc.numBlocks);

  std::vector<platform::Processor> procs;
  support::Rng rng(seed * 7919 + 1);
  const int k = 2 + static_cast<int>(rng.uniformInt(0, 4));
  for (int p = 0; p < k; ++p) {
    procs.push_back({"p" + std::to_string(p),
                     static_cast<double>(rng.uniformInt(1, 8)), 1e9});
  }
  const platform::Cluster cluster(std::move(procs),
                                  0.5 + rng.uniformReal() * 3.0);
  for (const BlockId b : q.aliveNodes()) {
    const auto p = static_cast<platform::ProcessorId>(
        rng.uniformInt(0, static_cast<std::int64_t>(k) - 1));
    q.setProcessor(b, p);
    ref.nodes[b].proc = p;
  }

  for (int step = 0; step < 8; ++step) {
    const auto value = quotient::makespanValue(q, cluster);
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(*value, referenceMakespan(ref, cluster)) << "step " << step;
    const auto full = quotient::computeMakespan(q, cluster);
    ASSERT_TRUE(full.acyclic);
    EXPECT_EQ(full.makespan, *value) << "step " << step;

    if (q.numAlive() <= 2) break;
    const auto alive = q.aliveNodes();
    const BlockId a = alive[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
    BlockId b = a;
    while (b == a) {
      b = alive[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(alive.size()) - 1))];
    }
    q.merge(a, b);
    ref.merge(a, b);
    if (!q.isAcyclic()) break;  // makespan undefined past this point
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CsrDifferential,
                         testing::ValuesIn(fuzzSeeds(10)));

// ---------------------------------------------------------------------------
// Part 2: stdlib-independent partitioning determinism
// ---------------------------------------------------------------------------

TEST(CoarsenDeterminism, CoarseEdgesAreEmittedInSortedSrcDstOrder) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Dag g = test::randomLayeredDag(8, 6, 3, seed);
    std::vector<double> weights(g.numVertices(), 1.0);
    support::Rng rng(seed);
    const auto levels = partition::detail::coarsen(g, weights, 8, 50.0, rng);
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const Dag& coarse = levels[l].dag;
      for (EdgeId e = 1; e < coarse.numEdges(); ++e) {
        const graph::Edge& prev = coarse.edge(e - 1);
        const graph::Edge& cur = coarse.edge(e);
        const bool sorted = prev.src < cur.src ||
                            (prev.src == cur.src && prev.dst < cur.dst);
        ASSERT_TRUE(sorted) << "seed " << seed << " level " << l << " edge "
                            << e << ": (" << prev.src << "," << prev.dst
                            << ") !< (" << cur.src << "," << cur.dst << ")";
      }
    }
  }
}

/// FNV-1a over the partition result. Any change to coarsening, bisection,
/// or FM iteration order moves this hash.
std::uint64_t partitionHash(const partition::PartitionResult& pr) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(pr.numBlocks);
  std::uint64_t cutBits = 0;
  static_assert(sizeof(cutBits) == sizeof(pr.edgeCut));
  std::memcpy(&cutBits, &pr.edgeCut, sizeof(cutBits));
  mix(cutBits);
  for (const std::uint32_t b : pr.blockOf) mix(b);
  return h;
}

TEST(PartitionDeterminism, CoarsenBisectHashesArePinned) {
  // Golden hashes recorded on this platform. They must reproduce on every
  // standard library implementation: all containers whose iteration order
  // feeds an emission or RNG-coupled decision are ordered or explicitly
  // sorted (see coarsenOnce's sorted edge emission). A mismatch here means
  // unordered-container iteration order leaked back in.
  struct Case {
    std::uint64_t dagSeed;
    std::uint32_t numParts;
    std::uint64_t expectedHash;
  };
  const Case cases[] = {
      {3, 4, 0x559d0c8999109f1dull},
      {17, 8, 0x0d8e473f30888856ull},
      {42, 12, 0xf7acc74403ba1645ull},
  };
  for (const Case& c : cases) {
    const Dag g = test::randomLayeredDag(10, 8, 3, c.dagSeed);
    partition::PartitionConfig pcfg;
    pcfg.numParts = c.numParts;
    pcfg.seed = c.dagSeed * 2 + 1;
    const auto pr = partition::partitionAcyclic(g, pcfg);
    EXPECT_EQ(partitionHash(pr), c.expectedHash)
        << "dagSeed " << c.dagSeed << " numParts " << c.numParts << " hash 0x"
        << std::hex << partitionHash(pr);
  }
}

TEST(PartitionDeterminism, RepeatedRunsAreBitIdentical) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Dag g = test::randomLayeredDag(7, 6, 3, seed);
    partition::PartitionConfig pcfg;
    pcfg.numParts = 6;
    pcfg.seed = seed;
    const auto first = partition::partitionAcyclic(g, pcfg);
    const auto second = partition::partitionAcyclic(g, pcfg);
    EXPECT_EQ(first.blockOf, second.blockOf) << "seed " << seed;
    EXPECT_EQ(first.numBlocks, second.numBlocks) << "seed " << seed;
    EXPECT_EQ(partitionHash(first), partitionHash(second)) << "seed " << seed;
  }
}

}  // namespace
}  // namespace dagpm
