#include "memory/sp_tree.hpp"

#include <cassert>
#include <unordered_map>
#include <utility>

namespace dagpm::memory {

using graph::VertexId;

namespace {

/// Live multigraph edge during the reduction.
struct MEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t expr = 0;  // SP expression of absorbed interior tasks
  bool alive = false;
};

class Reducer {
 public:
  explicit Reducer(const graph::Dag& g) : g_(g) {}

  std::optional<SpTree> run() {
    if (g_.numVertices() == 0) return std::nullopt;
    setUpVertices();
    if (g_.numVertices() == 1) {
      // A single task is trivially SP: expression = Task(v).
      SpTree tree;
      tree.nodes.push_back(
          SpNode{SpNode::Kind::kTask, 0, {}});
      tree.root = 0;
      return tree;
    }
    buildMultigraph();
    reduce();
    return finish();
  }

 private:
  static constexpr std::uint32_t kNoEdge = 0xffffffffu;

  void setUpVertices() {
    const auto n = static_cast<std::uint32_t>(g_.numVertices());
    source_ = n;      // virtual ids; may be fused with real terminals below
    sink_ = n + 1;
    numVertices_ = n + 2;
    inDeg_.assign(numVertices_, 0);
    outDeg_.assign(numVertices_, 0);
    inEdges_.assign(numVertices_, {});
    outEdges_.assign(numVertices_, {});
  }

  std::uint32_t makeExpr(SpNode node) {
    nodes_.push_back(std::move(node));
#ifndef NDEBUG
    refs_.push_back(0);
#endif
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  std::uint32_t emptySeries() {
    return makeExpr(SpNode{SpNode::Kind::kSeries, graph::kInvalidVertex, {}});
  }

  /// Counts one more reference to `node` from an edge or a parent node
  /// (debug builds).
  void addRef([[maybe_unused]] std::uint32_t node) {
#ifndef NDEBUG
    ++refs_[node];
#endif
  }

  std::uint32_t addMEdge(std::uint32_t u, std::uint32_t v, std::uint32_t expr) {
    const auto id = static_cast<std::uint32_t>(edges_.size());
    edges_.push_back(MEdge{u, v, expr, true});
    outEdges_[u].push_back(id);
    inEdges_[v].push_back(id);
    ++outDeg_[u];
    ++inDeg_[v];
    addRef(expr);
    return id;
  }

  void removeMEdge(std::uint32_t id) {
    MEdge& e = edges_[id];
    assert(e.alive);
    e.alive = false;
    --outDeg_[e.src];
    --inDeg_[e.dst];
#ifndef NDEBUG
    --refs_[e.expr];
#endif
  }

  /// First alive edge id in `list`, compacting dead entries.
  std::uint32_t firstAlive(std::vector<std::uint32_t>& list) {
    while (!list.empty() && !edges_[list.back()].alive) list.pop_back();
    // The list may still contain dead edges below the top; scan from the end.
    for (auto it = list.rbegin(); it != list.rend(); ++it) {
      if (edges_[*it].alive) return *it;
    }
    return kNoEdge;
  }

  void buildMultigraph() {
    edges_.reserve(g_.numEdges() + 2 * g_.numVertices());
    nodes_.reserve(edges_.capacity());
    for (VertexId v = 0; v < g_.numVertices(); ++v) {
      for (const graph::EdgeId e : g_.outEdges(v)) {
        addMEdge(v, g_.edge(e).dst, emptySeries());
      }
    }
    // Attach virtual terminals to all real sources/sinks with zero-cost
    // connector edges; the connectors carry empty expressions.
    for (VertexId v = 0; v < g_.numVertices(); ++v) {
      if (inDeg_[v] == 0) addMEdge(source_, v, emptySeries());
      if (outDeg_[v] == 0) addMEdge(v, sink_, emptySeries());
    }
  }

  /// Series(a, Task(mid), b) in O(1): nested series are left as they are
  /// and flattened once, by finish().
  std::uint32_t seriesOf(std::uint32_t a, VertexId mid, std::uint32_t b) {
    const std::uint32_t task = makeExpr(SpNode{SpNode::Kind::kTask, mid, {}});
    addRef(a);
    addRef(task);
    addRef(b);
    return makeExpr(SpNode{SpNode::Kind::kSeries, graph::kInvalidVertex,
                           {a, task, b}});
  }

  /// Composes `expr` in parallel after the expression of the live edge `id`.
  /// A live edge's expression is referenced by that edge alone, so a
  /// Parallel expression grows in place; a Parallel `expr` hands over its
  /// children (it is garbage afterwards).
  void parallelInto(std::uint32_t id, std::uint32_t expr) {
    std::uint32_t survivor = edges_[id].expr;
    assert(refs_[survivor] == 1 && "a live edge's expression is shared");
    if (nodes_[survivor].kind != SpNode::Kind::kParallel) {
      // The wrapper takes over the edge's reference to `survivor`.
      survivor = makeExpr(
          SpNode{SpNode::Kind::kParallel, graph::kInvalidVertex, {survivor}});
      edges_[id].expr = survivor;
      addRef(survivor);
    }
    std::vector<std::uint32_t>& children = nodes_[survivor].children;
    if (nodes_[expr].kind == SpNode::Kind::kParallel) {
      std::vector<std::uint32_t>& absorbed = nodes_[expr].children;
      children.insert(children.end(), absorbed.begin(), absorbed.end());
      absorbed.clear();
    } else {
      addRef(expr);
      children.push_back(expr);
    }
  }

  static std::uint64_t pairKey(std::uint32_t u, std::uint32_t v) {
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  /// Composes each input multi-edge into the first u->v edge of its out-list
  /// (in list order) and indexes every surviving pair.
  void mergeInitialMultiEdges() {
    std::vector<std::uint32_t> seenFrom(numVertices_, kNoEdge);
    std::vector<std::uint32_t> firstEdge(numVertices_, kNoEdge);
    pairEdge_.reserve(edges_.size());
    for (std::uint32_t u = 0; u < numVertices_; ++u) {
      for (const std::uint32_t id : outEdges_[u]) {
        const std::uint32_t v = edges_[id].dst;
        if (seenFrom[v] != u) {
          seenFrom[v] = u;
          firstEdge[v] = id;
          pairEdge_.emplace(pairKey(u, v), id);
        } else {
          parallelInto(firstEdge[v], edges_[id].expr);
          removeMEdge(id);
        }
      }
    }
  }

  void reduce() {
    // Candidate vertices for series reduction.
    std::vector<std::uint32_t> queue;
    auto enqueueIfSeries = [&](std::uint32_t v) {
      if (v != source_ && v != sink_ && inDeg_[v] == 1 && outDeg_[v] == 1) {
        queue.push_back(v);
      }
    };
    mergeInitialMultiEdges();
    for (std::uint32_t v = 0; v < numVertices_; ++v) enqueueIfSeries(v);

    while (!queue.empty()) {
      const std::uint32_t v = queue.back();
      queue.pop_back();
      if (v == source_ || v == sink_) continue;
      if (inDeg_[v] != 1 || outDeg_[v] != 1) continue;  // stale entry
      const std::uint32_t eIn = firstAlive(inEdges_[v]);
      const std::uint32_t eOut = firstAlive(outEdges_[v]);
      if (eIn == kNoEdge || eOut == kNoEdge) continue;
      const std::uint32_t u = edges_[eIn].src;
      const std::uint32_t w = edges_[eOut].dst;
      if (u == w) continue;  // would form a self-loop; impossible in a DAG
      const std::uint32_t expr =
          seriesOf(edges_[eIn].expr,
                   static_cast<VertexId>(v), edges_[eOut].expr);
      removeMEdge(eIn);
      removeMEdge(eOut);
      // At most one u->w edge is alive; the pair index names it (or a dead
      // edge of the same pair).
      const auto [it, fresh] = pairEdge_.try_emplace(pairKey(u, w), kNoEdge);
      if (!fresh && edges_[it->second].alive) {
        parallelInto(it->second, expr);
      } else {
        it->second = addMEdge(u, w, expr);
      }
      enqueueIfSeries(u);
      enqueueIfSeries(w);
    }
  }

  std::optional<SpTree> finish() const {
    std::uint32_t last = kNoEdge;
    std::size_t aliveCount = 0;
    for (std::uint32_t id = 0; id < edges_.size(); ++id) {
      if (edges_[id].alive) {
        ++aliveCount;
        last = id;
      }
    }
    if (aliveCount != 1) return std::nullopt;  // not TTSP
    const MEdge& e = edges_[last];
    if (e.src != source_ || e.dst != sink_) return std::nullopt;
    return compact(e.expr);
  }

  /// Copies the expression under `root` into a fresh arena, each series
  /// flattened into one child list. Iterative: a chain nests one series per
  /// task, and that depth must not reach the call stack.
  SpTree compact(std::uint32_t root) const {
    SpTree tree;
    // Copies whose children are still to be filled: (old id, new id).
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pending;
    std::vector<std::uint32_t> nested;
    auto copyOf = [&](std::uint32_t old) {
      const auto id = static_cast<std::uint32_t>(tree.nodes.size());
      tree.nodes.push_back(SpNode{nodes_[old].kind, nodes_[old].task, {}});
      pending.emplace_back(old, id);
      return id;
    };
    tree.root = copyOf(root);
    while (!pending.empty()) {
      const auto [old, id] = pending.back();
      pending.pop_back();
      const std::vector<std::uint32_t>& from = nodes_[old].children;
      std::vector<std::uint32_t> children;
      if (nodes_[old].kind == SpNode::Kind::kParallel) {
        children.reserve(from.size());
        for (const std::uint32_t c : from) children.push_back(copyOf(c));
      } else if (nodes_[old].kind == SpNode::Kind::kSeries) {
        nested.assign(from.rbegin(), from.rend());
        while (!nested.empty()) {
          const std::uint32_t c = nested.back();
          nested.pop_back();
          const SpNode& child = nodes_[c];
          if (child.kind == SpNode::Kind::kSeries) {
            nested.insert(nested.end(), child.children.rbegin(),
                          child.children.rend());
          } else {
            children.push_back(copyOf(c));
          }
        }
      }
      tree.nodes[id].children = std::move(children);
    }
    return tree;
  }

  const graph::Dag& g_;
  std::uint32_t source_ = 0;
  std::uint32_t sink_ = 0;
  std::uint32_t numVertices_ = 0;
  std::vector<std::uint32_t> inDeg_;
  std::vector<std::uint32_t> outDeg_;
  std::vector<std::vector<std::uint32_t>> inEdges_;
  std::vector<std::vector<std::uint32_t>> outEdges_;
  std::vector<MEdge> edges_;
  std::vector<SpNode> nodes_;
  // Live (or last) edge of each vertex pair, keyed by pairKey.
  std::unordered_map<std::uint64_t, std::uint32_t> pairEdge_;
#ifndef NDEBUG
  // References to each node from live edges and parent nodes.
  std::vector<std::uint32_t> refs_;
#endif
};

}  // namespace

std::vector<VertexId> SpTree::tasksUnder(std::uint32_t node) const {
  std::vector<VertexId> result;
  std::vector<std::uint32_t> stack{node};
  while (!stack.empty()) {
    const std::uint32_t cur = stack.back();
    stack.pop_back();
    const SpNode& n = nodes[cur];
    if (n.kind == SpNode::Kind::kTask) {
      result.push_back(n.task);
    } else {
      // Push children in reverse to emit them in order.
      for (auto it = n.children.rbegin(); it != n.children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }
  return result;
}

std::optional<SpTree> buildSpTree(const graph::Dag& g) {
  return Reducer(g).run();
}

}  // namespace dagpm::memory
