#include "memory/sp_tree.hpp"

#include <cassert>
#include <utility>

#include "memory/sp_pair_slot.hpp"

namespace dagpm::memory {

using graph::VertexId;

namespace {

constexpr std::uint32_t kNoEdge = 0xffffffffu;

/// One reduction, in the order the flat pass applied it. A series reduction
/// at `task` joins the live edges `in` (into the task) and `out` (out of it);
/// a merge of two input multi-edges has `task` = kInvalidVertex and folds
/// edge `in` into edge `into`. The result of a series reduction joins the
/// live edge `into` in parallel or, when `into` is kNoEdge, becomes the next
/// edge id.
struct Step {
  VertexId task = graph::kInvalidVertex;
  std::uint32_t in = kNoEdge;
  std::uint32_t out = kNoEdge;
  std::uint32_t into = kNoEdge;
};

/// The Valdes–Tarjan–Lawler reduction on degree counts alone. A vertex keeps
/// the XOR of its live in-edge ids and of its live out-edge ids, which is the
/// single live edge when the degree is 1; the one live edge of a vertex pair
/// is found through an open-addressing pair index. No SP expression is
/// built: the steps are recorded, and only a TTSP block replays them.
class FlatReduction {
 public:
  /// Reduces `g` (at least two tasks) with virtual terminals attached.
  explicit FlatReduction(const graph::Dag& g) {
    const auto n = static_cast<std::uint32_t>(g.numVertices());
    source_ = n;
    sink_ = n + 1;
    vertices_.assign(n + 2, VertexState{});
    edges_.reserve(g.numEdges() + 3 * std::size_t{n});
    for (VertexId v = 0; v < n; ++v) {
      for (const graph::EdgeId e : g.outEdges(v)) addEdge(v, g.edge(e).dst);
    }
    // Zero-cost connectors from the virtual source to every real source and
    // from every real sink to the virtual sink.
    for (VertexId v = 0; v < n; ++v) {
      if (g.inEdges(v).empty()) addEdge(source_, v);
      if (g.outEdges(v).empty()) addEdge(v, sink_);
    }
    initialEdges_ = static_cast<std::uint32_t>(edges_.size());
    // Each pair gains at most one edge per series reduction after this.
    pairs_.reset(edges_.size() + n);
    foldInputMultiEdges();
    reduceSeries();
  }

  /// The surviving source->sink edge, or kNoEdge if `g` is not TTSP.
  [[nodiscard]] std::uint32_t result() const {
    if (live_ != 1 || vertices_[source_].outDeg != 1) return kNoEdge;
    const std::uint32_t last = vertices_[source_].outXor;
    return edges_[last].dst == sink_ ? last : kNoEdge;
  }

  [[nodiscard]] std::uint32_t initialEdges() const { return initialEdges_; }
  [[nodiscard]] std::size_t numEdges() const { return edges_.size(); }
  [[nodiscard]] const std::vector<Step>& steps() const { return steps_; }

 private:
  struct VertexState {
    std::uint32_t inDeg = 0;
    std::uint32_t outDeg = 0;
    std::uint32_t inXor = 0;   // XOR of the live in-edge ids
    std::uint32_t outXor = 0;  // XOR of the live out-edge ids
  };

  struct FlatEdge {
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    bool alive = true;
  };

  /// Open addressing with linear probing: the last edge id of each pair
  /// (live, or dead with no live successor).
  class PairIndex {
   public:
    /// Room for `entries` pairs at a load factor of at most 1/2.
    void reset(std::size_t entries) {
      bits_ = 1;
      while ((std::size_t{1} << bits_) < 2 * entries) ++bits_;
      slots_.assign(std::size_t{1} << bits_, Slot{});
    }

    /// The edge slot of `key`, inserted holding kNoEdge when absent.
    std::uint32_t& operator[](std::uint64_t key) {
      const std::size_t mask = slots_.size() - 1;
      for (std::size_t i = detail::pairSlot(key, bits_);; i = (i + 1) & mask) {
        Slot& slot = slots_[i];
        if (slot.key == key) return slot.edge;
        if (slot.key == kEmpty) {
          slot.key = key;
          return slot.edge;
        }
      }
    }

   private:
    // No vertex id reaches 2^32 - 1, so no pair key is all ones.
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    struct Slot {
      std::uint64_t key = kEmpty;
      std::uint32_t edge = kNoEdge;
    };
    unsigned bits_ = 1;
    std::vector<Slot> slots_;
  };

  std::uint32_t addEdge(std::uint32_t u, std::uint32_t v) {
    const auto id = static_cast<std::uint32_t>(edges_.size());
    edges_.push_back(FlatEdge{u, v, true});
    ++vertices_[u].outDeg;
    vertices_[u].outXor ^= id;
    ++vertices_[v].inDeg;
    vertices_[v].inXor ^= id;
    ++live_;
    return id;
  }

  void removeEdge(std::uint32_t id) {
    FlatEdge& e = edges_[id];
    assert(e.alive);
    e.alive = false;
    --vertices_[e.src].outDeg;
    vertices_[e.src].outXor ^= id;
    --vertices_[e.dst].inDeg;
    vertices_[e.dst].inXor ^= id;
    --live_;
  }

  /// Folds each input multi-edge into the first edge of its pair, in edge
  /// id order: u's out-edges in u's out-list order. The connectors index
  /// their pairs and never merge.
  void foldInputMultiEdges() {
    for (std::uint32_t id = 0; id < initialEdges_; ++id) {
      std::uint32_t& first =
          pairs_[detail::pairKey(edges_[id].src, edges_[id].dst)];
      if (first == kNoEdge) {
        first = id;
      } else {
        steps_.push_back(Step{graph::kInvalidVertex, id, kNoEdge, first});
        removeEdge(id);
      }
    }
  }

  bool isSeries(std::uint32_t v) const {
    return v != source_ && v != sink_ && vertices_[v].inDeg == 1 &&
           vertices_[v].outDeg == 1;
  }

  /// Series reductions from a LIFO queue seeded with the vertices in id
  /// order; a new u->w edge joins that pair's live edge in parallel.
  void reduceSeries() {
    std::vector<std::uint32_t> queue;
    for (std::uint32_t v = 0; v < vertices_.size(); ++v) {
      if (isSeries(v)) queue.push_back(v);
    }
    while (!queue.empty()) {
      const std::uint32_t v = queue.back();
      queue.pop_back();
      if (!isSeries(v)) continue;  // stale entry
      const std::uint32_t eIn = vertices_[v].inXor;
      const std::uint32_t eOut = vertices_[v].outXor;
      const std::uint32_t u = edges_[eIn].src;
      const std::uint32_t w = edges_[eOut].dst;
      if (u == w) continue;  // would form a self-loop; impossible in a DAG
      removeEdge(eIn);
      removeEdge(eOut);
      std::uint32_t& pair = pairs_[detail::pairKey(u, w)];
      if (pair != kNoEdge && edges_[pair].alive) {
        steps_.push_back(Step{v, eIn, eOut, pair});
      } else {
        steps_.push_back(Step{v, eIn, eOut, kNoEdge});
        pair = addEdge(u, w);
      }
      if (isSeries(u)) queue.push_back(u);
      if (isSeries(w)) queue.push_back(w);
    }
  }

  std::uint32_t source_ = 0;
  std::uint32_t sink_ = 0;
  std::uint32_t initialEdges_ = 0;
  std::uint32_t live_ = 0;
  std::vector<VertexState> vertices_;
  std::vector<FlatEdge> edges_;
  PairIndex pairs_;
  std::vector<Step> steps_;
};

/// Rebuilds the SP expression of a TTSP block from the flat pass's steps:
/// every live edge carries the interior tasks it has absorbed.
class ExpressionReplay {
 public:
  /// The compacted expression of `flat`'s surviving edge.
  SpTree run(const FlatReduction& flat) {
    edgeExpr_.reserve(flat.numEdges());
    nodes_.reserve(flat.initialEdges() + 3 * flat.steps().size());
    for (std::uint32_t id = 0; id < flat.initialEdges(); ++id) {
      addEdge(emptySeries());
    }
    for (const Step& step : flat.steps()) {
      if (step.task == graph::kInvalidVertex) {
        parallelInto(step.into, edgeExpr_[step.in]);
        removeEdge(step.in);
        continue;
      }
      const std::uint32_t expr =
          seriesOf(edgeExpr_[step.in], step.task, edgeExpr_[step.out]);
      removeEdge(step.in);
      removeEdge(step.out);
      if (step.into != kNoEdge) {
        parallelInto(step.into, expr);
      } else {
        addEdge(expr);
      }
    }
    return compact(edgeExpr_[flat.result()]);
  }

 private:
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

  void addEdge(std::uint32_t expr) {
    edgeExpr_.push_back(expr);
    addRef(expr);
  }

  void removeEdge([[maybe_unused]] std::uint32_t id) {
#ifndef NDEBUG
    --refs_[edgeExpr_[id]];
#endif
  }

  /// Series(a, Task(mid), b) in O(1): nested series are left as they are
  /// and flattened once, by compact().
  std::uint32_t seriesOf(std::uint32_t a, VertexId mid, std::uint32_t b) {
    const std::uint32_t task = makeExpr(SpNode{SpNode::Kind::kTask, mid, {}});
    addRef(a);
    addRef(task);
    addRef(b);
    return makeExpr(SpNode{SpNode::Kind::kSeries, graph::kInvalidVertex,
                           {a, task, b}});
  }

  /// Composes `expr` (a Series: an input edge's empty one or a series
  /// reduction's) in parallel after the expression of the live edge `id`.
  /// A live edge's expression is referenced by that edge alone, so a
  /// Parallel expression grows in place.
  void parallelInto(std::uint32_t id, std::uint32_t expr) {
    std::uint32_t survivor = edgeExpr_[id];
    assert(refs_[survivor] == 1 && "a live edge's expression is shared");
    if (nodes_[survivor].kind != SpNode::Kind::kParallel) {
      // The wrapper takes over the edge's reference to `survivor`.
      survivor = makeExpr(
          SpNode{SpNode::Kind::kParallel, graph::kInvalidVertex, {survivor}});
      edgeExpr_[id] = survivor;
      addRef(survivor);
    }
    assert(nodes_[expr].kind == SpNode::Kind::kSeries);
    addRef(expr);
    nodes_[survivor].children.push_back(expr);
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

  // SP expression of each edge id, live or not.
  std::vector<std::uint32_t> edgeExpr_;
  std::vector<SpNode> nodes_;
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
  if (g.numVertices() == 0) return std::nullopt;
  if (g.numVertices() == 1) {
    // A single task is trivially SP: expression = Task(v).
    SpTree tree;
    tree.nodes.push_back(SpNode{SpNode::Kind::kTask, 0, {}});
    tree.root = 0;
    return tree;
  }
  const FlatReduction flat(g);
  if (flat.result() == kNoEdge) return std::nullopt;  // not TTSP
  return ExpressionReplay().run(flat);
}

}  // namespace dagpm::memory
