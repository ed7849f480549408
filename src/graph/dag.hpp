#pragma once
// Core workflow DAG data structure.
//
// A workflow is a directed acyclic graph whose vertices are tasks carrying a
// work weight w_u (normalized execution time) and a memory weight m_u, and
// whose edges carry a communication volume c_uv (file size written by u and
// read by v). The structure is append-only: vertices and edges are added but
// never removed (schedulers work on partitions/quotients instead of mutating
// the workflow), which lets us use flat arrays and stable ids throughout.

#include <cassert>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace dagpm::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

inline constexpr VertexId kInvalidVertex =
    std::numeric_limits<VertexId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

struct Edge {
  VertexId src = kInvalidVertex;
  VertexId dst = kInvalidVertex;
  double cost = 0.0;  // file size transferred along the edge
};

class Dag {
 public:
  Dag() = default;

  /// Pre-allocates internal arrays (optional, for generator performance).
  void reserve(std::size_t vertices, std::size_t edges);

  /// Adds a task with the given work and memory weights; returns its id.
  /// Every weight, here and in the setters below, must be finite and
  /// non-negative; anything else throws std::invalid_argument.
  VertexId addVertex(double work, double memory, std::string label = {});

  /// Adds a dependency edge u -> v with communication volume `cost`.
  /// Throws std::invalid_argument on an out-of-range endpoint, a self-loop,
  /// or a non-finite or negative cost. Acyclicity is *not* checked here (use
  /// isAcyclic() after construction, generators guarantee it by design).
  EdgeId addEdge(VertexId u, VertexId v, double cost);

  [[nodiscard]] std::size_t numVertices() const noexcept {
    return work_.size();
  }
  [[nodiscard]] std::size_t numEdges() const noexcept { return edges_.size(); }

  [[nodiscard]] double work(VertexId v) const noexcept { return work_[v]; }
  [[nodiscard]] double memory(VertexId v) const noexcept { return memory_[v]; }
  [[nodiscard]] const std::string& label(VertexId v) const noexcept {
    return labels_[v];
  }
  void setWork(VertexId v, double w) { work_[v] = checkedWeight(w); }
  void setMemory(VertexId v, double m) { memory_[v] = checkedWeight(m); }

  [[nodiscard]] const Edge& edge(EdgeId e) const noexcept { return edges_[e]; }
  void setEdgeCost(EdgeId e, double cost) {
    edges_[e].cost = checkedWeight(cost);
  }

  /// Ids of edges leaving / entering v.
  [[nodiscard]] std::span<const EdgeId> outEdges(VertexId v) const noexcept {
    return out_[v];
  }
  [[nodiscard]] std::span<const EdgeId> inEdges(VertexId v) const noexcept {
    return in_[v];
  }

  [[nodiscard]] std::size_t outDegree(VertexId v) const noexcept {
    return out_[v].size();
  }
  [[nodiscard]] std::size_t inDegree(VertexId v) const noexcept {
    return in_[v].size();
  }

  /// Sum of edge costs leaving / entering v.
  [[nodiscard]] double outCost(VertexId v) const noexcept;
  [[nodiscard]] double inCost(VertexId v) const noexcept;

  /// Task memory requirement r_u = sum_in c + sum_out c + m_u (paper Sec 3.1).
  [[nodiscard]] double taskMemoryRequirement(VertexId v) const noexcept {
    return inCost(v) + outCost(v) + memory_[v];
  }

  /// Total work of all tasks (single-processor makespan at speed 1).
  [[nodiscard]] double totalWork() const noexcept;

  /// Largest r_u over all tasks; the cluster must fit this to be usable.
  [[nodiscard]] double maxTaskMemoryRequirement() const noexcept;

  /// All source tasks (no parents) / target tasks (no children).
  [[nodiscard]] std::vector<VertexId> sources() const;
  [[nodiscard]] std::vector<VertexId> targets() const;

 private:
  /// `x` itself when finite and non-negative; throws otherwise.
  static double checkedWeight(double x);

  std::vector<double> work_;
  std::vector<double> memory_;
  std::vector<std::string> labels_;
  std::vector<Edge> edges_;
  std::vector<std::vector<EdgeId>> out_;
  std::vector<std::vector<EdgeId>> in_;
};

}  // namespace dagpm::graph
