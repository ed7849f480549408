#include "graph/dag.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dagpm::graph {

void Dag::reserve(std::size_t vertices, std::size_t edges) {
  work_.reserve(vertices);
  memory_.reserve(vertices);
  labels_.reserve(vertices);
  out_.reserve(vertices);
  in_.reserve(vertices);
  edges_.reserve(edges);
}

double Dag::checkedWeight(double x) {
  if (!std::isfinite(x) || x < 0.0) {
    throw std::invalid_argument(
        "Dag: work, memory and edge cost must be finite and non-negative");
  }
  return x;
}

VertexId Dag::addVertex(double work, double memory, std::string label) {
  checkedWeight(work);
  checkedWeight(memory);
  const auto id = static_cast<VertexId>(work_.size());
  work_.push_back(work);
  memory_.push_back(memory);
  labels_.push_back(std::move(label));
  out_.emplace_back();
  in_.emplace_back();
  return id;
}

EdgeId Dag::addEdge(VertexId u, VertexId v, double cost) {
  if (u >= numVertices() || v >= numVertices()) {
    throw std::invalid_argument("Dag::addEdge: endpoint out of range");
  }
  if (u == v) {
    throw std::invalid_argument(
        "Dag::addEdge: self-loops are not allowed in a workflow DAG");
  }
  const auto id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(Edge{u, v, checkedWeight(cost)});
  out_[u].push_back(id);
  in_[v].push_back(id);
  return id;
}

double Dag::outCost(VertexId v) const noexcept {
  double s = 0.0;
  for (const EdgeId e : out_[v]) s += edges_[e].cost;
  return s;
}

double Dag::inCost(VertexId v) const noexcept {
  double s = 0.0;
  for (const EdgeId e : in_[v]) s += edges_[e].cost;
  return s;
}

double Dag::totalWork() const noexcept {
  double s = 0.0;
  for (const double w : work_) s += w;
  return s;
}

double Dag::maxTaskMemoryRequirement() const noexcept {
  double best = 0.0;
  for (VertexId v = 0; v < numVertices(); ++v) {
    best = std::max(best, taskMemoryRequirement(v));
  }
  return best;
}

std::vector<VertexId> Dag::sources() const {
  std::vector<VertexId> result;
  for (VertexId v = 0; v < numVertices(); ++v) {
    if (in_[v].empty()) result.push_back(v);
  }
  return result;
}

std::vector<VertexId> Dag::targets() const {
  std::vector<VertexId> result;
  for (VertexId v = 0; v < numVertices(); ++v) {
    if (out_[v].empty()) result.push_back(v);
  }
  return result;
}

}  // namespace dagpm::graph
