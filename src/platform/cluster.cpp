#include "platform/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dagpm::platform {

namespace {

/// Speeds and the bandwidth divide every duration: each must be a finite
/// positive number.
double checkedRate(double x, const char* what) {
  if (!std::isfinite(x) || x <= 0.0) {
    throw std::invalid_argument(std::string("Cluster: ") + what +
                                " must be finite and positive");
  }
  return x;
}

}  // namespace

Cluster::Cluster(std::vector<Processor> processors, double bandwidth)
    : processors_(std::move(processors)),
      bandwidth_(checkedRate(bandwidth, "bandwidth")) {
  for (const Processor& p : processors_) {
    checkedRate(p.speed, "processor speed");
    if (!std::isfinite(p.memory) || p.memory < 0.0) {
      throw std::invalid_argument(
          "Cluster: processor memory must be finite and non-negative");
    }
  }
}

void Cluster::setBandwidth(double beta) {
  bandwidth_ = checkedRate(beta, "bandwidth");
}

double Cluster::largestMemory() const noexcept {
  double best = 0.0;
  for (const Processor& p : processors_) best = std::max(best, p.memory);
  return best;
}

double Cluster::smallestMemory() const noexcept {
  double best = processors_.empty() ? 0.0 : processors_.front().memory;
  for (const Processor& p : processors_) best = std::min(best, p.memory);
  return best;
}

double Cluster::fastestSpeed() const noexcept {
  double best = 0.0;
  for (const Processor& p : processors_) best = std::max(best, p.speed);
  return best;
}

std::vector<ProcessorId> Cluster::byDecreasingMemory() const {
  std::vector<ProcessorId> ids(processors_.size());
  for (ProcessorId i = 0; i < ids.size(); ++i) ids[i] = i;
  std::sort(ids.begin(), ids.end(), [this](ProcessorId a, ProcessorId b) {
    if (processors_[a].memory != processors_[b].memory) {
      return processors_[a].memory > processors_[b].memory;
    }
    if (processors_[a].speed != processors_[b].speed) {
      return processors_[a].speed > processors_[b].speed;
    }
    return a < b;
  });
  return ids;
}

double Cluster::scaleMemoriesToFit(double maxTaskRequirement) {
  const double largest = largestMemory();
  if (largest >= maxTaskRequirement || largest <= 0.0) return 1.0;
  const double factor = maxTaskRequirement / largest;
  for (Processor& p : processors_) p.memory *= factor;
  return factor;
}

std::vector<Processor> machineKinds(Heterogeneity h) {
  switch (h) {
    case Heterogeneity::kDefault:
      // Table 2: (name, speed GHz, memory GB).
      return {{"local", 4, 16}, {"A1", 32, 32}, {"A2", 6, 64},
              {"N1", 12, 16},   {"N2", 8, 8},   {"C2", 32, 192}};
    case Heterogeneity::kMore:
      // Table 3 left: smaller half halved, bigger half doubled.
      return {{"local*", 2, 8},  {"A1*", 64, 64}, {"A2*", 3, 128},
              {"N1*", 24, 8},    {"N2*", 4, 4},   {"C2*", 64, 384}};
    case Heterogeneity::kLess:
      // Table 3 right: values pulled toward the middle; biggest memory kept
      // at 192 so the most demanding tasks still fit.
      return {{"local'", 8, 64}, {"A1'", 16, 64}, {"A2'", 12, 128},
              {"N1'", 12, 64},   {"N2'", 16, 32}, {"C2'", 16, 192}};
    case Heterogeneity::kNone:
      // NoHet: every processor must hold the most demanding task, so all
      // six slots become C2 machines.
      return {{"C2", 32, 192}, {"C2", 32, 192}, {"C2", 32, 192},
              {"C2", 32, 192}, {"C2", 32, 192}, {"C2", 32, 192}};
  }
  return {};
}

Cluster makeCluster(Heterogeneity h, int perKind, double bandwidth) {
  assert(perKind > 0);
  const std::vector<Processor> kinds = machineKinds(h);
  std::vector<Processor> processors;
  processors.reserve(kinds.size() * static_cast<std::size_t>(perKind));
  for (const Processor& kind : kinds) {
    for (int i = 0; i < perKind; ++i) processors.push_back(kind);
  }
  return Cluster(std::move(processors), bandwidth);
}

Cluster makeCluster(Heterogeneity h, ClusterSize size, double bandwidth) {
  switch (size) {
    case ClusterSize::kSmall: return makeCluster(h, 3, bandwidth);
    case ClusterSize::kDefault: return makeCluster(h, 6, bandwidth);
    case ClusterSize::kLarge: return makeCluster(h, 10, bandwidth);
  }
  return makeCluster(h, 6, bandwidth);
}

std::string clusterName(Heterogeneity h, ClusterSize size) {
  std::string name;
  switch (h) {
    case Heterogeneity::kDefault: name = "default"; break;
    case Heterogeneity::kMore: name = "MoreHet"; break;
    case Heterogeneity::kLess: name = "LessHet"; break;
    case Heterogeneity::kNone: name = "NoHet"; break;
  }
  switch (size) {
    case ClusterSize::kSmall: name += "-18"; break;
    case ClusterSize::kDefault: name += "-36"; break;
    case ClusterSize::kLarge: name += "-60"; break;
  }
  return name;
}

}  // namespace dagpm::platform
