#pragma once
// Heterogeneous execution environment: k processors with individual memory
// sizes and speeds, connected with uniform bandwidth beta (paper Sec. 3.2).
// Preset factories reproduce the paper's Table 2 (default cluster built from
// six kinds of real machines) and Table 3 (MoreHet / LessHet variants), the
// NoHet homogeneous cluster, and the small/default/large cluster sizes.

#include <cstdint>
#include <string>
#include <vector>

namespace dagpm::platform {

using ProcessorId = std::uint32_t;
inline constexpr ProcessorId kNoProcessor = 0xffffffffu;

struct Processor {
  std::string kind;    // machine kind name, e.g. "C2"
  double speed = 1.0;  // normalized CPU speed (paper: GHz)
  double memory = 1.0; // memory size (paper: GB, normalized units)
};

enum class Heterogeneity { kDefault, kMore, kLess, kNone };
enum class ClusterSize { kSmall, kDefault, kLarge };  // 3 / 6 / 10 per kind

class Cluster {
 public:
  Cluster() = default;
  /// Throws std::invalid_argument unless every speed and the bandwidth are
  /// finite and positive and every memory is finite and non-negative.
  Cluster(std::vector<Processor> processors, double bandwidth);

  [[nodiscard]] std::size_t numProcessors() const noexcept {
    return processors_.size();
  }
  [[nodiscard]] const Processor& processor(ProcessorId p) const noexcept {
    return processors_[p];
  }
  [[nodiscard]] double speed(ProcessorId p) const noexcept {
    return processors_[p].speed;
  }
  [[nodiscard]] double memory(ProcessorId p) const noexcept {
    return processors_[p].memory;
  }
  [[nodiscard]] double bandwidth() const noexcept { return bandwidth_; }
  /// Throws std::invalid_argument unless `beta` is finite and positive.
  void setBandwidth(double beta);

  [[nodiscard]] double largestMemory() const noexcept;
  [[nodiscard]] double smallestMemory() const noexcept;
  [[nodiscard]] double fastestSpeed() const noexcept;

  /// Processor ids sorted by decreasing memory; ties by decreasing speed,
  /// then by id (deterministic).
  [[nodiscard]] std::vector<ProcessorId> byDecreasingMemory() const;

  /// Scales every processor memory by the same factor so that a task with
  /// requirement `maxTaskRequirement` fits on at least one processor
  /// (paper Sec. 5.1.2: "we increase memory sizes proportionally until the
  /// task with the biggest memory requirement still has a processor").
  /// No-op if it already fits. Returns the factor applied.
  double scaleMemoriesToFit(double maxTaskRequirement);

 private:
  std::vector<Processor> processors_;
  double bandwidth_ = 1.0;
};

/// The six machine kinds of Table 2 (name, speed, memory).
std::vector<Processor> machineKinds(Heterogeneity h);

/// Builds a cluster with `perKind` copies of each machine kind.
Cluster makeCluster(Heterogeneity h, int perKind, double bandwidth = 1.0);

/// Paper presets: small = 3 per kind (18), default = 6 (36), large = 10 (60).
Cluster makeCluster(Heterogeneity h, ClusterSize size, double bandwidth = 1.0);

/// Human-readable name for table output, e.g. "default-36".
std::string clusterName(Heterogeneity h, ClusterSize size);

}  // namespace dagpm::platform
