#pragma once
// Pluggable execution-perturbation models for the discrete-event simulator.
//
// A model multiplies a task's nominal duration (w_u / s_p) and a transfer's
// nominal volume by a stochastic factor. Factors are drawn from per-entity
// SplitMix64 streams derived from (run seed, entity id), NOT from a shared
// sequential stream: the factor of task v is independent of the order in
// which the event loop touches the tasks, so a (schedule, seed) pair yields
// bit-identical simulations no matter how events interleave or how many
// OpenMP threads drive the surrounding Monte-Carlo loop.
//
// Shipped models (paper-adjacent robustness scenarios; cf. Benoit et al.,
// "Optimizing Latency and Reliability of Pipeline Workflow Applications"):
//   * deterministic       exact replay, every factor is 1 (the cross-check
//                         against the static Eq. (1)-(2) timeline);
//   * lognormal           mean-1 lognormal runtime noise of strength sigma,
//                         applied to tasks and transfers;
//   * straggler           each task independently becomes a straggler with
//                         probability p and runs `factor` times longer;
//   * transient slowdown  a random subset of processors runs `factor` times
//                         slower for tasks starting inside a time window.

#include <cstdint>
#include <memory>
#include <string>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"

namespace dagpm::sim {

class PerturbationModel {
 public:
  virtual ~PerturbationModel() = default;

  /// Re-seeds the model for one simulation run (one Monte-Carlo replication).
  virtual void beginRun(std::uint64_t runSeed) { runSeed_ = runSeed; }

  /// Multiplier (> 0) on the nominal duration of task `v` on processor `p`,
  /// sampled when the task starts at simulated time `start`.
  [[nodiscard]] virtual double taskFactor(graph::VertexId v,
                                          platform::ProcessorId p,
                                          double start) const = 0;

  /// Multiplier (> 0) on the nominal volume of the transfer identified by
  /// `transferId` (an edge id or a quotient-edge hash; only uniqueness
  /// matters). Defaults to undisturbed transfers.
  [[nodiscard]] virtual double transferFactor(std::uint64_t transferId) const {
    (void)transferId;
    return 1.0;
  }

 protected:
  [[nodiscard]] std::uint64_t runSeed() const noexcept { return runSeed_; }

 private:
  std::uint64_t runSeed_ = 0;
};

/// Which of the shipped models a spec describes.
enum class PerturbationKind {
  kDeterministic,
  kLognormal,
  kStraggler,
  kTransientSlowdown,
};

/// Value-type description of a perturbation; the Monte-Carlo evaluator and
/// the benches configure models through this instead of subclassing.
struct PerturbationSpec {
  PerturbationKind kind = PerturbationKind::kDeterministic;
  // kLognormal: sigma of ln(factor); factors have mean 1 for any sigma.
  double sigma = 0.0;
  // kStraggler: straggler probability and duration multiplier.
  double stragglerProbability = 0.05;
  double stragglerFactor = 4.0;
  // kTransientSlowdown: fraction of processors affected, duration multiplier
  // for tasks starting inside [windowBegin, windowEnd).
  double slowdownFraction = 0.25;
  double slowdownFactor = 2.0;
  double windowBegin = 0.0;
  double windowEnd = 0.0;  // <= windowBegin disables the window
};

/// Builds a model from a spec. The returned model still needs beginRun().
std::unique_ptr<PerturbationModel> makePerturbation(
    const PerturbationSpec& spec, std::size_t numProcessors);

/// Short human-readable name, e.g. "lognormal(0.2)", for printouts and
/// custom harness labels (the bundled noise ladder uses "sigma<value>"
/// config names instead).
std::string perturbationName(const PerturbationSpec& spec);

/// Stable mix of a run seed and an entity id into a per-entity stream seed
/// (also used by the engine for per-transfer streams).
[[nodiscard]] std::uint64_t mixSeed(std::uint64_t runSeed,
                                    std::uint64_t entity) noexcept;

}  // namespace dagpm::sim
