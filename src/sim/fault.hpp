#pragma once
// Processor fault injection for the discrete-event simulator.
//
// A FaultModel draws per-processor failure events — fail-stop deaths and
// transient crashes — from per-entity SplitMix64 streams derived from
// (run seed, processor id), exactly the discipline perturbation.hpp uses for
// runtime noise: the event list of processor p is a pure function of the run
// seed, independent of simulation event order and of how many OpenMP threads
// drive the surrounding Monte-Carlo loop, so a (schedule, seed) pair yields
// bit-identical fault timelines everywhere.
//
// Semantics (block-synchronous model; the engine enforces the restriction):
//   * transient crash at t   the processor is down during [t, t + downtime);
//                            the running task is killed and re-executed from
//                            scratch after recovery. Block progress before
//                            the killed task survives (the task-granularity
//                            checkpoint the recovery layer relies on).
//   * fail-stop at t         the processor never executes again. The running
//                            task is killed and the processor's resident
//                            outputs are lost with it: a partially executed
//                            block can only continue elsewhere after the
//                            rescheduler migrates it (re-receiving its
//                            checkpointed prefix and its inputs), and with
//                            no recovery attached the run ends in an error
//                            once only stranded work remains. Transfers
//                            already dispatched ride the store-and-forward
//                            backbone and still deliver.
//
// Every applied fault is recorded in SimResult::faultLog (and carried through
// SimCheckpoint across pause/resume). A model whose probabilities are zero
// draws no events and leaves the simulation arithmetic untouched — the
// zero-rate run is bit-identical to one with no fault model attached.

#include <cstdint>
#include <vector>

#include "graph/dag.hpp"
#include "platform/cluster.hpp"

namespace dagpm::sim {

enum class FaultKind { kFailStop, kTransientCrash };

/// One processor fault. The model fills proc/kind/time/recover; the engine
/// stamps killedTask when the fault interrupted a running task.
struct FaultEvent {
  platform::ProcessorId proc = platform::kNoProcessor;
  FaultKind kind = FaultKind::kFailStop;
  double time = 0.0;
  double recover = 0.0;  // infinity for fail-stop
  graph::VertexId killedTask = graph::kInvalidVertex;
};

/// Value-type description of a fault scenario. Probabilities are per
/// processor and per run; event instants are uniform over [0, horizon).
struct FaultSpec {
  double failStopProbability = 0.0;
  double crashProbability = 0.0;
  /// Fault instants are drawn uniformly over [0, horizon). Callers typically
  /// pass the schedule's static makespan so faults land mid-execution.
  double horizon = 1.0;
  /// Transient-crash repair time: the processor is down for this long.
  double downtime = 0.0;
  /// At most this many transient crashes are drawn per processor.
  std::uint32_t maxCrashesPerProcessor = 1;

  [[nodiscard]] bool active() const noexcept {
    return failStopProbability > 0.0 || crashProbability > 0.0;
  }
};

/// Per-run fault timeline: beginRun(seed) draws each processor's events from
/// its own stream and prunes overlaps (events during a crash's downtime are
/// dropped, nothing follows a fail-stop). Reentrant across runs: the same
/// seed always reproduces the same timeline.
class FaultModel {
 public:
  FaultModel(const FaultSpec& spec, std::size_t numProcessors);

  void beginRun(std::uint64_t runSeed);

  /// Processor p's pruned events, ascending by time.
  [[nodiscard]] const std::vector<FaultEvent>& events(
      platform::ProcessorId p) const noexcept {
    return events_[p];
  }
  [[nodiscard]] bool anyEvents() const noexcept { return anyEvents_; }
  [[nodiscard]] std::size_t totalEvents() const noexcept;
  [[nodiscard]] std::size_t numProcessors() const noexcept {
    return events_.size();
  }
  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

 private:
  FaultSpec spec_;
  std::vector<std::vector<FaultEvent>> events_;
  bool anyEvents_ = false;
};

}  // namespace dagpm::sim
