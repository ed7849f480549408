#pragma once
// Communication cost models: how the scheduling stack prices transfers over
// the shared beta-bandwidth backbone.
//
// The paper's static model (Eq. (1)-(2)) charges every transfer the
// uncontended c/beta, but HetPart/HetMem schedules routinely launch parallel
// transfers over the same link; the simulator's fair-share model (src/sim)
// shows the static makespan is provably optimistic exactly where the
// schedulers are most aggressive. This module extracts the pricing decision
// behind one interface so the block-level decision stack — computeTimeline,
// the Step-3 merges, the Step-4 swap search, and the rescheduler's residual
// projection — can evaluate candidates under either physics:
//
//   UncontendedCommModel  every transfer moves at the full beta: the
//                         paper's forward pass, and the default model of
//                         quotient::computeTimeline.
//   FairShareCommModel    all concurrent transfers fair-share the backbone
//                         (each of n in-flight transfers progresses at
//                         beta/n) — the same fluid model sim::Engine
//                         realizes, so contention-aware search optimizes the
//                         quantity the simulator will measure (the tests
//                         assert agreement to 1e-9 on fuzzed schedules).
//
// Evaluation is a forward pass over a FluidProblem: nodes with fixed
// durations, edges whose transfers leave when the source node finishes, and
// "injections" (transfers already in flight at a known dispatch time — the
// residual projection's in-flight inputs and re-sends). The fair-share pass
// is NOT a full sim replay: it runs at block granularity over the
// processor-sharing virtual-time structure FairShareLink, which handles each
// dispatch/completion event in O(log n) instead of rescaling every in-flight
// transfer per event the way the task-granularity engine does.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <string_view>
#include <vector>

namespace dagpm::comm {

inline constexpr std::uint32_t kNoFluidEdge = 0xffffffffu;

/// One node of a fluid evaluation: a block computing for `duration` once
/// all its inputs arrived and `earliestStart` has passed.
struct FluidNode {
  double duration = 0.0;
  double earliestStart = 0.0;
};

/// A transfer dispatched the instant its source node finishes.
struct FluidEdge {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  double volume = 0.0;
};

/// A transfer with a fixed dispatch instant (independent of node finishes):
/// in-flight remainders and re-sends of the residual projection.
struct FluidInjection {
  std::uint32_t dst = 0;
  double time = 0.0;
  double volume = 0.0;
};

/// The layout every model requires (and every builder emits):
///   * `nodes` are in topological order, so every edge has src < dst;
///   * `edges` and `injections` are each grouped by destination, with
///     destinations ascending; within one destination the stored order is
///     the order the uncontended pass folds its inputs in.
/// A problem outside the layout evaluates to ok = false under every model.
struct FluidProblem {
  std::vector<FluidNode> nodes;
  std::vector<FluidEdge> edges;
  std::vector<FluidInjection> injections;
};

struct FluidResult {
  /// False when the problem is outside the FluidProblem layout.
  bool ok = false;
  double makespan = 0.0;
  std::vector<double> start;
  std::vector<double> finish;
  /// Per node: the edge whose delivery bound its start, or kNoFluidEdge when
  /// earliestStart or an injection did. Following binding edges upward from
  /// the last-finishing node yields the model's critical chain.
  std::vector<std::uint32_t> bindingEdge;
};

/// Processor-sharing link: n concurrent transfers each progress at beta/n.
/// The classic virtual-time formulation makes every operation O(log n): with
/// S(t) = integral of beta/n(tau) dtau, a transfer dispatched at time t0
/// with volume v completes exactly when S reaches S(t0) + v, so completions
/// are a min-heap of service thresholds and no per-event rescaling of the
/// in-flight set is needed (sim::Engine realizes the same fluid model by
/// stepping remaining volumes; this structure is its closed-form twin).
class FairShareLink {
 public:
  explicit FairShareLink(double beta) : beta_(beta) {}

  [[nodiscard]] double now() const noexcept { return now_; }
  [[nodiscard]] std::size_t active() const noexcept { return heap_.size(); }

  /// Registers transfer `id` dispatched at the current instant.
  void dispatch(std::uint32_t id, double volume) {
    heap_.push(Pending{service_ + volume, seq_++, id});
  }

  /// Instant the earliest in-flight transfer completes; +inf when idle.
  [[nodiscard]] double nextCompletionTime() const {
    if (heap_.empty()) return std::numeric_limits<double>::infinity();
    const double gap = std::max(0.0, heap_.top().threshold - service_);
    return now_ + gap * static_cast<double>(heap_.size()) / beta_;
  }

  /// Moves the clock forward; requires t <= nextCompletionTime().
  void advanceTo(double t) {
    if (t <= now_) return;
    if (!heap_.empty()) {
      service_ += (t - now_) * beta_ / static_cast<double>(heap_.size());
    }
    now_ = t;
  }

  /// Pops the earliest completion, advancing the clock to its instant.
  std::uint32_t popCompletion() {
    now_ = nextCompletionTime();
    service_ = heap_.top().threshold;
    const std::uint32_t id = heap_.top().id;
    heap_.pop();
    return id;
  }

 private:
  struct Pending {
    double threshold = 0.0;  // service level at which the transfer is done
    std::uint64_t seq = 0;   // dispatch order; deterministic tie-break
    std::uint32_t id = 0;
  };
  struct Later {
    bool operator()(const Pending& a, const Pending& b) const noexcept {
      if (a.threshold != b.threshold) return a.threshold > b.threshold;
      return a.seq > b.seq;
    }
  };

  double beta_ = 1.0;
  double now_ = 0.0;
  double service_ = 0.0;  // S(t): per-transfer service delivered so far
  std::uint64_t seq_ = 0;
  std::priority_queue<Pending, std::vector<Pending>, Later> heap_;
};

/// How a communication cost model prices a whole fluid problem over one
/// shared link of bandwidth `beta`. Implementations are stateless and
/// thread-safe (the k' sweep evaluates candidates in parallel).
class CommCostModel {
 public:
  virtual ~CommCostModel() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  /// True when concurrent transfers slow each other down.
  [[nodiscard]] virtual bool contended() const noexcept = 0;
  [[nodiscard]] virtual FluidResult evaluate(const FluidProblem& problem,
                                             double beta) const = 0;
};

/// The paper's model: every transfer moves at the full beta.
class UncontendedCommModel final : public CommCostModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "uncontended";
  }
  [[nodiscard]] bool contended() const noexcept override { return false; }
  [[nodiscard]] FluidResult evaluate(const FluidProblem& problem,
                                     double beta) const override;
};

/// The simulator's model: in-flight transfers fair-share the backbone.
class FairShareCommModel final : public CommCostModel {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "fair-share";
  }
  [[nodiscard]] bool contended() const noexcept override { return true; }
  [[nodiscard]] FluidResult evaluate(const FluidProblem& problem,
                                     double beta) const override;
};

/// Shared immutable instances (the models carry no state).
const CommCostModel& uncontendedCommModel();
const CommCostModel& fairShareCommModel();

}  // namespace dagpm::comm
