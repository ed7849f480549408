#include "memory/exact_dp.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "memory/simulate.hpp"

namespace dagpm::memory {

using graph::EdgeId;
using graph::VertexId;

namespace {

class DpSolver {
 public:
  explicit DpSolver(const BlockCosts& costs)
      : costs_(costs), n_(costs.size()), predMask_(n_, 0) {
    for (VertexId v = 0; v < n_; ++v) {
      for (const EdgeId e : costs.dag.inEdges(v)) {
        predMask_[v] |= (1u << costs.dag.edge(e).src);
      }
    }
  }

  ExactResult solve() {
    // resident(S) is order-independent (sum of deltas), so the DP over
    // executed subsets is well-defined: best(S) = min peak to finish from S.
    ExactResult result;
    result.peak = best(0);
    // Reconstruct one optimal order greedily from the memo.
    std::uint32_t state = 0;
    const std::uint32_t full = (n_ == 32) ? 0xffffffffu : ((1u << n_) - 1);
    while (state != full) {
      for (VertexId v = 0; v < n_; ++v) {
        const std::uint32_t bit = 1u << v;
        if ((state & bit) != 0) continue;
        if ((predMask_[v] & state) != predMask_[v]) continue;
        const double step = resident(state) + costs_.task[v].footprint;
        const double future = best(state | bit);
        if (std::max(step, future) <= best(state) + kTolerance) {
          result.order.push_back(v);
          state |= bit;
          break;
        }
      }
    }
    return result;
  }

 private:
  static constexpr double kTolerance = 1e-9;

  double resident(std::uint32_t state) const {
    double r = 0.0;
    for (VertexId v = 0; v < n_; ++v) {
      if ((state & (1u << v)) != 0) r += costs_.task[v].delta;
    }
    // Deltas can make intermediate sums differ from the simulator's resident
    // only through lazy external inputs, which are charged per step and leave
    // no residue; so the sum of deltas is exactly the resident.
    return r;
  }

  double best(std::uint32_t state) {
    const std::uint32_t full = (n_ == 32) ? 0xffffffffu : ((1u << n_) - 1);
    if (state == full) return 0.0;
    const auto it = memo_.find(state);
    if (it != memo_.end()) return it->second;
    double bestPeak = std::numeric_limits<double>::infinity();
    const double r = resident(state);
    for (VertexId v = 0; v < n_; ++v) {
      const std::uint32_t bit = 1u << v;
      if ((state & bit) != 0) continue;
      if ((predMask_[v] & state) != predMask_[v]) continue;
      const double step = r + costs_.task[v].footprint;
      const double future = best(state | bit);
      bestPeak = std::min(bestPeak, std::max(step, future));
    }
    memo_.emplace(state, bestPeak);
    return bestPeak;
  }

  const BlockCosts& costs_;
  std::size_t n_;
  std::vector<std::uint32_t> predMask_;
  std::unordered_map<std::uint32_t, double> memo_;
};

}  // namespace

std::optional<ExactResult> exactMinPeakOrder(const BlockCosts& costs) {
  if (costs.size() > kExactDpMaxVertices) return std::nullopt;
  if (costs.size() == 0) return ExactResult{};
  return DpSolver(costs).solve();
}

}  // namespace dagpm::memory
