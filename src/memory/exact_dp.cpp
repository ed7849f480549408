#include "memory/exact_dp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "memory/simulate.hpp"

namespace dagpm::memory {

using graph::EdgeId;
using graph::VertexId;

namespace {

class DpSolver {
 public:
  explicit DpSolver(const BlockCosts& costs)
      : costs_(costs),
        n_(costs.size()),
        full_((1u << n_) - 1),
        predMask_(n_, 0),
        resident_(std::size_t{1} << n_),
        memo_(std::size_t{1} << n_, std::numeric_limits<double>::quiet_NaN()) {
    for (VertexId v = 0; v < n_; ++v) {
      for (const EdgeId e : costs.dag.inEdges(v)) {
        predMask_[v] |= (1u << costs.dag.edge(e).src);
      }
    }
    // resident(S) = resident(S - h) + delta[h], h the highest vertex of S:
    // S's deltas summed in ascending vertex order. Deltas can make
    // intermediate sums differ from the simulator's resident only through
    // lazy external inputs, which are charged per step and leave no residue;
    // so the sum of deltas is exactly the resident.
    resident_[0] = 0.0;
    for (VertexId h = 0; h < n_; ++h) {
      const std::uint32_t bit = 1u << h;
      for (std::uint32_t s = bit; s < 2 * bit; ++s) {
        resident_[s] = resident_[s - bit] + costs.task[h].delta;
      }
    }
    memo_[full_] = 0.0;
  }

  ExactResult solve() {
    // resident(S) is order-independent (sum of deltas), so the DP over
    // executed subsets is well-defined: best(S) = min peak to finish from S.
    ExactResult result;
    result.peak = best(0);
    // Reconstruct one optimal order greedily from the memo; best() fills
    // any state the incumbent cut skipped.
    std::uint32_t state = 0;
    while (state != full_) {
      for (std::uint32_t rest = full_ & ~state; rest != 0; rest &= rest - 1) {
        const auto v = static_cast<VertexId>(std::countr_zero(rest));
        const std::uint32_t bit = 1u << v;
        if ((predMask_[v] & state) != predMask_[v]) continue;
        const double step = resident_[state] + costs_.task[v].footprint;
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

  double best(std::uint32_t state) {
    if (!std::isnan(memo_[state])) return memo_[state];
    double bestPeak = std::numeric_limits<double>::infinity();
    const double r = resident_[state];
    for (std::uint32_t rest = full_ & ~state; rest != 0; rest &= rest - 1) {
      const auto v = static_cast<VertexId>(std::countr_zero(rest));
      if ((predMask_[v] & state) != predMask_[v]) continue;
      const double step = r + costs_.task[v].footprint;
      // max(step, future) >= step >= bestPeak: v cannot lower the min.
      if (step >= bestPeak) continue;
      const double future = best(state | (1u << v));
      bestPeak = std::min(bestPeak, std::max(step, future));
    }
    memo_[state] = bestPeak;
    return bestPeak;
  }

  const BlockCosts& costs_;
  std::size_t n_;
  std::uint32_t full_;
  std::vector<std::uint32_t> predMask_;
  std::vector<double> resident_;  // by executed-set mask
  std::vector<double> memo_;      // best(S) by mask; NaN = not computed
};

}  // namespace

std::optional<ExactResult> exactMinPeakOrder(const BlockCosts& costs) {
  if (costs.size() > kExactDpMaxVertices) return std::nullopt;
  if (costs.size() == 0) return ExactResult{};
  return DpSolver(costs).solve();
}

}  // namespace dagpm::memory
