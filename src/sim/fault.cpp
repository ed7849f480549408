#include "sim/fault.hpp"

#include <algorithm>
#include <limits>

#include "sim/perturbation.hpp"
#include "support/rng.hpp"

namespace dagpm::sim {

namespace {
// Keeps the fault streams disjoint from the perturbation models' task,
// transfer, and slowdown-subset streams for the same run seed.
constexpr std::uint64_t kFaultStreamSalt = 0x6d3f2a81c97be045ULL;
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

FaultModel::FaultModel(const FaultSpec& spec, std::size_t numProcessors)
    : spec_(spec), events_(numProcessors) {}

void FaultModel::beginRun(std::uint64_t runSeed) {
  anyEvents_ = false;
  for (platform::ProcessorId p = 0; p < events_.size(); ++p) {
    std::vector<FaultEvent>& ev = events_[p];
    ev.clear();
    if (!spec_.active()) continue;
    // One private stream per processor; the draw sequence inside it is
    // fixed (every probability consumes its uniforms unconditionally), so
    // the timeline of processor p depends on nothing but (seed, p).
    support::Rng rng(mixSeed(runSeed ^ kFaultStreamSalt,
                             static_cast<std::uint64_t>(p)));
    const bool failStop = rng.bernoulli(spec_.failStopProbability);
    const double failTime = rng.uniformReal() * spec_.horizon;
    for (std::uint32_t i = 0; i < spec_.maxCrashesPerProcessor; ++i) {
      const bool crash = rng.bernoulli(spec_.crashProbability);
      const double t = rng.uniformReal() * spec_.horizon;
      if (crash) {
        ev.push_back({p, FaultKind::kTransientCrash, t, t + spec_.downtime,
                      graph::kInvalidVertex});
      }
    }
    if (failStop) {
      ev.push_back({p, FaultKind::kFailStop, failTime, kInf,
                    graph::kInvalidVertex});
    }
    std::sort(ev.begin(), ev.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                if (a.time != b.time) return a.time < b.time;
                // A fail-stop at the same instant as a crash wins.
                return a.kind == FaultKind::kFailStop &&
                       b.kind != FaultKind::kFailStop;
              });
    // Prune overlaps: a crash during another crash's downtime is absorbed,
    // and nothing happens to a processor after its fail-stop.
    std::vector<FaultEvent> pruned;
    double busyUntil = 0.0;
    for (const FaultEvent& e : ev) {
      if (e.time < busyUntil) continue;
      pruned.push_back(e);
      if (e.kind == FaultKind::kFailStop) break;
      busyUntil = e.recover;
    }
    ev = std::move(pruned);
    if (!ev.empty()) anyEvents_ = true;
  }
}

std::size_t FaultModel::totalEvents() const noexcept {
  std::size_t n = 0;
  for (const std::vector<FaultEvent>& ev : events_) n += ev.size();
  return n;
}

}  // namespace dagpm::sim
