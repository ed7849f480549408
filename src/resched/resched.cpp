#include "resched/resched.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>

#include "obs/obs.hpp"
#include "quotient/quotient.hpp"
#include "resched/residual.hpp"

namespace dagpm::resched {

using graph::VertexId;

std::string triggerPolicyName(TriggerPolicy policy) {
  switch (policy) {
    case TriggerPolicy::kNone: return "none";
    case TriggerPolicy::kInterval: return "interval";
    case TriggerPolicy::kLateness: return "lateness";
    case TriggerPolicy::kStraggler: return "straggler";
  }
  return "?";
}

namespace {

/// Observer mute window after every policy pause, as a fraction of the
/// predicted makespan.
constexpr double kCooldownFraction = 0.05;
/// Fault-recovery backoff: the first window as a fraction of the predicted
/// makespan (doubling per failed retry), and the retries before giving up.
constexpr double kFaultBackoffFraction = 0.02;
constexpr int kFaultMaxRetries = 8;

/// The driver's SimObserver: decides, per task finish, whether to pause.
/// Predictions are owned by the driver and refreshed after every splice.
class TriggerObserver final : public sim::SimObserver {
 public:
  TriggerObserver(const ReschedulePolicy& policy, double scale,
                  const std::vector<double>* predictedStart,
                  const std::vector<double>* predictedFinish)
      : policy_(policy),
        scale_(std::max(scale, 1e-12)),
        predictedStart_(predictedStart),
        predictedFinish_(predictedFinish),
        nextDeadline_(policy.intervalFraction * scale_) {}

  void mute(double until) { muteUntil_ = std::max(muteUntil_, until); }
  /// Stops policy-driven pauses while leaving fault pauses armed.
  void disablePolicy() noexcept { policyDisabled_ = true; }
  void clearFaultPending() noexcept { faultPending_ = false; }
  [[nodiscard]] bool faultPending() const noexcept { return faultPending_; }
  [[nodiscard]] VertexId lastTrigger() const noexcept { return lastTrigger_; }

  sim::ObserverAction onFault(const sim::FaultEvent& fault,
                              double now) override {
    (void)now;
    // Transient crashes recover in place inside the engine; only fail-stops
    // need a repair. The pause ignores mute windows: it is mandatory.
    if (fault.kind != sim::FaultKind::kFailStop) {
      return sim::ObserverAction::kContinue;
    }
    faultPending_ = true;
    lastTrigger_ = graph::kInvalidVertex;
    return sim::ObserverAction::kPause;
  }

  sim::ObserverAction onTaskFinish(VertexId v, double now) override {
    if (now < muteUntil_) return sim::ObserverAction::kContinue;
    // An unresolved fault (evacuation had no target yet) re-pauses at the
    // next finish past the backoff window: completions free processors.
    if (faultPending_) return pauseAt(v);
    if (policyDisabled_) return sim::ObserverAction::kContinue;
    switch (policy_.trigger) {
      case TriggerPolicy::kNone:
        return sim::ObserverAction::kContinue;
      case TriggerPolicy::kInterval: {
        if (now < nextDeadline_) return sim::ObserverAction::kContinue;
        const double interval =
            std::max(policy_.intervalFraction * scale_, 1e-12 * scale_);
        nextDeadline_ = (std::floor(now / interval) + 1.0) * interval;
        return pauseAt(v);
      }
      case TriggerPolicy::kLateness: {
        const double lateness = now - (*predictedFinish_)[v];
        return lateness > policy_.latenessThreshold * scale_
                   ? pauseAt(v)
                   : sim::ObserverAction::kContinue;
      }
      case TriggerPolicy::kStraggler: {
        const double predictedDuration =
            (*predictedFinish_)[v] - (*predictedStart_)[v];
        const double overrun = now - (*predictedFinish_)[v];
        return overrun > (policy_.stragglerFactor - 1.0) * predictedDuration +
                             1e-9 * scale_
                   ? pauseAt(v)
                   : sim::ObserverAction::kContinue;
      }
    }
    return sim::ObserverAction::kContinue;
  }

 private:
  sim::ObserverAction pauseAt(VertexId v) {
    lastTrigger_ = v;
    return sim::ObserverAction::kPause;
  }

  const ReschedulePolicy& policy_;
  double scale_;
  const std::vector<double>* predictedStart_;
  const std::vector<double>* predictedFinish_;
  double nextDeadline_;
  double muteUntil_ = 0.0;
  bool faultPending_ = false;
  bool policyDisabled_ = false;
  VertexId lastTrigger_ = graph::kInvalidVertex;
};

/// Per-processor slowdown estimate from execution history: the ratio of
/// actual to nominal total duration of the tasks each processor completed.
/// Clamped to [0.25, 16] so a couple of samples cannot send the projection
/// off the rails; processors without history estimate 1.
std::vector<double> estimateProcSlowdown(const graph::Dag& g,
                                         const platform::Cluster& cluster,
                                         const sim::SimCheckpoint& ck) {
  std::vector<double> actual(cluster.numProcessors(), 0.0);
  std::vector<double> nominal(cluster.numProcessors(), 0.0);
  for (VertexId v = 0; v < g.numVertices(); ++v) {
    if (ck.taskCompleted[v] == 0) continue;
    const sim::TaskEvent& ev = ck.events[v];
    if (ev.proc >= cluster.numProcessors()) continue;
    actual[ev.proc] += ev.finish - ev.start;
    nominal[ev.proc] += g.work(v) / cluster.speed(ev.proc);
  }
  std::vector<double> slowdown(cluster.numProcessors(), 1.0);
  for (std::size_t p = 0; p < slowdown.size(); ++p) {
    if (nominal[p] > 0.0) {
      slowdown[p] = std::clamp(actual[p] / nominal[p], 0.25, 16.0);
    }
  }
  return slowdown;
}

}  // namespace

namespace {

/// One full online execution (engine runs + pauses + repairs + splices):
/// the driver runs the baseline (no policy trigger, forced evacuations only)
/// and the search it is raced against.
struct LoopOutcome {
  bool ok = false;
  std::string error;
  sim::SimResult run;
  scheduler::ScheduleResult finalSchedule;
  std::vector<RepairRecord> repairs;
  int triggers = 0;
  int accepted = 0;
  int rejected = 0;
  int evacuations = 0;
  int retries = 0;
};

}  // namespace

RescheduleResult runOnline(const sim::SimPlan& plan,
                           const memory::MemDagOracle& oracle,
                           const RescheduleOptions& options) {
  RescheduleResult result;
  const ReschedulePolicy& policy = options.policy;
  const bool faulty =
      options.faults != nullptr && options.faults->spec().active();
  if (!plan.ok()) {
    result.error = plan.error();
    return result;
  }
  const graph::Dag& g = *plan.data().g;
  const platform::Cluster& cluster = *plan.data().cluster;
  result.staticMakespan =
      scheduler::staticMakespan(*plan.data().quotient, cluster);
  const double scale = std::max(result.staticMakespan, 1e-12);

  const std::unique_ptr<sim::PerturbationModel> model =
      sim::makePerturbation(options.perturbation, cluster.numProcessors());
  sim::SimOptions base;
  base.comm = sim::CommModel::kBlockSynchronous;
  base.contention = options.contention;
  base.perturbation = model.get();
  base.seed = options.seed;
  if (faulty) base.faults = options.faults;

  // Predictions: the deterministic fault-free replay of the current
  // schedule, at task granularity, filled in before the search loop runs
  // (the baseline loop triggers nothing, so it never reads them). Refreshed
  // from the splice point after every repair; faults are deliberately
  // absent — drift and repair projections measure against the plan, not
  // against future failures.
  sim::SimOptions deterministic = base;
  deterministic.perturbation = nullptr;
  deterministic.faults = nullptr;
  std::vector<double> basePredictedStart(g.numVertices(), 0.0);
  std::vector<double> basePredictedFinish(g.numVertices(), 0.0);

  const auto runLoop = [&](bool baseline) {
    LoopOutcome out;
    ReschedulePolicy lp = policy;
    // The baseline repairs nothing it is not forced to: fault evacuations
    // only, placed naively, no improvement search.
    if (baseline) lp.trigger = TriggerPolicy::kNone;

    std::vector<double> predictedStart = basePredictedStart;
    std::vector<double> predictedFinish = basePredictedFinish;
    const auto refreshPredictions = [&](const sim::SimResult& reference) {
      for (VertexId v = 0; v < g.numVertices(); ++v) {
        predictedStart[v] = reference.events[v].start;
        predictedFinish[v] = reference.events[v].finish;
      }
    };
    TriggerObserver observer(lp, scale, &predictedStart, &predictedFinish);

    // Spliced schedules and their plans must outlive the runs below (plans
    // hold pointers to their schedule); `current` starts at the caller's.
    std::deque<scheduler::ScheduleResult> schedules;
    std::deque<sim::SimPlan> plans;
    const sim::SimPlan* current = &plan;
    sim::SimCheckpoint checkpoint;
    bool resuming = false;
    double backoff = kFaultBackoffFraction * scale;
    int failedRetries = 0;

    for (;;) {
      sim::SimOptions opts = base;
      opts.observer = &observer;
      opts.resume = resuming ? &checkpoint : nullptr;
      out.run = sim::simulateSchedule(*current, opts);
      if (!out.run.ok) {
        out.error = out.run.error;
        return out;
      }
      if (!out.run.paused) break;
      checkpoint = std::move(out.run.checkpoint);
      resuming = true;

      const bool faultRepair = observer.faultPending();
      if (faultRepair) {
        obs::add(obs::Counter::kReschedFaultTriggers);
        // Mandatory: no cooldown, no caps, no drift gate — the lost work
        // cannot execute where it sits.
      } else {
        ++out.triggers;
        obs::add(obs::Counter::kReschedTriggers);
        observer.mute(checkpoint.now + kCooldownFraction * scale);
        // Past either cap only fault pauses stay armed. The trigger that
        // reaches maxTriggers still gets its repair attempt (maxTriggers = 1
        // means one attempt, not zero).
        if (out.accepted >= lp.maxReschedules) {
          observer.disablePolicy();
          continue;
        }
        if (out.triggers >= lp.maxTriggers) observer.disablePolicy();

        // Drift gate: while execution tracks the prediction, repairing
        // could only churn (and would break the zero-noise no-op property).
        double drift = 0.0;
        for (VertexId v = 0; v < g.numVertices(); ++v) {
          if (checkpoint.taskCompleted[v] != 0) {
            drift = std::max(drift,
                             checkpoint.events[v].finish - predictedFinish[v]);
          }
        }
        if (drift <= lp.driftTolerance * scale) continue;
      }

      ResidualState residual = buildResidual(*current, checkpoint, oracle);
      residual.procSlowdown = estimateProcSlowdown(g, cluster, checkpoint);
      RepairConfig repairCfg;
      repairCfg.minGain = lp.minGain;
      repairCfg.evacuateOnly = baseline;
      // A contended execution is repaired against the contended cost model:
      // the projection then prices the very physics the resumed engine will
      // realize, instead of the optimistic uncontended c/beta.
      if (options.contention) {
        repairCfg.comm = &comm::fairShareCommModel();
      }
      const RepairResult repair =
          repairResidual(residual, cluster, oracle, repairCfg);

      RepairRecord record;
      record.time = checkpoint.now;
      record.triggerTask = observer.lastTrigger();
      record.accepted = repair.accepted;
      record.projectedBefore = repair.projectedBefore;
      record.projectedAfter = repair.projectedAfter;
      record.moves = repair.moves;
      record.swaps = repair.swaps;
      record.merges = repair.merges;
      record.faultRepair = faultRepair;
      record.evacuations = repair.evacuations;

      if (faultRepair) {
        if (repair.evacuations < repair.evacuationsNeeded) {
          // No surviving processor can host the lost work yet. Resume and
          // retry after an exponential backoff: completions elsewhere free
          // processors (and shrink their resident outputs).
          if (failedRetries >= kFaultMaxRetries) {
            out.error =
                "fault recovery exhausted its retries: no surviving "
                "processor can host the work lost to a fail-stop";
            out.finalSchedule = *current->data().schedule;
            return out;
          }
          ++failedRetries;
          ++out.retries;
          obs::add(obs::Counter::kReschedFaultRetries);
          observer.mute(checkpoint.now + backoff);
          backoff *= 2.0;
          out.repairs.push_back(std::move(record));
          continue;
        }
        observer.clearFaultPending();
        failedRetries = 0;
        backoff = kFaultBackoffFraction * scale;
        out.evacuations += repair.evacuations;
        if (repair.evacuations > 0) {
          obs::add(obs::Counter::kReschedFaultEvacuations,
                   static_cast<std::uint64_t>(repair.evacuations));
        }
        // A fail-stop that stranded nothing (its blocks had completed) and
        // yielded no improvement needs no splice.
        if (repair.evacuations == 0 && !repair.accepted) {
          out.repairs.push_back(std::move(record));
          continue;
        }
        record.accepted = true;
      } else if (!repair.accepted) {
        ++out.rejected;
        obs::add(obs::Counter::kReschedRejected);
        out.repairs.push_back(std::move(record));
        continue;
      }

      // Splice the repaired schedule back and resume from it.
      model->beginRun(options.seed);  // re-send factors draw like dispatches
      Splice splice = buildSplice(*current, checkpoint, residual, *model);
      schedules.push_back(std::move(splice.schedule));
      current = &plans.emplace_back(sim::prepareSimulation(
          g, cluster, schedules.back(), oracle, &splice.hints));
      if (!current->ok()) {
        out.error =
            "spliced schedule rejected by the engine: " + current->error();
        return out;
      }
      checkpoint = std::move(splice.checkpoint);

      // Refresh predictions with the deterministic resumed projection of the
      // spliced schedule (also the cross-check for the repair's own
      // projection — the tests pin their agreement).
      sim::SimOptions projOpts = deterministic;
      projOpts.resume = &checkpoint;
      const sim::SimResult projection =
          sim::simulateSchedule(*current, projOpts);
      if (!projection.ok) {
        out.error = "projection of the spliced schedule failed: " +
                    projection.error;
        return out;
      }
      refreshPredictions(projection);
      record.resumedProjection = projection.makespan;
      record.schedule = schedules.back();
      record.completedTasksAtSplice = checkpoint.taskCompleted;
      record.startedTasksAtSplice.assign(g.numVertices(), 0);
      for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (checkpoint.events[v].block != quotient::kNoBlock) {
          record.startedTasksAtSplice[v] = 1;
        }
      }
      if (!faultRepair) {
        // Mandatory fault splices do not consume the policy's budget.
        ++out.accepted;
        obs::add(obs::Counter::kReschedAccepted);
      }
      out.repairs.push_back(std::move(record));
    }

    out.finalSchedule = *current->data().schedule;
    out.ok = true;
    return out;
  };

  // The baseline execution. Without faults its observer never pauses, so it
  // is the unrepaired replay every policy is measured against; under faults
  // it is the naive greedy re-execution (an unrepaired replay would strand
  // the lost work).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  LoopOutcome baseline = runLoop(true);
  if (!faulty && !baseline.ok) {
    result.error = std::move(baseline.error);
    return result;
  }
  result.unrepairedMakespan = baseline.ok ? baseline.run.makespan : kInf;
  result.greedyMakespan = faulty ? result.unrepairedMakespan : 0.0;
  LoopOutcome search;
  if (!faulty && policy.trigger == TriggerPolicy::kNone) {
    search = baseline;  // the search loop would replay the baseline verbatim
  } else {
    const sim::SimResult reference =
        sim::simulateSchedule(plan, deterministic);
    if (!reference.ok) {
      result.error = reference.error;
      return result;
    }
    for (VertexId v = 0; v < g.numVertices(); ++v) {
      basePredictedStart[v] = reference.events[v].start;
      basePredictedFinish[v] = reference.events[v].finish;
    }
    search = runLoop(false);
  }

  // Race the search against the baseline under the identical noise (and
  // fault) draws. A failed loop counts as infinitely slow. A faulty run
  // keeps the faster execution, so recovery is never worse than greedy
  // re-execution by construction; a fault-free run reports the search's
  // execution, and the hindsight guard only decides the final makespan.
  const double searchMakespan = search.ok ? search.run.makespan : kInf;
  const bool baselineFaster = result.unrepairedMakespan < searchMakespan;
  const bool useBaseline = faulty && baselineFaster;
  LoopOutcome& executed = useBaseline ? baseline : search;
  if (!executed.ok) {
    result.error = std::move(search.error);
    return result;
  }
  if (useBaseline) obs::add(obs::Counter::kReschedFaultGreedyWins);
  result.repairedMakespan = searchMakespan;
  result.greedyWon = useBaseline;
  result.guardTripped = policy.hindsightGuard && baselineFaster;
  result.finalMakespan =
      (faulty ? baselineFaster : result.guardTripped)
          ? result.unrepairedMakespan
          : result.repairedMakespan;

  // Reporting (triggers, repairs, evacuations) follows the search loop when
  // it survived — that is the policy under evaluation.
  LoopOutcome& reporting = search.ok ? search : baseline;
  result.triggersFired = reporting.triggers;
  result.reschedulesAccepted = reporting.accepted;
  result.reschedulesRejected = reporting.rejected;
  result.evacuations = reporting.evacuations;
  result.faultRetries = reporting.retries;
  result.repairs = std::move(reporting.repairs);

  result.memoryOverflows = executed.run.memoryOverflows;
  result.faultsInjected = static_cast<int>(executed.run.faultLog.size());
  result.faultLog = executed.run.faultLog;
  result.execution = std::move(executed.run);
  result.finalSchedule = std::move(executed.finalSchedule);
  result.ok = true;
  return result;
}

}  // namespace dagpm::resched
