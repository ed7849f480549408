#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/subgraph.hpp"
#include "memory/simulate.hpp"
#include "obs/obs.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::sim {

SimPlan prepareSimulation(const graph::Dag& g,
                          const platform::Cluster& cluster,
                          const scheduler::ScheduleResult& schedule,
                          const memory::MemDagOracle& oracle,
                          const PlanHints* hints) {
  SimPlan plan;
  detail::PlanData& d = plan.data();
  d.g = &g;
  d.cluster = &cluster;
  d.schedule = &schedule;

  std::span<const char> completed;
  if (hints != nullptr) completed = hints->completedBlock;
  scheduler::ScheduleShape shape =
      scheduler::checkScheduleShape(g, cluster, schedule, completed);
  if (!shape.quotient) {
    d.error = std::move(shape.error);
    return plan;
  }
  d.quotient = std::move(shape.quotient);
  d.resumeOnly = std::ranges::any_of(completed, [](char c) { return c != 0; });

  const std::size_t numTasks = g.numVertices();
  const std::size_t numBlocks = schedule.numBlocks();
  d.blocks.resize(numBlocks);
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    detail::BlockPlan& bp = d.blocks[b];
    const std::vector<graph::VertexId>& members = d.quotient->node(b).members;
    if (hints != nullptr && b < hints->forcedOrder.size() &&
        !hints->forcedOrder[b].empty()) {
      bp.order = hints->forcedOrder[b];
      // The forced order must be a permutation of the block's members — the
      // memory profile below silently degrades otherwise.
      std::vector<graph::VertexId> a = bp.order;
      std::sort(a.begin(), a.end());
      if (a != members) {
        d.error = "forced traversal order does not match the block members";
        return plan;
      }
    } else {
      bp.order = oracle.bestTraversal(members).order;
    }
    // A block already fully executed at resume time never starts a task, so
    // its memory profile would never be consulted; skip the subgraph and
    // memory simulation (late-run splices have mostly completed blocks).
    if (b < completed.size() && completed[b] != 0) continue;
    // The induced subgraph is built over the traversal order itself, so
    // local ids coincide with step indices and the identity order can be
    // fed straight into the ground-truth memory simulation.
    const graph::SubDag sub = graph::inducedSubgraph(g, bp.order);
    std::vector<graph::VertexId> identity(bp.order.size());
    for (graph::VertexId i = 0; i < identity.size(); ++i) identity[i] = i;
    const memory::SimResult mem =
        memory::simulateBlockOrder(memory::BlockCosts(sub), identity);
    bp.stepMemory = mem.stepMemory;
    bp.residentAfter = mem.residentAfter;
    bp.startResident = mem.startResident;
  }

  d.remoteInputs.assign(numTasks, 0);
  for (graph::VertexId v = 0; v < numTasks; ++v) {
    for (const graph::EdgeId e : g.inEdges(v)) {
      if (schedule.blockOf[g.edge(e).src] != schedule.blockOf[v]) {
        ++d.remoteInputs[v];
      }
    }
  }
  return plan;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The engine's resumable state IS a SimCheckpoint (`st_`): capture copies it
// and adds the running tasks, resume assigns it after the consistency
// checks, and the SimResult counters and records are read from it once, when
// run() returns. Only per-processor scratch (running task, early-arrival
// buffers) and the eager-mode input counts live beside it.

class Engine {
 public:
  Engine(const SimPlan& plan, const SimOptions& options)
      : plan_(plan.data()),
        g_(*plan_.g),
        cluster_(*plan_.cluster),
        schedule_(*plan_.schedule),
        opts_(options) {
    if (opts_.perturbation == nullptr) {
      fallback_ = makePerturbation({}, cluster_.numProcessors());
      model_ = fallback_.get();
    } else {
      model_ = opts_.perturbation;
    }
  }

  SimResult run();

 private:
  void execute();
  void tryStart(quotient::BlockId b);
  void tryStartProc(platform::ProcessorId p);
  void applyFault(FaultEvent ev);
  bool applyFaultEvents();
  void completeTask(platform::ProcessorId p);
  void dispatch(quotient::BlockId src, quotient::BlockId dst,
                graph::VertexId dstTask, double bytes,
                std::uint64_t transferId);
  void deliver(const TransferState& t);
  void checkMemory(quotient::BlockId b);
  bool loadCheckpoint(const SimCheckpoint& ck);
  [[nodiscard]] SimCheckpoint capture() const;
  [[nodiscard]] platform::ProcessorId procOf(quotient::BlockId b) const {
    return plan_.quotient->node(b).proc;
  }
  void fail(std::string message) {
    result_.ok = false;
    result_.error = std::move(message);
  }

  const detail::PlanData& plan_;
  const graph::Dag& g_;
  const platform::Cluster& cluster_;
  const scheduler::ScheduleResult& schedule_;
  const SimOptions& opts_;
  std::unique_ptr<PerturbationModel> fallback_;
  PerturbationModel* model_ = nullptr;

  SimCheckpoint st_;  // `running` stays empty: see running_/procFinish_
  std::vector<std::size_t> remoteInputs_;  // eager: outstanding remote inputs
  std::vector<double> arrivedBytes_;       // eager: buffered bytes per task
  std::vector<double> bufferedOnProc_;     // early-arrival bytes per processor
  std::vector<graph::VertexId> running_;   // per processor; invalid = idle
  std::vector<double> procFinish_;         // finish time of the running task
  SimResult result_;  // status, pause flag and transfer log

  // Fault injection; st_'s fault fields are allocated only when opts_.faults
  // is set, so runs without a fault model execute the exact legacy
  // instruction stream.
  FaultModel* faults_ = nullptr;
  std::vector<std::vector<quotient::BlockId>> procBlocks_;
};

void Engine::checkMemory(quotient::BlockId b) {
  const detail::BlockPlan& bp = plan_.blocks[b];
  const BlockState& br = st_.blocks[b];
  const platform::ProcessorId p = procOf(b);
  double base = 0.0;
  if (running_[p] != graph::kInvalidVertex) {
    base = bp.stepMemory[br.nextStep - 1];  // step of the running task
  } else {
    base = br.nextStep == 0 ? bp.startResident
                            : bp.residentAfter[br.nextStep - 1];
  }
  const double used = base + bufferedOnProc_[p];
  const double limit = cluster_.memory(p);
  if (used > limit * (1.0 + 1e-12)) {
    ++st_.memoryOverflows;
    st_.maxMemoryExcess = std::max(st_.maxMemoryExcess, used - limit);
  }
}

void Engine::tryStart(quotient::BlockId b) {
  const detail::BlockPlan& bp = plan_.blocks[b];
  BlockState& br = st_.blocks[b];
  const platform::ProcessorId p = procOf(b);
  if (faults_ != nullptr && st_.procDeadUntil[p] > st_.now) return;
  if (running_[p] != graph::kInvalidVertex) return;
  if (br.nextStep >= bp.order.size()) return;
  if (opts_.comm == CommModel::kBlockSynchronous && br.pendingInputs > 0) {
    return;
  }
  const graph::VertexId v = bp.order[br.nextStep];
  if (opts_.comm == CommModel::kTaskEager && remoteInputs_[v] > 0) return;

  TaskEvent& ev = st_.events[v];
  ev.block = b;
  ev.proc = p;
  ev.ready = std::max(st_.readyTime[v], br.barrierTime);
  ev.start = st_.now;
  // The task consumes its buffered early arrivals (they become part of the
  // step's own external-input accounting).
  bufferedOnProc_[p] -= arrivedBytes_[v];
  arrivedBytes_[v] = 0.0;

  const double nominal = g_.work(v) / cluster_.speed(p);
  const double duration = nominal * model_->taskFactor(v, p, st_.now);
  running_[p] = v;
  procFinish_[p] = st_.now + duration;
  ++br.nextStep;
  checkMemory(b);
}

void Engine::tryStartProc(platform::ProcessorId p) {
  for (const quotient::BlockId b : procBlocks_[p]) {
    if (running_[p] != graph::kInvalidVertex) return;
    tryStart(b);
  }
}

void Engine::applyFault(FaultEvent ev) {
  const platform::ProcessorId p = ev.proc;
  if (running_[p] != graph::kInvalidVertex) {
    const graph::VertexId v = running_[p];
    ev.killedTask = v;
    // The killed task restarts from scratch: roll its block back one step.
    // Its start event will be rewritten if it ever runs again.
    --st_.blocks[schedule_.blockOf[v]].nextStep;
    running_[p] = graph::kInvalidVertex;
    procFinish_[p] = kInf;
    obs::add(obs::Counter::kFaultTasksKilled);
  }
  st_.procDeadUntil[p] = ev.recover;
  obs::add(ev.kind == FaultKind::kFailStop
               ? obs::Counter::kFaultFailStops
               : obs::Counter::kFaultTransientCrashes);
  st_.faultLog.push_back(ev);
  if (opts_.observer != nullptr &&
      opts_.observer->onFault(ev, st_.now) == ObserverAction::kPause &&
      st_.tasksDone < g_.numVertices()) {
    result_.paused = true;
  }
}

bool Engine::applyFaultEvents() {
  const double now = st_.now;
  const double tol = 1e-12 * (1.0 + std::abs(now));
  std::vector<double>& deadUntil = st_.procDeadUntil;
  // Recoveries strictly first (ascending processor id): a processor whose
  // downtime ends now may immediately resume its block.
  for (platform::ProcessorId p = 0; p < running_.size(); ++p) {
    if (deadUntil[p] > 0.0 && std::isfinite(deadUntil[p]) &&
        deadUntil[p] - now <= tol) {
      deadUntil[p] = 0.0;
      tryStartProc(p);
    }
  }
  for (platform::ProcessorId p = 0; p < running_.size(); ++p) {
    const std::vector<FaultEvent>& evs = faults_->events(p);
    std::uint32_t& applied = st_.faultsApplied[p];
    while (applied < evs.size() && evs[applied].time - now <= tol) {
      const FaultEvent ev = evs[applied++];
      if (deadUntil[p] == kInf) continue;  // already failed for good
      applyFault(ev);
      if (result_.paused || !result_.ok) return true;
    }
  }
  return false;
}

void Engine::dispatch(quotient::BlockId src, quotient::BlockId dst,
                      graph::VertexId dstTask, double bytes,
                      std::uint64_t transferId) {
  ++st_.numTransfers;
  st_.transferVolume += bytes;
  obs::add(obs::Counter::kSimTransfers);
  TransferState t;
  t.bytes = bytes;
  t.total = bytes * model_->transferFactor(transferId);
  t.remaining = t.total;
  t.dispatched = st_.now;
  t.srcBlock = src;
  t.dstBlock = dst;
  t.dstTask = dstTask;
  if (t.remaining <= 0.0) {
    deliver(t);
  } else {
    st_.transfers.push_back(t);
  }
}

void Engine::deliver(const TransferState& t) {
  const double now = st_.now;
  if (opts_.recordTransfers) {
    result_.transferLog.push_back(TransferRecord{
        t.srcBlock, t.dstBlock, t.dstTask, t.bytes, t.dispatched, now});
  }
  BlockState& br = st_.blocks[t.dstBlock];
  if (t.dstTask != graph::kInvalidVertex) {
    // Eager mode: one task's remote input arrived; buffer it until the
    // consumer starts.
    st_.readyTime[t.dstTask] = std::max(st_.readyTime[t.dstTask], now);
    arrivedBytes_[t.dstTask] += t.bytes;
    bufferedOnProc_[procOf(t.dstBlock)] += t.bytes;
    checkMemory(t.dstBlock);
    if (--remoteInputs_[t.dstTask] == 0) tryStart(t.dstBlock);
  } else {
    br.barrierTime = std::max(br.barrierTime, now);
    if (--br.pendingInputs == 0) tryStart(t.dstBlock);
  }
}

void Engine::completeTask(platform::ProcessorId p) {
  const double now = st_.now;
  const graph::VertexId v = running_[p];
  const std::uint32_t b = schedule_.blockOf[v];
  running_[p] = graph::kInvalidVertex;
  procFinish_[p] = kInf;
  st_.events[v].finish = now;
  st_.makespanSoFar = std::max(st_.makespanSoFar, now);
  st_.taskCompleted[v] = 1;
  ++st_.tasksDone;
  obs::add(obs::Counter::kSimTasksExecuted);
  BlockState& br = st_.blocks[b];
  ++br.done;

  for (const graph::EdgeId e : g_.outEdges(v)) {
    const graph::Edge& edge = g_.edge(e);
    const quotient::BlockId dstBlock = schedule_.blockOf[edge.dst];
    if (dstBlock == b) {
      st_.readyTime[edge.dst] = std::max(st_.readyTime[edge.dst], now);
    } else if (opts_.comm == CommModel::kTaskEager) {
      dispatch(b, dstBlock, edge.dst, edge.cost, e);
    }
  }
  if (opts_.comm == CommModel::kBlockSynchronous &&
      br.done == plan_.blocks[b].order.size()) {
    for (const auto& [succ, cost] : plan_.quotient->out(b)) {
      dispatch(b, succ, graph::kInvalidVertex, cost,
               blockTransferId(b, succ));
    }
  }
  tryStart(b);
}

bool Engine::loadCheckpoint(const SimCheckpoint& ck) {
  const std::size_t numTasks = g_.numVertices();
  if (ck.blocks.size() != plan_.blocks.size() ||
      ck.taskCompleted.size() != numTasks || ck.events.size() != numTasks ||
      ck.readyTime.size() != numTasks) {
    fail("resume checkpoint does not match the plan");
    return false;
  }
  for (std::size_t b = 0; b < ck.blocks.size(); ++b) {
    const BlockState& s = ck.blocks[b];
    if (s.nextStep > plan_.blocks[b].order.size() || s.done > s.nextStep) {
      fail("resume checkpoint has inconsistent block progress");
      return false;
    }
  }
  for (const RunningTaskState& r : ck.running) {
    if (r.proc >= running_.size() || r.task >= numTasks ||
        running_[r.proc] != graph::kInvalidVertex) {
      fail("resume checkpoint has an invalid running task");
      return false;
    }
    running_[r.proc] = r.task;
    procFinish_[r.proc] = r.finish;
  }
  for (const TransferState& t : ck.transfers) {
    if (t.srcBlock >= ck.blocks.size() || t.dstBlock >= ck.blocks.size()) {
      fail("resume checkpoint has a transfer to an unknown block");
      return false;
    }
  }
  if (faults_ != nullptr && !ck.procDeadUntil.empty() &&
      (ck.procDeadUntil.size() != running_.size() ||
       ck.faultsApplied.size() != running_.size())) {
    fail("resume checkpoint fault state does not match the cluster");
    return false;
  }
  st_ = ck;
  st_.running.clear();  // now held per processor in running_/procFinish_
  if (faults_ == nullptr) {
    // A run without a fault model carries no fault state.
    st_.procDeadUntil.clear();
    st_.faultsApplied.clear();
    st_.faultLog.clear();
  }
  return true;
}

SimCheckpoint Engine::capture() const {
  SimCheckpoint ck = st_;
  for (platform::ProcessorId p = 0; p < running_.size(); ++p) {
    if (running_[p] != graph::kInvalidVertex) {
      ck.running.push_back({p, running_[p], procFinish_[p]});
    }
  }
  return ck;
}

SimResult Engine::run() {
  execute();
  if (result_.paused) result_.checkpoint = capture();
  result_.makespan = st_.makespanSoFar;
  result_.events = std::move(st_.events);
  result_.numTransfers = st_.numTransfers;
  result_.transferVolume = st_.transferVolume;
  result_.memoryOverflows = st_.memoryOverflows;
  result_.maxMemoryExcess = st_.maxMemoryExcess;
  result_.faultLog = std::move(st_.faultLog);
  return std::move(result_);
}

void Engine::execute() {
  if (!plan_.error.empty()) {
    fail(plan_.error);
    return;
  }
  if ((opts_.observer != nullptr || opts_.resume != nullptr) &&
      opts_.comm != CommModel::kBlockSynchronous) {
    fail("observers and checkpoint resume require the block-synchronous "
         "model");
    return;
  }
  if (opts_.faults != nullptr &&
      opts_.comm != CommModel::kBlockSynchronous) {
    fail("fault injection requires the block-synchronous model");
    return;
  }
  // A plan whose hints marked blocks as already executed relaxed the
  // distinct-processor rule; executing it from t=0 would quietly serialize
  // the sharing blocks instead of erroring.
  if (plan_.resumeOnly && opts_.resume == nullptr) {
    fail("plan was built with completed-block hints and can only resume "
         "from a checkpoint");
    return;
  }
  result_.ok = true;
  model_->beginRun(opts_.seed);

  const std::size_t numTasks = g_.numVertices();
  const std::size_t numProcs = cluster_.numProcessors();
  if (opts_.faults != nullptr) {
    faults_ = opts_.faults;
    faults_->beginRun(opts_.seed);
    procBlocks_.assign(numProcs, {});
    for (std::uint32_t b = 0; b < plan_.blocks.size(); ++b) {
      procBlocks_[procOf(b)].push_back(b);
    }
  }
  st_.blocks.assign(plan_.blocks.size(), BlockState{});
  if (opts_.comm == CommModel::kBlockSynchronous) {
    for (std::size_t b = 0; b < st_.blocks.size(); ++b) {
      st_.blocks[b].pendingInputs = plan_.quotient->in(b).size();
    }
    remoteInputs_.assign(numTasks, 0);
  } else {
    remoteInputs_ = plan_.remoteInputs;
  }
  arrivedBytes_.assign(numTasks, 0.0);
  st_.readyTime.assign(numTasks, 0.0);
  running_.assign(numProcs, graph::kInvalidVertex);
  procFinish_.assign(numProcs, kInf);
  bufferedOnProc_.assign(numProcs, 0.0);
  st_.taskCompleted.assign(numTasks, 0);
  st_.events.assign(numTasks, TaskEvent{});
  if (opts_.resume != nullptr && !loadCheckpoint(*opts_.resume)) return;
  // Fresh runs, and checkpoints captured without a fault model, start with
  // every processor alive and no fault event consumed.
  if (faults_ != nullptr && st_.procDeadUntil.empty()) {
    st_.procDeadUntil.assign(numProcs, 0.0);
    st_.faultsApplied.assign(numProcs, 0);
  }

  for (std::uint32_t b = 0; b < st_.blocks.size(); ++b) tryStart(b);

  // Each iteration either completes at least one task/transfer or closes an
  // ulp-sized gap to the next event; the generous cap only catches bugs.
  // Fault events and the task re-executions they force extend the budget.
  const std::size_t faultEvents =
      faults_ != nullptr ? faults_->totalEvents() : 0;
  const std::size_t maxIterations =
      16 + 8 * (numTasks + g_.numEdges() + 4 * faultEvents);
  std::size_t iterations = 0;
  std::vector<std::size_t> done;  // completed-transfer scratch
  std::vector<TransferState>& transfers = st_.transfers;
  while (st_.tasksDone < numTasks) {
    if (++iterations > maxIterations) {
      fail("event loop exceeded its iteration budget");
      return;
    }
    const double now = st_.now;
    double dt = kInf;
    for (platform::ProcessorId p = 0; p < running_.size(); ++p) {
      if (running_[p] != graph::kInvalidVertex) {
        dt = std::min(dt, procFinish_[p] - now);
      }
    }
    const double beta = cluster_.bandwidth();
    const double rate =
        transfers.empty()
            ? 0.0
            : (opts_.contention ? beta / static_cast<double>(transfers.size())
                                : beta);
    for (const TransferState& t : transfers) {
      dt = std::min(dt, t.remaining / rate);
    }
    if (faults_ != nullptr) {
      for (platform::ProcessorId p = 0; p < running_.size(); ++p) {
        const double deadUntil = st_.procDeadUntil[p];
        if (deadUntil > now && std::isfinite(deadUntil)) {
          dt = std::min(dt, deadUntil - now);
        }
        const std::vector<FaultEvent>& evs = faults_->events(p);
        if (st_.faultsApplied[p] < evs.size()) {
          dt = std::min(dt,
                        std::max(0.0, evs[st_.faultsApplied[p]].time - now));
        }
      }
    }
    if (!std::isfinite(dt)) {
      if (faults_ != nullptr) {
        for (const double d : st_.procDeadUntil) {
          if (d == kInf) {
            fail("processor fail-stop stranded unfinished work (no recovery "
                 "attached)");
            return;
          }
        }
      }
      fail("deadlock: tasks remain but no event is pending "
           "(unsatisfiable dependency in the schedule)");
      return;
    }
    dt = std::max(dt, 0.0);
    st_.now += dt;

    // Advance and deliver transfers first: a task finishing at the same
    // instant may only depend on data that has fully arrived.
    done.clear();
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      TransferState& t = transfers[i];
      t.remaining -= rate * dt;
      if (t.remaining <= 1e-12 * (1.0 + t.total)) done.push_back(i);
    }
    // Swap-remove back to front keeps the remaining indices valid; the
    // completed transfers are delivered afterwards so delivery cannot
    // invalidate the scratch list.
    std::vector<TransferState> completed;
    for (std::size_t j = done.size(); j > 0; --j) {
      const std::size_t i = done[j - 1];
      completed.push_back(transfers[i]);
      transfers[i] = transfers.back();
      transfers.pop_back();
    }
    // Deliver in dispatch order (reversed by the swap-remove above) so the
    // processing order stays deterministic.
    std::reverse(completed.begin(), completed.end());
    for (const TransferState& t : completed) deliver(t);

    // Faults strike after deliveries and before completions at the same
    // instant: a task finishing exactly when its processor dies is killed
    // (the pessimistic, deterministic reading of the tie).
    if (faults_ != nullptr && applyFaultEvents()) return;

    for (platform::ProcessorId p = 0; p < running_.size(); ++p) {
      if (running_[p] != graph::kInvalidVertex &&
          procFinish_[p] - st_.now <= 1e-12 * (1.0 + std::abs(st_.now))) {
        const graph::VertexId v = running_[p];
        completeTask(p);
        // The observer sees every completion, including the last one (the
        // contract in engine.hpp); only a pause after the final task is
        // meaningless and ignored. Pausing mid-instant is fine: processors
        // whose task also finishes at `now` stay running with finish ==
        // now and complete first thing after resume.
        if (opts_.observer != nullptr &&
            opts_.observer->onTaskFinish(v, st_.now) ==
                ObserverAction::kPause &&
            st_.tasksDone < numTasks) {
          result_.paused = true;
          return;
        }
      }
    }
  }
}

}  // namespace

SimResult simulateSchedule(const SimPlan& plan, const SimOptions& options) {
  Engine engine(plan, options);
  return engine.run();
}

SimResult simulateSchedule(const graph::Dag& g,
                           const platform::Cluster& cluster,
                           const scheduler::ScheduleResult& schedule,
                           const memory::MemDagOracle& oracle,
                           const SimOptions& options) {
  const SimPlan plan = prepareSimulation(g, cluster, schedule, oracle);
  return simulateSchedule(plan, options);
}

}  // namespace dagpm::sim
