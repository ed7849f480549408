#include "scheduler/solution.hpp"

#include <cassert>
#include <cmath>
#include <set>
#include <sstream>

namespace dagpm::scheduler {

quotient::QuotientGraph quotientOf(const graph::Dag& g,
                                   const ScheduleResult& schedule) {
  quotient::QuotientGraph q(g, schedule.blockOf, schedule.numBlocks());
  for (std::uint32_t b = 0; b < schedule.numBlocks(); ++b) {
    q.setProcessor(b, schedule.procOfBlock[b]);
  }
  return q;
}

ScheduleResult scheduleOf(const quotient::QuotientGraph& q, double makespan) {
  ScheduleResult result;
  result.feasible = true;
  result.makespan = makespan;
  const std::vector<quotient::BlockId> alive = q.aliveNodes();
  result.blockOf.assign(q.workflow().numVertices(), 0);
  result.procOfBlock.resize(alive.size());
  for (std::uint32_t compact = 0; compact < alive.size(); ++compact) {
    const quotient::QNode& node = q.node(alive[compact]);
    assert(node.proc != platform::kNoProcessor);
    result.procOfBlock[compact] = node.proc;
    for (const graph::VertexId v : node.members) result.blockOf[v] = compact;
  }
  result.stats.numBlocks = static_cast<std::uint32_t>(alive.size());
  return result;
}

std::optional<double> modelMakespan(const graph::Dag& g,
                                    const platform::Cluster& cluster,
                                    const ScheduleResult& schedule,
                                    const comm::CommCostModel& model) {
  return quotient::makespanValue(quotientOf(g, schedule), cluster, &model);
}

double staticMakespan(const graph::Dag& g, const platform::Cluster& cluster,
                      const ScheduleResult& schedule) {
  return modelMakespan(g, cluster, schedule, comm::uncontendedCommModel())
      .value_or(0.0);
}

ValidationReport validateSchedule(const graph::Dag& g,
                                  const platform::Cluster& cluster,
                                  const memory::MemDagOracle& oracle,
                                  const ScheduleResult& schedule,
                                  const comm::CommCostModel* comm) {
  ValidationReport report;
  auto fail = [&report](std::string msg) {
    report.valid = false;
    report.error = std::move(msg);
    return report;
  };

  if (!schedule.feasible) return fail("schedule is marked infeasible");
  if (schedule.blockOf.size() != g.numVertices()) {
    return fail("blockOf does not cover all tasks");
  }
  const std::uint32_t numBlocks = schedule.numBlocks();
  if (numBlocks == 0) return fail("no blocks");
  if (numBlocks > cluster.numProcessors()) {
    return fail("more blocks than processors");
  }
  std::vector<std::vector<graph::VertexId>> members(numBlocks);
  for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
    if (schedule.blockOf[v] >= numBlocks) {
      return fail("task assigned to an out-of-range block");
    }
    members[schedule.blockOf[v]].push_back(v);
  }
  std::set<platform::ProcessorId> usedProcs;
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    if (members[b].empty()) return fail("empty block in solution");
    const platform::ProcessorId p = schedule.procOfBlock[b];
    if (p == platform::kNoProcessor || p >= cluster.numProcessors()) {
      return fail("block mapped to an invalid processor");
    }
    if (!usedProcs.insert(p).second) {
      return fail("two blocks share a processor");
    }
    const double r = oracle.blockRequirement(members[b]);
    if (r > cluster.memory(p) * (1.0 + 1e-9)) {
      std::ostringstream oss;
      oss << "block " << b << " needs memory " << r << " > " << cluster.memory(p);
      return fail(oss.str());
    }
  }

  const quotient::QuotientGraph q = quotientOf(g, schedule);
  if (!q.isAcyclic()) return fail("quotient graph is cyclic");
  const auto makespan = quotient::makespanValue(q, cluster, comm);
  if (!makespan) return fail("makespan undefined");
  const double tolerance =
      1e-9 * std::max(1.0, std::abs(schedule.makespan));
  if (std::abs(*makespan - schedule.makespan) > tolerance) {
    std::ostringstream oss;
    oss << "reported makespan " << schedule.makespan
        << " != recomputed " << *makespan;
    return fail(oss.str());
  }
  report.valid = true;
  return report;
}

}  // namespace dagpm::scheduler
