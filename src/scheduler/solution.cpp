#include "scheduler/solution.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
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

double staticMakespan(const quotient::QuotientGraph& q,
                      const platform::Cluster& cluster) {
  return quotient::makespanValue(q, cluster, &comm::uncontendedCommModel())
      .value_or(0.0);
}

double staticMakespan(const graph::Dag& g, const platform::Cluster& cluster,
                      const ScheduleResult& schedule) {
  return staticMakespan(quotientOf(g, schedule), cluster);
}

ScheduleShape checkScheduleShape(const graph::Dag& g,
                                 const platform::Cluster& cluster,
                                 const ScheduleResult& schedule,
                                 std::span<const char> completed) {
  const auto fail = [](std::string msg) {
    ScheduleShape shape;
    shape.error = std::move(msg);
    return shape;
  };
  if (!schedule.feasible) return fail("schedule is marked infeasible");
  if (schedule.blockOf.size() != g.numVertices()) {
    return fail("blockOf does not cover all tasks");
  }
  const std::uint32_t numBlocks = schedule.numBlocks();
  std::vector<char> populated(numBlocks, 0);
  for (const std::uint32_t b : schedule.blockOf) {
    if (b >= numBlocks) return fail("task assigned to an out-of-range block");
    populated[b] = 1;
  }
  if (std::ranges::find(populated, 0) != populated.end()) {
    return fail("empty block in solution");
  }
  std::vector<char> procUsed(cluster.numProcessors(), 0);
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    const platform::ProcessorId p = schedule.procOfBlock[b];
    if (p >= cluster.numProcessors()) {  // kNoProcessor included
      return fail("block mapped to an invalid processor");
    }
    // A block already executed at resume time no longer occupies its
    // processor; only live blocks compete for one.
    if (b < completed.size() && completed[b] != 0) continue;
    if (procUsed[p] != 0) return fail("two blocks share a processor");
    procUsed[p] = 1;
  }
  ScheduleShape shape;
  shape.quotient.emplace(quotientOf(g, schedule));
  if (!shape.quotient->isAcyclic()) return fail("quotient graph is cyclic");
  return shape;
}

ValidationReport validateSchedule(const graph::Dag& g,
                                  const platform::Cluster& cluster,
                                  const memory::MemDagOracle& oracle,
                                  const ScheduleResult& schedule,
                                  const comm::CommCostModel* comm) {
  const auto fail = [](std::string msg) {
    return ValidationReport{false, std::move(msg)};
  };
  if (schedule.numBlocks() == 0) return fail("no blocks");
  if (schedule.numBlocks() > cluster.numProcessors()) {
    return fail("more blocks than processors");
  }
  ScheduleShape shape = checkScheduleShape(g, cluster, schedule);
  if (!shape.quotient) return fail(std::move(shape.error));
  const quotient::QuotientGraph& q = *shape.quotient;
  for (std::uint32_t b = 0; b < schedule.numBlocks(); ++b) {
    const quotient::QNode& node = q.node(b);
    const double r = oracle.blockRequirement(node.members);
    if (r > cluster.memory(node.proc) * (1.0 + 1e-9)) {
      std::ostringstream oss;
      oss << "block " << b << " needs memory " << r << " > "
          << cluster.memory(node.proc);
      return fail(oss.str());
    }
  }
  // Defined: the shape check proved the quotient acyclic.
  const double makespan = *quotient::makespanValue(q, cluster, comm);
  const double tolerance =
      1e-9 * std::max(1.0, std::abs(schedule.makespan));
  if (std::abs(makespan - schedule.makespan) > tolerance) {
    std::ostringstream oss;
    oss << "reported makespan " << schedule.makespan
        << " != recomputed " << makespan;
    return fail(oss.str());
  }
  return ValidationReport{true, {}};
}

}  // namespace dagpm::scheduler
