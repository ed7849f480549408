#include "scheduler/solution.hpp"

#include <cmath>
#include <set>
#include <sstream>

#include "quotient/quotient.hpp"

namespace dagpm::scheduler {

std::optional<double> modelMakespan(const graph::Dag& g,
                                    const platform::Cluster& cluster,
                                    const ScheduleResult& schedule,
                                    const comm::CommCostModel& model) {
  quotient::QuotientGraph q(g, schedule.blockOf, schedule.numBlocks());
  for (std::uint32_t b = 0; b < schedule.numBlocks(); ++b) {
    q.setProcessor(b, schedule.procOfBlock[b]);
  }
  return quotient::makespanValue(q, cluster, &model);
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

  quotient::QuotientGraph q(g, schedule.blockOf, numBlocks);
  if (!q.isAcyclic()) return fail("quotient graph is cyclic");
  for (std::uint32_t b = 0; b < numBlocks; ++b) {
    q.setProcessor(b, schedule.procOfBlock[b]);
  }
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
