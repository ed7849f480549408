#include "scheduler/daghetmem.hpp"

#include <stdexcept>

#include "graph/topology.hpp"
#include "memory/simulate.hpp"
#include "obs/obs.hpp"
#include "quotient/quotient.hpp"

namespace dagpm::scheduler {

using graph::VertexId;

ScheduleResult dagHetMem(const graph::Dag& g, const platform::Cluster& cluster,
                         const DagHetMemConfig& cfg) {
  // The traversal below never returns on a cyclic workflow.
  if (!graph::isAcyclic(g)) {
    throw std::invalid_argument("dagHetMem: cyclic workflow");
  }
  const obs::Span span("daghetmem.total");
  ScheduleResult result;
  result.blockOf.assign(g.numVertices(), 0);
  if (g.numVertices() == 0 || cluster.numProcessors() == 0) return result;

  const memory::MemDagOracle oracle(g, cfg.oracle);
  std::vector<VertexId> all(g.numVertices());
  for (VertexId v = 0; v < g.numVertices(); ++v) all[v] = v;
  const memory::TraversalResult traversal = oracle.bestTraversal(all);

  const std::vector<platform::ProcessorId> procs =
      cluster.byDecreasingMemory();

  // Whole workflow fits the largest memory: a single block is valid (and the
  // baseline does not try to exploit any parallelism).
  if (traversal.peak <= cluster.memory(procs[0])) {
    result.feasible = true;
    result.procOfBlock = {procs[0]};
    result.stats.numBlocks = 1;
    double makespan = 0.0;
    for (VertexId v = 0; v < g.numVertices(); ++v) makespan += g.work(v);
    result.makespan = makespan / cluster.speed(procs[0]);
    result.stats.seconds = span.seconds();
    return result;
  }

  // Stream the traversal into blocks; each block targets the next processor
  // in decreasing-memory order.
  memory::IncrementalBlockMemory stream(g);
  std::size_t procIndex = 0;
  stream.beginBlock();
  std::uint32_t currentBlock = 0;
  result.procOfBlock.clear();

  for (const VertexId u : traversal.order) {
    while (true) {
      if (procIndex >= procs.size()) {
        // Tasks remain but no processors are left: no valid mapping.
        result.feasible = false;
        result.stats.seconds = span.seconds();
        return result;
      }
      const double cap = cluster.memory(procs[procIndex]);
      if (stream.peakIfAdded(u) <= cap) {
        stream.add(u);
        result.blockOf[u] = currentBlock;
        break;
      }
      if (stream.blockSize() == 0) {
        // Even alone the task exceeds this processor; all later processors
        // are no larger (sorted), so the platform cannot run the workflow.
        result.feasible = false;
        result.stats.seconds = span.seconds();
        return result;
      }
      // Close the current block on its processor and retry u on the next.
      result.procOfBlock.push_back(procs[procIndex]);
      ++procIndex;
      ++currentBlock;
      stream.beginBlock();
    }
  }
  result.procOfBlock.push_back(procs[procIndex]);

  // Blocks are contiguous segments of one topological order, so the quotient
  // is acyclic by construction.
  const auto makespan = quotient::makespanValue(quotientOf(g, result), cluster);
  result.feasible = makespan.has_value();
  result.makespan = makespan.value_or(0.0);
  result.stats.numBlocks = result.numBlocks();
  result.stats.seconds = span.seconds();
  return result;
}

}  // namespace dagpm::scheduler
