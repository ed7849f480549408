#include "service/request_key.hpp"

#include <bit>
#include <cstring>

namespace dagpm::service {

const char* algorithmName(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kDagHetPart: return "daghetpart";
    case Algorithm::kDagHetMem: return "daghetmem";
    case Algorithm::kBest: return "best";
  }
  return "?";
}

std::string requestKey(const graph::Dag& g, const platform::Cluster& cluster,
                       const scheduler::DagHetPartConfig& cfg,
                       Algorithm algorithm) {
  std::string key;
  const auto word = [&key](std::uint64_t v) {
    char bytes[sizeof(v)];
    std::memcpy(bytes, &v, sizeof(v));
    key.append(bytes, sizeof(v));
  };
  const auto real = [&word](double v) {
    word(std::bit_cast<std::uint64_t>(v));
  };

  word(g.numVertices());
  for (graph::VertexId v = 0; v < g.numVertices(); ++v) {
    real(g.work(v));
    real(g.memory(v));
  }
  word(g.numEdges());
  for (graph::EdgeId e = 0; e < g.numEdges(); ++e) {
    const graph::Edge& edge = g.edge(e);
    word(edge.src);
    word(edge.dst);
    real(edge.cost);
  }
  word(cluster.numProcessors());
  for (platform::ProcessorId p = 0; p < cluster.numProcessors(); ++p) {
    real(cluster.speed(p));
    real(cluster.memory(p));
  }
  real(cluster.bandwidth());
  // The config block has a fixed length, so it needs no count. The options'
  // fullReevaluation is excluded (schedules are bit-identical across it —
  // see the header).
  word(static_cast<std::uint64_t>(algorithm));
  word(static_cast<std::uint64_t>(cfg.sweep));
  word(cfg.seed);
  real(cfg.step1Epsilon);
  word(static_cast<std::uint64_t>(cfg.step1Balance));
  word(cfg.oracle.useSpization);
  word(cfg.preferOffCriticalPath);
  word(cfg.anyHostFallback);
  word(cfg.enableSwaps);
  word(cfg.enableIdleMoves);
  word(cfg.memoryBalanceFallback);
  word(cfg.options.contentionAware);
  return key;
}

}  // namespace dagpm::service
