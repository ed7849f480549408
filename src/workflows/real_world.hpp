#pragma once
// Synthetic stand-ins for the paper's real-world nf-core workflows with
// Lotaru-style historical weights (the measured traces themselves are not
// part of this repository).
//
// The paper's real-world set consists of five small nextflow pipelines
// (11-58 tasks after pseudo-task removal) whose weights come from measured
// PS statistics; for 40-55 % of tasks no historical data exists and they
// receive weight 1, producing "a long tail of tiny tasks" that the paper
// identifies as the defining property of this class. We reproduce exactly
// that: five hand-modeled topologies in the same size range, a configurable
// fraction of weight-1 tasks, heavy tasks with normalized measured-looking
// values, and memory normalized to the largest machine (192).

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dag.hpp"

namespace dagpm::workflows {

struct RealWorkflow {
  std::string name;
  graph::Dag dag;
};

struct RealWorldConfig {
  std::uint64_t seed = 1;
  double workScale = 1.0;        // 4.0 for the Sec. 5.2.4 experiment
  double noHistoryFraction = 0.5;  // tasks with weight 1 ("no historical data")
};

/// The five-workflow suite (methylseq-, chipseq-, eager-, rnaseq-, sarek-like;
/// 11 to 58 tasks).
std::vector<RealWorkflow> realWorldSuite(const RealWorldConfig& cfg = {});

}  // namespace dagpm::workflows
