#pragma once
// Synthetic workflow generators mimicking the seven WfGen/WfCommons model
// workflows the paper evaluates (Sec. 5.1.1). Each generator reproduces the
// family's structural signature:
//   Seismology  one source fanning out to n-2 parallel deconvolutions, one sink
//   BLAST       split -> massive parallel blastall -> concat -> report
//   BWA         index + split -> parallel alignments (2 parents each) -> concat
//   Epigenomics parallel pipelines (chains) between a split and a merge tail
//   1000Genome  groups of {parallel individuals -> merge -> sifting ->
//               2 analyses}
//   Montage     layered: projections -> pairwise diffs -> model -> backgrounds
//               -> table -> add -> shrink -> jpeg (cross dependencies)
//   SoyKB       long preprocessing chain, then a fork-join tail
// Seismology/BLAST/BWA are the paper's "most fanned-out" families,
// SoyKB/Epigenomics the "least fanned-out" ones.
//
// Weights follow Sec. 5.1.1: edge costs ~ U{1..10}, task work ~ U{1..1000}
// (scaled by workScale for the Sec. 5.2.4 experiment), memory ~ U{1..192}.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/dag.hpp"

namespace dagpm::workflows {

enum class Family {
  kSeismology,
  kBlast,
  kBwa,
  kEpigenomics,
  kGenome1000,
  kMontage,
  kSoyKb,
};

std::vector<Family> allFamilies();
std::string familyName(Family f);

/// The paper's fan-out classification (Sec. 5.2.6).
bool isHighFanout(Family f);

struct GenConfig {
  int numTasks = 200;        // approximate; generators land within a few tasks
  std::uint64_t seed = 1;
  double workScale = 1.0;    // 4.0 reproduces the Sec. 5.2.4 experiment
};

/// Generates a weighted workflow DAG of the given family.
graph::Dag generate(Family f, const GenConfig& cfg);

/// Paper size bands (Sec. 5.1.1): small <= 8000 < mid <= 18000 < big.
enum class SizeBand { kReal, kSmall, kMid, kBig };
std::string sizeBandName(SizeBand band);

}  // namespace dagpm::workflows
