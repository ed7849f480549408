#pragma once
// Hill-valley memory profiles and the Liu-style merge used to interleave
// parallel SP branches with minimal peak memory.
//
// A branch schedule's memory footprint (relative to the moment the branch
// becomes ready) is a sequence of step spikes and post-step residents.
// Following Liu's classic result for tree traversals (and its SP-graph
// extension by Kayaaslan et al.), each branch profile is canonically
// decomposed into segments at its successive suffix minima; merging the
// segments of all branches in the order
//   1. "droppers" (resident delta < 0) by increasing hill, then
//   2. "risers" by decreasing (hill - delta)
// yields a peak-minimal interleaving. The canonical decomposition guarantees
// the within-branch segment order is consistent with this global order, so a
// stable sort preserves precedence constraints.
//
// Cost: decomposeProfile is O(L) for L tasks (one backward suffix-minimum
// pass); mergeProfiles is O(S log k + T) for S segments and T tasks over k
// branches (a binary heap of branch heads). A Profile owns its segments and
// their task lists; mergeProfiles only reads the branches.

#include <span>
#include <vector>

#include "graph/dag.hpp"

namespace dagpm::memory {

/// One atomic segment: a slice of a branch schedule that rises to a relative
/// peak `hill` and ends `delta` above (or below) its starting resident.
struct Segment {
  double hill = 0.0;   // max(stepMemory - startResident) within the slice
  double delta = 0.0;  // endResident - startResident
  std::vector<graph::VertexId> tasks;
};

/// A branch profile: startResident plus the canonical segment decomposition.
struct Profile {
  double startResident = 0.0;
  std::vector<Segment> segments;

  [[nodiscard]] bool empty() const noexcept { return segments.empty(); }
};

/// Canonically decomposes a simulated schedule into segments.
/// `stepMemory[i]` is the memory while executing tasks[i]; `residentAfter[i]`
/// the resident afterwards; `startResident` the resident before step 0.
Profile decomposeProfile(std::span<const graph::VertexId> tasks,
                         std::span<const double> stepMemory,
                         std::span<const double> residentAfter,
                         double startResident);

/// Merges branch profiles into a single interleaved schedule that minimizes
/// the combined peak (sum of concurrent branch residents + active spike).
/// Segment order within each branch is preserved; among the branches' next
/// segments the first in Liu order is taken, equal ones by the lowest branch
/// index.
std::vector<graph::VertexId> mergeProfiles(std::span<const Profile> branches);

}  // namespace dagpm::memory
