#include "memory/profile.hpp"

#include <algorithm>
#include <cassert>

namespace dagpm::memory {

Profile decomposeProfile(std::span<const graph::VertexId> tasks,
                         std::span<const double> stepMemory,
                         std::span<const double> residentAfter,
                         double startResident) {
  assert(tasks.size() == stepMemory.size());
  assert(tasks.size() == residentAfter.size());
  const std::size_t n = tasks.size();
  Profile profile;
  profile.startResident = startResident;

  // Segment = prefix of the remainder ending at the (last) minimum of the
  // remaining resident values. Cutting at the global suffix minimum makes
  // the first segment the deepest dropper; subsequent segments are risers
  // with non-increasing (hill - delta), which keeps the within-branch order
  // compatible with the global merge rule. One backward pass finds every
  // suffix's last minimum.
  std::vector<std::size_t> lastMin(n);
  for (std::size_t i = n; i-- > 0;) {
    const bool keepLater =
        i + 1 < n && !(residentAfter[i] < residentAfter[lastMin[i + 1]]);
    lastMin[i] = keepLater ? lastMin[i + 1] : i;
  }

  std::size_t begin = 0;
  double segStartResident = startResident;
  while (begin < n) {
    const std::size_t cut = lastMin[begin];
    Segment seg;
    double hill = 0.0;
    for (std::size_t i = begin; i <= cut; ++i) {
      hill = std::max(hill, stepMemory[i] - segStartResident);
    }
    seg.tasks.assign(tasks.begin() + begin, tasks.begin() + cut + 1);
    seg.hill = hill;
    seg.delta = residentAfter[cut] - segStartResident;
    segStartResident = residentAfter[cut];
    profile.segments.push_back(std::move(seg));
    begin = cut + 1;
  }
  return profile;
}

namespace {

/// Liu ordering: droppers before risers; droppers by increasing hill;
/// risers by decreasing (hill - delta).
bool liuLess(const Segment& a, const Segment& b) {
  const bool aDrops = a.delta < 0.0;
  const bool bDrops = b.delta < 0.0;
  if (aDrops != bDrops) return aDrops;
  if (aDrops) return a.hill < b.hill;
  return a.hill - a.delta > b.hill - b.delta;
}

/// A branch's next unconsumed segment.
struct Head {
  const Segment* seg;
  std::size_t branch;
};

/// Heap order: true when `a` is taken after `b` (Liu order, then the lower
/// branch index first), so the heap's front is the next segment to take.
bool takenAfter(const Head& a, const Head& b) {
  if (liuLess(*b.seg, *a.seg)) return true;
  if (liuLess(*a.seg, *b.seg)) return false;
  return a.branch > b.branch;
}

}  // namespace

std::vector<graph::VertexId> mergeProfiles(std::span<const Profile> branches) {
  // K-way merge of the branches' segment lists: repeatedly take, among the
  // branches' next unconsumed segments, the first under the Liu rule (ties to
  // the lowest branch index). This preserves within-branch precedence by
  // construction and coincides with a global sort whenever the canonical
  // decomposition is well-ordered (it is, by Liu's segmentation lemma; the
  // head-greedy form is robust regardless). The heads sit in a binary heap,
  // so a merge of S segments over k branches costs O(S log k).
  std::vector<Head> heap;
  heap.reserve(branches.size());
  std::size_t total = 0;
  for (std::size_t b = 0; b < branches.size(); ++b) {
    for (const Segment& seg : branches[b].segments) total += seg.tasks.size();
    if (!branches[b].segments.empty()) {
      heap.push_back(Head{&branches[b].segments.front(), b});
    }
  }
  std::make_heap(heap.begin(), heap.end(), takenAfter);
  std::vector<graph::VertexId> merged;
  merged.reserve(total);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), takenAfter);
    const Head head = heap.back();
    heap.pop_back();
    merged.insert(merged.end(), head.seg->tasks.begin(),
                  head.seg->tasks.end());
    const std::vector<Segment>& segs = branches[head.branch].segments;
    if (head.seg + 1 != segs.data() + segs.size()) {
      heap.push_back(Head{head.seg + 1, head.branch});
      std::push_heap(heap.begin(), heap.end(), takenAfter);
    }
  }
  return merged;
}

}  // namespace dagpm::memory
