#include "quotient/timeline.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

namespace dagpm::quotient {

Timeline computeTimeline(const QuotientGraph& q,
                         const platform::Cluster& cluster,
                         const comm::CommCostModel& model) {
  Timeline timeline;
  const auto fluid = buildQuotientFluid(q, cluster);
  assert(fluid.has_value() && "timeline requires an acyclic quotient");
  if (!fluid) return timeline;
  const comm::FluidResult eval =
      model.evaluate(fluid->problem, cluster.bandwidth());
  if (!eval.ok) return timeline;
  timeline.makespan = eval.makespan;
  for (std::uint32_t i = 0; i < fluid->blockOfNode.size(); ++i) {
    const BlockId b = fluid->blockOfNode[i];
    TimelineEntry entry;
    entry.block = b;
    entry.proc = q.node(b).proc;
    entry.start = eval.start[i];
    entry.finish = eval.finish[i];
    entry.numTasks = q.node(b).members.size();
    timeline.entries.push_back(entry);
  }
  std::sort(timeline.entries.begin(), timeline.entries.end(),
            [](const TimelineEntry& a, const TimelineEntry& b) {
              if (a.start != b.start) return a.start < b.start;
              return a.block < b.block;
            });
  return timeline;
}

void renderTimeline(std::ostream& os, const Timeline& timeline,
                    const platform::Cluster& cluster, int width) {
  if (timeline.entries.empty() || timeline.makespan <= 0.0) {
    os << "(empty timeline)\n";
    return;
  }
  const double scale = static_cast<double>(width) / timeline.makespan;
  for (const TimelineEntry& entry : timeline.entries) {
    const int from = static_cast<int>(entry.start * scale);
    const int to = std::max(from + 1, static_cast<int>(entry.finish * scale));
    std::string bar(static_cast<std::size_t>(width + 1), ' ');
    for (int i = from; i < to && i <= width; ++i) bar[i] = '#';
    const std::string kind = entry.proc == platform::kNoProcessor
                                 ? "?"
                                 : cluster.processor(entry.proc).kind;
    char label[64];
    std::snprintf(label, sizeof label, "block %3u %-6s (%3zu tasks) |",
                  entry.block, kind.c_str(), entry.numTasks);
    os << label << bar << "| " << entry.start << " - " << entry.finish
       << '\n';
  }
  os << "makespan: " << timeline.makespan << '\n';
}

std::string timelineToString(const Timeline& timeline,
                             const platform::Cluster& cluster, int width) {
  std::ostringstream oss;
  renderTimeline(oss, timeline, cluster, width);
  return oss.str();
}

}  // namespace dagpm::quotient
