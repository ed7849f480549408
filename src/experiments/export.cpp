#include "experiments/export.hpp"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <utility>

#include "obs/obs.hpp"
#include "support/csv.hpp"
#include "support/env.hpp"
#include "workflows/families.hpp"

namespace dagpm::experiments {

std::string formatG6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

namespace {

// Process totals when the current stats window opened (empty before the
// first beginStatsWindow: the window is the whole process).
std::vector<obs::CounterValue> gWindowCounters;
std::map<std::string, obs::SpanAggregate> gWindowSpans;

support::JsonValue statsJson() {
  support::JsonObject stats;
  if (obs::countersEnabled()) {
    const std::vector<obs::CounterValue> now = obs::counterSnapshot();
    for (std::size_t i = 0; i < now.size(); ++i) {
      std::uint64_t value = now[i].value;
      if (i < gWindowCounters.size() &&
          !obs::counterMergesByMax(static_cast<obs::Counter>(i))) {
        value -= gWindowCounters[i].value;
      }
      stats[now[i].name] = support::JsonValue(static_cast<double>(value));
    }
  }
  for (obs::SpanAggregate s : obs::spanAggregates()) {
    if (const auto it = gWindowSpans.find(s.name); it != gWindowSpans.end()) {
      s.calls -= it->second.calls;
      s.seconds -= it->second.seconds;
    }
    if (s.calls == 0) continue;
    stats["span." + s.name + "_calls"] =
        support::JsonValue(static_cast<double>(s.calls));
    stats["span." + s.name + "_seconds"] = support::JsonValue(s.seconds);
  }
  return support::JsonValue(std::move(stats));
}

/// Serializes `doc` to `path` with a trailing newline; returns false on I/O
/// failure, including buffered writes failing at flush time.
bool writeJsonDocument(const std::string& path,
                       const support::JsonValue& doc) {
  std::ofstream out(path);
  if (!out) return false;
  out << doc.dump() << '\n';
  // Close before checking: buffered writes can fail at flush time (e.g. a
  // full disk) and must not be reported as success.
  out.close();
  return !out.fail();
}

}  // namespace

support::JsonObject metaJson(const std::map<std::string, std::string>& meta) {
  support::JsonObject obj;
  for (const auto& [key, value] : meta) obj[key] = support::JsonValue(value);
  return obj;
}

void beginStatsWindow() {
  gWindowCounters = obs::counterSnapshot();
  gWindowSpans.clear();
  for (obs::SpanAggregate& s : obs::spanAggregates()) {
    gWindowSpans.emplace(s.name, std::move(s));
  }
}

support::JsonValue benchDocument(const BenchExport& out) {
  support::JsonObject doc = out.extra;
  doc["schema_version"] = support::JsonValue(1.0);
  doc["bench"] = support::JsonValue(out.bench);
  doc["meta"] = support::JsonValue(out.meta);
  doc["rows"] = support::JsonValue(out.rows);
  doc["stats"] = statsJson();
  return support::JsonValue(std::move(doc));
}

bool exportBench(const BenchExport& out) {
  bool ok = true;
  const std::string csvDir = support::getEnvOr("DAGPM_CSV", "");
  if (!csvDir.empty() && !out.csvHeader.empty()) {
    const std::string path = csvDir + "/" + out.bench + ".csv";
    if (support::writeCsv(path, out.csvHeader, out.csvRows)) {
      std::cout << "raw results: " << path << "\n";
    } else {
      ok = false;
      std::cerr << "error: could not write to the DAGPM_CSV directory\n";
    }
  }
  const std::string jsonDir = support::getEnvOr("DAGPM_JSON_OUT", "");
  if (!jsonDir.empty()) {
    const std::string path = jsonDir + "/" + out.bench + ".json";
    if (writeJsonDocument(path, benchDocument(out))) {
      std::cout << "aggregate rows: " << path << "\n";
    } else {
      ok = false;
      std::cerr << "error: could not write to the DAGPM_JSON_OUT directory\n";
    }
  }
  return ok;
}

support::JsonValue aggregateToJson(const Aggregate& agg) {
  support::JsonObject obj;
  obj["total"] = support::JsonValue(static_cast<double>(agg.total));
  obj["scheduled_both"] =
      support::JsonValue(static_cast<double>(agg.scheduledBoth));
  obj["part_scheduled"] =
      support::JsonValue(static_cast<double>(agg.partScheduled));
  obj["mem_scheduled"] =
      support::JsonValue(static_cast<double>(agg.memScheduled));
  obj["geomean_ratio"] = support::JsonValue(agg.geomeanRatio);
  obj["geomean_part_makespan"] =
      support::JsonValue(agg.geomeanPartMakespan);
  obj["geomean_mem_makespan"] = support::JsonValue(agg.geomeanMemMakespan);
  obj["mean_part_seconds"] = support::JsonValue(agg.meanPartSeconds);
  obj["mean_mem_seconds"] = support::JsonValue(agg.meanMemSeconds);
  obj["geomean_runtime_ratio"] =
      support::JsonValue(agg.geomeanRuntimeRatio);
  return support::JsonValue(std::move(obj));
}

namespace {

support::JsonValue rowJson(const std::string& config, const std::string& band,
                           const std::string& family, const Aggregate& agg) {
  support::JsonObject obj = aggregateToJson(agg).asObject();
  obj["config"] = support::JsonValue(config);
  obj["band"] = support::JsonValue(band);
  obj["family"] = support::JsonValue(family);
  return support::JsonValue(std::move(obj));
}

}  // namespace

BenchExport outcomesExport(const std::string& bench,
                           const OutcomeGroups& groups,
                           const std::map<std::string, std::string>& meta) {
  BenchExport out;
  out.bench = bench;
  out.meta = metaJson(meta);
  out.csvHeader = {"config", "instance", "band", "family", "tasks",
                   "part_feasible", "mem_feasible", "part_makespan",
                   "mem_makespan", "ratio", "part_seconds", "mem_seconds"};
  const auto& fmt = formatG6;
  std::vector<RunOutcome> all;
  for (const auto& [config, outcomes] : groups) {
    for (const RunOutcome& o : outcomes) {
      const bool both = o.partFeasible && o.memFeasible;
      out.csvRows.push_back({
          config,
          o.instance,
          workflows::sizeBandName(o.band),
          o.family,
          std::to_string(o.numTasks),
          o.partFeasible ? "1" : "0",
          o.memFeasible ? "1" : "0",
          fmt(o.partMakespan),
          fmt(o.memMakespan),
          both && o.memMakespan > 0.0 ? fmt(o.partMakespan / o.memMakespan)
                                      : "",
          fmt(o.partSeconds),
          fmt(o.memSeconds),
      });
    }
    all.insert(all.end(), outcomes.begin(), outcomes.end());
    // Per-(band, family) rows: the finest aggregate the paper reports.
    const auto byGroup = aggregateBy(outcomes, [](const RunOutcome& o) {
      return std::pair(workflows::sizeBandName(o.band), o.family);
    });
    for (const auto& [key, agg] : byGroup) {
      out.rows.push_back(rowJson(config, key.first, key.second, agg));
    }
    // Per-band rollups ("family": "*"), matching the printed band tables.
    for (const auto& [band, agg] : aggregateByBand(outcomes)) {
      out.rows.push_back(
          rowJson(config, workflows::sizeBandName(band), "*", agg));
    }
  }
  out.extra["overall"] = aggregateToJson(aggregateAll(all));
  return out;
}

}  // namespace dagpm::experiments
