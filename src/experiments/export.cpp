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

StudyTable<RunOutcome> outcomesTable() {
  using Out = RunOutcome;
  StudyTable<Out> table({"config", "band", "family"}, [](const Out& out) {
    const std::string band = workflows::sizeBandName(out.band);
    return std::vector<GroupKey>{{out.config, band, out.family},
                                 {out.config, band, "*"}};
  });
  const auto both = [](const Out& out) {
    return out.partFeasible && out.memFeasible;
  };
  const auto hasRatio = [=](const Out& out) {
    return both(out) && out.memMakespan > 0.0;
  };
  const auto ratio = [](const Out& out) {
    return out.partMakespan / out.memMakespan;
  };
  const auto runtimeRatio = [](const Out& out) {
    return out.partSeconds / out.memSeconds;
  };
  const auto timed = [=](const Out& out) {
    return both(out) && out.memSeconds > 0.0 && out.partSeconds > 0.0;
  };
  table.csv("config", &Out::config);
  table.instanceColumns();
  table.csv("part_feasible", &Out::partFeasible);
  table.csv("mem_feasible", &Out::memFeasible);
  table.csv("part_makespan", &Out::partMakespan);
  table.csv("mem_makespan", &Out::memMakespan);
  table.csv("ratio", [=](const Out& out) {
    return hasRatio(out) ? formatG6(ratio(out)) : std::string();
  });
  table.csv("part_seconds", &Out::partSeconds);
  table.csv("mem_seconds", &Out::memSeconds);
  table.json("total", countOf(kAll));
  table.json("scheduled_both", countOf(both));
  table.json("part_scheduled", countOf(&Out::partFeasible));
  table.json("mem_scheduled", countOf(&Out::memFeasible));
  table.json("geomean_ratio", geomeanOf(ratio, hasRatio));
  table.json("geomean_part_makespan", geomeanOf(&Out::partMakespan, both));
  table.json("geomean_mem_makespan", geomeanOf(&Out::memMakespan, both));
  table.json("geomean_runtime_ratio", geomeanOf(runtimeRatio, timed));
  table.json("mean_part_seconds", meanOf(&Out::partSeconds, both));
  table.json("mean_mem_seconds", meanOf(&Out::memSeconds, both));
  return table;
}

BenchExport outcomesExport(const std::string& bench,
                           const OutcomeGroups& groups,
                           const std::map<std::string, std::string>& meta) {
  std::vector<RunOutcome> all;
  for (const auto& [config, outcomes] : groups) {
    for (RunOutcome out : outcomes) {
      out.config = config;
      all.push_back(std::move(out));
    }
  }
  const StudyTable<RunOutcome> table = outcomesTable();
  BenchExport exported = table.exportRows(bench, all, meta);
  exported.extra["overall"] = support::JsonValue(table.reduce(groupOf(all)));
  return exported;
}

}  // namespace dagpm::experiments
