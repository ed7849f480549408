#pragma once
// The one bench export path.
//
// Benches honor two environment variables, both naming an existing
// directory, so one process can export several documents:
//   DAGPM_CSV=<dir>       each bench also writes its raw per-instance results
//                         to <dir>/<bench>.csv so figures can be re-plotted
//                         externally.
//   DAGPM_JSON_OUT=<dir>  each bench writes its aggregate rows as a JSON
//                         document to <dir>/<bench>.json, the
//                         machine-readable record the perf trajectory
//                         (BENCH_*.json) regresses against.
//
// Every bench fills one BenchExport and hands it to exportBench, which
// writes both files. Every document has the same top-level shape:
// {schema_version, bench, meta, rows, stats} plus the bench's extra keys.
// Each of the five experiment exporters (the harness comparison, contention
// and the three Monte-Carlo studies) is one StudyTable declaration: a name
// and a getter per CSV column, its group key fields, and a name and a
// reducer (countOf, sumOf, meanOf, largestOf, geomeanOf, ratioOf) per number
// of its JSON rows. The CSV header, CSV rows and JSON rows all come from
// that one declaration; console tables read the JSON rows, or the table's
// reduce of a group of their own, by key.

#include <functional>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "experiments/harness.hpp"
#include "support/json.hpp"
#include "support/stats.hpp"
#include "workflows/families.hpp"

namespace dagpm::experiments {

/// "%.6g" — the numeric cell format of every exported CSV.
std::string formatG6(double v);

/// Everything one bench run exports.
struct BenchExport {
  std::string bench;
  /// Raw per-instance rows for $DAGPM_CSV/<bench>.csv; an empty header
  /// means the bench has no CSV table.
  std::vector<std::string> csvHeader;
  std::vector<std::vector<std::string>> csvRows;
  /// The aggregate rows of the JSON document.
  support::JsonArray rows;
  support::JsonObject meta;
  /// Further top-level keys of the JSON document (e.g. "overall").
  support::JsonObject extra;
};

/// String-valued run parameters (scale, sweep, seeds, ...) as the "meta"
/// object of a bench document.
support::JsonObject metaJson(const std::map<std::string, std::string>& meta);

/// The JSON document {schema_version, bench, meta, rows, stats, ...extra}.
/// "stats" is the run's observability summary: deterministic obs counters
/// (when enabled) plus per-span wall-time totals (`span.<name>_calls` /
/// `span.<name>_seconds`; the `_seconds` fields are machine-varying and
/// ignored by the checker). It covers the current stats window: the whole
/// process until beginStatsWindow is first called.
support::JsonValue benchDocument(const BenchExport& out);

/// Opens a new stats window: documents built from now on carry the counter
/// and span deltas since this call (spans with no call in the window are
/// left out; the max-merged span.peak_depth gauge keeps its process value).
/// A process exporting several documents calls it before each one's work,
/// so every document gates only its own counters. DAGPM_STATS and
/// DAGPM_TRACE still cover the whole process.
void beginStatsWindow();

/// The bench epilogue: writes <bench>.csv into $DAGPM_CSV when that is set
/// (and the bench has a CSV table) and <bench>.json into $DAGPM_JSON_OUT
/// when that is set, printing each written path. Both
/// writes are attempted before a failure is reported, so a bad DAGPM_CSV
/// directory does not also drop the JSON trajectory record (or vice versa).
/// Returns false when a requested write failed; an unset variable is no
/// failure.
bool exportBench(const BenchExport& out);

/// The CSV text of a study cell: "%.6g" for reals, std::to_string for
/// integers and bools, strings as is.
inline std::string cellText(double v) { return formatG6(v); }
inline std::string cellText(int v) { return std::to_string(v); }
inline std::string cellText(std::string v) { return v; }

/// A group key of a study: one string per key field.
using GroupKey = std::vector<std::string>;

/// One study's column declaration and export.
template <class Outcome>
class StudyTable {
 public:
  /// The outcomes of one group, in input order.
  using Group = std::span<const Outcome* const>;
  /// The group keys of an outcome: one per group it belongs to.
  using Keys = std::function<std::vector<GroupKey>(const Outcome&)>;
  using Cell = std::function<std::string(const Outcome&)>;
  using Reducer = std::function<double(Group)>;

  StudyTable(std::vector<std::string> keyFields, Keys keys)
      : keyFields_(std::move(keyFields)), keys_(std::move(keys)) {}

  /// Appends a CSV column; `get` (a member pointer or a callable) reads the
  /// cell's value (see cellText) from an outcome.
  template <class Get>
  void csv(std::string name, Get get) {
    csv_.emplace_back(std::move(name), [get](const Outcome& out) {
      return cellText(std::invoke(get, out));
    });
  }

  /// Appends the instance columns: instance, band, family, tasks.
  void instanceColumns() {
    csv("instance", &Outcome::instance);
    csv("band", [](const Outcome& out) {
      return workflows::sizeBandName(out.band);
    });
    csv("family", &Outcome::family);
    csv("tasks", &Outcome::numTasks);
  }

  /// Appends a number of the JSON rows: `reducer` of each group (see
  /// countOf, sumOf, ...).
  void json(std::string name, Reducer reducer) {
    json_.emplace_back(std::move(name), std::move(reducer));
  }

  /// Every JSON number of one group, by name.
  support::JsonObject reduce(Group group) const {
    support::JsonObject numbers;
    for (const auto& [name, reducer] : json_) {
      numbers[name] = support::JsonValue(reducer(group));
    }
    return numbers;
  }

  /// One CSV row per outcome, and one JSON row per group key (in sorted key
  /// order) holding the key fields and the group's reduce.
  BenchExport exportRows(const std::string& bench,
                         const std::vector<Outcome>& outcomes,
                         const std::map<std::string, std::string>& meta) const {
    BenchExport result;
    result.bench = bench;
    result.meta = metaJson(meta);
    for (const auto& [name, cell] : csv_) result.csvHeader.push_back(name);
    std::map<GroupKey, std::vector<const Outcome*>> groups;
    for (const Outcome& out : outcomes) {
      std::vector<std::string>& row = result.csvRows.emplace_back();
      for (const auto& [name, cell] : csv_) row.push_back(cell(out));
      for (GroupKey& key : keys_(out)) groups[std::move(key)].push_back(&out);
    }
    for (const auto& [key, group] : groups) {
      support::JsonObject row = reduce(group);
      for (std::size_t k = 0; k < key.size(); ++k) {
        row[keyFields_[k]] = support::JsonValue(key[k]);
      }
      result.rows.push_back(support::JsonValue(std::move(row)));
    }
    return result;
  }

 private:
  std::vector<std::string> keyFields_;
  Keys keys_;
  std::vector<std::pair<std::string, Cell>> csv_;
  std::vector<std::pair<std::string, Reducer>> json_;
};

// The study reducers. Each folds the `value` of every outcome of a group
// that its `keep` filter passes (each a member pointer or a callable), in
// group order; a group with no kept outcome reduces to 0.

/// The reducer folding the kept values with `fold`.
template <class Fold, class Value, class Keep>
auto foldOf(Fold fold, Value value, Keep keep) {
  return [=](const auto& group) {
    std::vector<double> values;
    for (const auto* out : group) {
      if (std::invoke(keep, *out)) values.push_back(std::invoke(value, *out));
    }
    return values.empty() ? 0.0 : fold(std::span<const double>(values));
  };
}

/// The filter every outcome passes.
inline constexpr auto kAll = [](const auto&) { return true; };

template <class Value, class Keep>
auto sumOf(Value value, Keep keep) {
  const auto sum = [](std::span<const double> values) {
    return std::accumulate(values.begin(), values.end(), 0.0);
  };
  return foldOf(sum, value, keep);
}
template <class Keep>
auto countOf(Keep keep) {
  return sumOf([](const auto&) { return 1.0; }, keep);
}
template <class Value, class Keep>
auto meanOf(Value value, Keep keep) {
  return foldOf(support::mean, value, keep);
}
template <class Value, class Keep>
auto largestOf(Value value, Keep keep) {
  return foldOf(support::maxOf, value, keep);
}
/// Skips non-positive values too: a degenerate zero makespan cannot enter a
/// geometric mean.
template <class Value, class Keep>
auto geomeanOf(Value value, Keep keep) {
  return foldOf(support::geometricMean, value, [=](const auto& out) {
    return std::invoke(keep, out) && std::invoke(value, out) > 0.0;
  });
}

/// numerator / denominator of a group; 0 unless the denominator is positive.
template <class Numerator, class Denominator>
auto ratioOf(Numerator numerator, Denominator denominator) {
  return [=](const auto& group) {
    const double d = denominator(group);
    return d > 0.0 ? numerator(group) / d : 0.0;
  };
}

/// The outcomes of a range as one group, in order.
template <class Outcomes>
auto groupOf(const Outcomes& outcomes) {
  std::vector<const typename Outcomes::value_type*> group;
  for (const auto& out : outcomes) group.push_back(&out);
  return group;
}

/// The harness comparison's table: one CSV row per outcome (config,
/// instance, band, family, tasks, feasibility, makespans, the part/mem
/// makespan ratio when both are feasible, runtimes) and one JSON row per
/// (config, band, family) and per (config, band) with family "*". Its
/// numbers: the outcome counts, the geometric means of the makespan ratio,
/// both makespans and the runtime ratio, and both mean runtimes, each over
/// the outcomes both schedulers scheduled.
StudyTable<RunOutcome> outcomesTable();

/// Benches that sweep a parameter (cluster size, heterogeneity, bandwidth,
/// ablation variant, ...) export one named group per configuration so the
/// perf trajectory can regress each configuration separately instead of a
/// pooled geomean. Single-configuration benches use one group named "".
using OutcomeGroups =
    std::vector<std::pair<std::string, std::vector<RunOutcome>>>;

/// The harness benches' export: outcomesTable() over every group's
/// outcomes, each with its group's name as config, plus an "overall" key
/// reducing all of them.
BenchExport outcomesExport(const std::string& bench,
                           const OutcomeGroups& groups,
                           const std::map<std::string, std::string>& meta = {});

}  // namespace dagpm::experiments
