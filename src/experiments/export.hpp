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
// Every bench fills one BenchExport (its row builders live next to its
// outcomes: outcomesExport below, robustnessExport, contentionExport, ...)
// and hands it to exportBench, which writes both files. Every document has
// the same top-level shape: {schema_version, bench, meta, rows, stats} plus
// the bench's extra keys.

#include <map>
#include <string>
#include <vector>

#include "experiments/harness.hpp"
#include "support/json.hpp"

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

/// A Monte-Carlo CSV row: the OutcomeKey's cells (config, scheduler,
/// instance, band, family, tasks), then `cells`.
std::vector<std::string> keyRow(const OutcomeKey& key,
                                const std::vector<std::string>& cells);

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

/// Benches that sweep a parameter (cluster size, heterogeneity, bandwidth,
/// ablation variant, ...) export one named group per configuration so the
/// perf trajectory can regress each configuration separately instead of a
/// pooled geomean. Single-configuration benches use one group named "".
using OutcomeGroups =
    std::vector<std::pair<std::string, std::vector<RunOutcome>>>;

/// One Aggregate as a JSON object (all fields, snake_case keys).
support::JsonValue aggregateToJson(const Aggregate& agg);

/// The harness benches' export: one CSV row per outcome (config, instance,
/// band, family, tasks, feasibility, makespans, ratio, runtimes; the config
/// column is empty for single-configuration benches), one JSON row per
/// (config, band, family) group and per (config, band), and an "overall"
/// key aggregating every outcome.
BenchExport outcomesExport(const std::string& bench,
                           const OutcomeGroups& groups,
                           const std::map<std::string, std::string>& meta = {});

}  // namespace dagpm::experiments
