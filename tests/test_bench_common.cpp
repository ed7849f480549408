// Coverage for the bench plumbing: environment-driven scale selection
// (DAGPM_QUICK / DAGPM_FULL / DAGPM_SEEDS / DAGPM_SWEEP), and the one
// DAGPM_CSV / DAGPM_JSON_OUT export epilogue (round-trip through
// support/json.cpp), its per-document stats windows, and the study table
// the extension studies export through, with its reducers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench_common.hpp"
#include "experiments/contention.hpp"
#include "experiments/export.hpp"
#include "experiments/faults.hpp"
#include "experiments/resched.hpp"
#include "experiments/robustness.hpp"
#include "obs/obs.hpp"
#include "support/json.hpp"

namespace dagpm {
namespace {

using experiments::RunOutcome;
using workflows::SizeBand;

/// Sets (or clears, when value is nullptr) an environment variable for the
/// lifetime of the object, restoring the previous state afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) {
      hadOld_ = true;
      old_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (hadOld_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool hadOld_ = false;
};

TEST(BenchCommon, QuickEnvSelectsSmokeScale) {
  ScopedEnv quick("DAGPM_QUICK", "1");
  ScopedEnv full("DAGPM_FULL", nullptr);
  const auto env = support::BenchEnv::fromEnvironment();
  EXPECT_EQ(env.scale, support::BenchScale::kQuick);
  EXPECT_EQ(env.smallSizes(), (std::vector<int>{60, 150}));
}

TEST(BenchCommon, FullEnvSelectsPaperScale) {
  ScopedEnv quick("DAGPM_QUICK", nullptr);
  ScopedEnv full("DAGPM_FULL", "1");
  const auto env = support::BenchEnv::fromEnvironment();
  EXPECT_EQ(env.scale, support::BenchScale::kFull);
  EXPECT_EQ(env.bigSizes().back(), 30000);
}

TEST(BenchCommon, DefaultScaleSitsBetweenQuickAndFull) {
  ScopedEnv quick("DAGPM_QUICK", nullptr);
  ScopedEnv full("DAGPM_FULL", nullptr);
  const auto env = support::BenchEnv::fromEnvironment();
  EXPECT_EQ(env.scale, support::BenchScale::kDefault);

  support::BenchEnv quickEnv = env, fullEnv = env;
  quickEnv.scale = support::BenchScale::kQuick;
  fullEnv.scale = support::BenchScale::kFull;
  for (const auto sizes : {&support::BenchEnv::smallSizes,
                           &support::BenchEnv::midSizes,
                           &support::BenchEnv::bigSizes}) {
    EXPECT_LT((quickEnv.*sizes)().back(), (env.*sizes)().back());
    EXPECT_LT((env.*sizes)().back(), (fullEnv.*sizes)().back());
  }
}

TEST(BenchCommon, ContextReadsScaleSeedsAndSweep) {
  ScopedEnv quick("DAGPM_QUICK", "1");
  ScopedEnv full("DAGPM_FULL", nullptr);
  ScopedEnv seeds("DAGPM_SEEDS", "3");
  ScopedEnv sweep("DAGPM_SWEEP", "full");
  bench::BenchContext ctx;
  EXPECT_EQ(ctx.scaleName(), "quick");
  EXPECT_EQ(ctx.env().seeds, 3);
  EXPECT_EQ(ctx.sweepName(), "full");
  EXPECT_EQ(ctx.sweep(), scheduler::KPrimeSweep::kFull);
  EXPECT_EQ(ctx.options().part.sweep, scheduler::KPrimeSweep::kFull);
}

RunOutcome makeOutcome(const std::string& name, SizeBand band,
                       const std::string& family, double part, double mem) {
  RunOutcome out;
  out.instance = name;
  out.band = band;
  out.family = family;
  out.numTasks = 100;
  out.partFeasible = true;
  out.memFeasible = true;
  out.partMakespan = part;
  out.memMakespan = mem;
  out.partSeconds = 0.1;
  out.memSeconds = 0.2;
  return out;
}

TEST(JsonExport, ReduceRoundTripsThroughTheJsonParser) {
  // Seven outcomes: five scheduled by both (makespan ratio 0.5 each), one by
  // DagHetPart alone, one by neither.
  std::vector<RunOutcome> outcomes;
  for (const double part : {2.0, 8.0, 4.0, 4.0, 4.0}) {
    RunOutcome& out = outcomes.emplace_back(
        makeOutcome("x", SizeBand::kSmall, "BLAST", part, 2.0 * part));
    out.partSeconds = 0.75;
    out.memSeconds = 0.5;
  }
  outcomes.push_back(makeOutcome("y", SizeBand::kSmall, "BLAST", 1.0, 1.0));
  outcomes.back().memFeasible = false;
  outcomes.push_back(makeOutcome("z", SizeBand::kSmall, "BLAST", 1.0, 1.0));
  outcomes.back().partFeasible = outcomes.back().memFeasible = false;
  const support::JsonObject numbers =
      experiments::outcomesTable().reduce(experiments::groupOf(outcomes));
  const std::string text = support::JsonValue(numbers).dump();
  const auto parsed = support::parseJson(text);
  ASSERT_TRUE(parsed.has_value()) << text;
  EXPECT_EQ(parsed->numberOr("total", -1), 7);
  EXPECT_EQ(parsed->numberOr("scheduled_both", -1), 5);
  EXPECT_EQ(parsed->numberOr("part_scheduled", -1), 6);
  EXPECT_EQ(parsed->numberOr("mem_scheduled", -1), 5);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_ratio", -1), 0.5);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_part_makespan", -1), 4.0);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_mem_makespan", -1), 8.0);
  EXPECT_DOUBLE_EQ(parsed->numberOr("mean_part_seconds", -1), 0.75);
  EXPECT_DOUBLE_EQ(parsed->numberOr("mean_mem_seconds", -1), 0.5);
  EXPECT_DOUBLE_EQ(parsed->numberOr("geomean_runtime_ratio", -1), 1.5);
}

/// A one-outcome harness export named "fig_test".
experiments::BenchExport singleOutcomeExport() {
  return experiments::outcomesExport(
      "fig_test",
      {{"", {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 40.0,
                         100.0)}}});
}

TEST(JsonExport, DocumentCarriesPerFamilyRowsBandRollupsAndOverall) {
  const std::vector<RunOutcome> outcomes = {
      makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 50.0, 100.0),
      makeOutcome("Montage-n100-s1", SizeBand::kSmall, "Montage", 80.0, 100.0),
      makeOutcome("real-sarek-s1", SizeBand::kReal, "sarek", 90.0, 100.0),
  };
  const support::JsonValue doc = experiments::benchDocument(
      experiments::outcomesExport("fig_test", {{"", outcomes}},
                                  {{"scale", "quick"}}));
  EXPECT_EQ(doc.stringOr("bench", ""), "fig_test");
  const support::JsonValue* meta = doc.find("meta");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->stringOr("scale", ""), "quick");

  const support::JsonValue* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->isArray());
  int familyRows = 0, rollups = 0;
  bool sawBlast = false;
  for (const support::JsonValue& row : rows->asArray()) {
    const std::string family = row.stringOr("family", "");
    if (family == "*") {
      ++rollups;
    } else {
      ++familyRows;
    }
    EXPECT_EQ(row.stringOr("config", "?"), "");  // single-config bench
    if (family == "BLAST") {
      sawBlast = true;
      EXPECT_EQ(row.stringOr("band", ""), "small");
      EXPECT_EQ(row.numberOr("total", -1), 1);
      EXPECT_DOUBLE_EQ(row.numberOr("geomean_ratio", -1), 0.5);
    }
  }
  EXPECT_TRUE(sawBlast);
  EXPECT_EQ(familyRows, 3);  // BLAST, Montage, sarek
  EXPECT_EQ(rollups, 2);     // small, real

  const support::JsonValue* overall = doc.find("overall");
  ASSERT_NE(overall, nullptr);
  EXPECT_EQ(overall->numberOr("total", -1), 3);
  EXPECT_EQ(overall->numberOr("scheduled_both", -1), 3);
}

TEST(JsonExport, MultiConfigBenchesKeepPerConfigRows) {
  // A parameter-sweeping bench exports each configuration separately, so a
  // regression in one configuration is not diluted by a pooled geomean.
  const experiments::OutcomeGroups groups = {
      {"beta1",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 50.0, 100.0)}},
      {"beta5",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 25.0, 100.0)}},
  };
  const support::JsonValue doc = experiments::benchDocument(
      experiments::outcomesExport("fig_test", groups));
  const support::JsonValue* rows = doc.find("rows");
  ASSERT_NE(rows, nullptr);
  double beta1Ratio = -1, beta5Ratio = -1;
  for (const support::JsonValue& row : rows->asArray()) {
    if (row.stringOr("family", "") != "BLAST") continue;
    if (row.stringOr("config", "") == "beta1") {
      beta1Ratio = row.numberOr("geomean_ratio", -1);
    }
    if (row.stringOr("config", "") == "beta5") {
      beta5Ratio = row.numberOr("geomean_ratio", -1);
    }
  }
  EXPECT_DOUBLE_EQ(beta1Ratio, 0.5);
  EXPECT_DOUBLE_EQ(beta5Ratio, 0.25);
  const support::JsonValue* overall = doc.find("overall");
  ASSERT_NE(overall, nullptr);
  EXPECT_EQ(overall->numberOr("total", -1), 2);
}

TEST(JsonExport, BandRollupsAndOverallAreReductionsOfTheirOutcomes) {
  // 2 configurations x 2 bands x 2 families, two outcomes per cell.
  experiments::OutcomeGroups groups;
  for (const std::string config : {"beta1", "beta5"}) {
    std::vector<RunOutcome>& outcomes =
        groups.emplace_back(config, std::vector<RunOutcome>()).second;
    for (const SizeBand band : {SizeBand::kSmall, SizeBand::kMid}) {
      for (const std::string family : {"BLAST", "SoyKB"}) {
        for (const double part : {30.0, 60.0}) {
          const double mem = 100.0 + outcomes.size();
          outcomes.push_back(makeOutcome(family, band, family, part, mem));
        }
      }
    }
    outcomes.back().memFeasible = false;  // one infeasible run per config
  }
  const experiments::BenchExport exported =
      experiments::outcomesExport("fig_test", groups);
  // Per config: 4 (band, family) rows and 2 band rollups.
  ASSERT_EQ(exported.rows.size(), 12u);
  const experiments::StudyTable<RunOutcome> table =
      experiments::outcomesTable();
  int rollups = 0;
  for (const support::JsonValue& row : exported.rows) {
    if (row.stringOr("family", "") != "*") continue;
    ++rollups;
    std::vector<RunOutcome> band;
    for (const auto& [config, outcomes] : groups) {
      if (config != row.stringOr("config", "")) continue;
      for (const RunOutcome& out : outcomes) {
        if (workflows::sizeBandName(out.band) == row.stringOr("band", "")) {
          band.push_back(out);
        }
      }
    }
    ASSERT_EQ(band.size(), 4u);
    support::JsonObject expected = table.reduce(experiments::groupOf(band));
    for (const std::string key : {"config", "band", "family"}) {
      expected[key] = *row.find(key);
    }
    EXPECT_EQ(row.dump(), support::JsonValue(expected).dump());
  }
  EXPECT_EQ(rollups, 4);
  std::vector<RunOutcome> all;
  for (const auto& [config, outcomes] : groups) {
    all.insert(all.end(), outcomes.begin(), outcomes.end());
  }
  EXPECT_EQ(exported.extra.at("overall").dump(),
            support::JsonValue(table.reduce(experiments::groupOf(all))).dump());
}

TEST(CsvExport, ReportsWriteFailuresDistinctFromUnsetEnv) {
  const experiments::BenchExport exported = singleOutcomeExport();
  const std::string path = testing::TempDir() + "/fig_test.csv";
  std::remove(path.c_str());
  ScopedEnv jsonOut("DAGPM_JSON_OUT", nullptr);
  {
    ScopedEnv csv("DAGPM_CSV", nullptr);
    EXPECT_TRUE(experiments::exportBench(exported));
    EXPECT_FALSE(std::ifstream(path).good());
  }
  {
    ScopedEnv csv("DAGPM_CSV", "/nonexistent-dir");
    EXPECT_FALSE(experiments::exportBench(exported));
  }
  ScopedEnv csv("DAGPM_CSV", testing::TempDir().c_str());
  EXPECT_TRUE(experiments::exportBench(exported));
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(std::getline(in, header));
  EXPECT_EQ(header.rfind("config,instance,", 0), 0u) << header;
}

TEST(CsvExport, MultiConfigGroupsKeepTheConfigColumn) {
  const experiments::OutcomeGroups groups = {
      {"beta1",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 50.0, 100.0)}},
      {"beta5",
       {makeOutcome("BLAST-n100-s1", SizeBand::kSmall, "BLAST", 25.0, 100.0)}},
  };
  ScopedEnv jsonOut("DAGPM_JSON_OUT", nullptr);
  ScopedEnv csv("DAGPM_CSV", testing::TempDir().c_str());
  ASSERT_TRUE(experiments::exportBench(
      experiments::outcomesExport("bench_export_groups", groups)));
  std::ifstream in(testing::TempDir() + "/bench_export_groups.csv");
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 3u);  // header + one row per config
  EXPECT_EQ(lines[1].rfind("beta1,", 0), 0u) << lines[1];
  EXPECT_EQ(lines[2].rfind("beta5,", 0), 0u) << lines[2];
}

TEST(JsonExport, WritesParseableFileAndHonorsJsonOutEnv) {
  const experiments::BenchExport exported = singleOutcomeExport();
  // DAGPM_JSON_OUT names a directory; the document lands in <bench>.json.
  const std::string path = testing::TempDir() + "/fig_test.json";
  std::remove(path.c_str());
  ScopedEnv csv("DAGPM_CSV", nullptr);
  {
    ScopedEnv jsonOut("DAGPM_JSON_OUT", nullptr);
    EXPECT_TRUE(experiments::exportBench(exported));
    EXPECT_FALSE(std::ifstream(path).good());
  }
  {
    ScopedEnv jsonOut("DAGPM_JSON_OUT", testing::TempDir().c_str());
    EXPECT_TRUE(experiments::exportBench(exported));
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = support::parseJson(buffer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->stringOr("bench", ""), "fig_test");
  EXPECT_EQ(parsed->numberOr("schema_version", -1), 1);

  // A missing directory reports the error instead of dying silently.
  ScopedEnv jsonOut("DAGPM_JSON_OUT", "/nonexistent-dir");
  EXPECT_FALSE(experiments::exportBench(exported));
}

TEST(JsonExport, StatsWindowHoldsOnlyTheWorkSinceItOpened) {
  const bool countersWere = obs::countersEnabled();
  obs::enableCounters(true);
  obs::add(obs::Counter::kSimTransfers, 5);
  { const obs::Span span("test.before_window"); }
  experiments::beginStatsWindow();
  obs::add(obs::Counter::kSimTransfers, 2);
  { const obs::Span span("test.in_window"); }
  const support::JsonValue doc =
      experiments::benchDocument(singleOutcomeExport());
  obs::enableCounters(countersWere);
  const support::JsonValue* stats = doc.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->numberOr("sim.transfers", -1), 2);
  EXPECT_EQ(stats->numberOr("span.test.in_window_calls", -1), 1);
  EXPECT_EQ(stats->find("span.test.before_window_calls"), nullptr);
}

TEST(JsonExport, ModuleExportsShareTheHarnessDocumentShape) {
  // Every bench document has the same top-level keys; the harness adds only
  // its "overall" aggregate on top.
  const auto keysOf = [](const experiments::BenchExport& exported) {
    const support::JsonValue doc = experiments::benchDocument(exported);
    std::vector<std::string> keys;
    for (const auto& [key, value] : doc.asObject()) keys.push_back(key);
    return keys;
  };
  std::vector<std::string> harnessKeys = keysOf(singleOutcomeExport());
  harnessKeys.erase(
      std::find(harnessKeys.begin(), harnessKeys.end(), "overall"));
  EXPECT_EQ(harnessKeys, (std::vector<std::string>{"bench", "meta", "rows",
                                                   "schema_version", "stats"}));

  experiments::ContentionOutcome contention;
  contention.config = "ccr1";
  experiments::FaultOutcome fault;
  fault.config = "nofault";
  fault.scheduler = "part";
  fault.ok = true;
  experiments::ReschedOutcome resched;
  resched.config = "deterministic";
  resched.policy = "none";
  resched.scheduler = "part";
  resched.ok = true;
  experiments::RobustnessOutcome robustness;
  robustness.config = "sigma0";
  robustness.scheduler = "mem";
  // Each study export and its JSON row count for one outcome: contention
  // adds an "all" band to the outcome's own.
  const std::vector<std::pair<experiments::BenchExport, std::size_t>> studies =
      {
          {experiments::contentionExport("contention_test", {contention}), 2},
          {experiments::faultRecoveryExport("fault_test", {fault}), 1},
          {experiments::reschedulingExport("resched_test", {resched}), 1},
          {experiments::robustnessExport("robustness_test", {robustness}), 1},
      };
  for (const auto& [exported, rows] : studies) {
    SCOPED_TRACE(exported.bench);
    EXPECT_EQ(exported.rows.size(), rows);
    ASSERT_EQ(exported.csvRows.size(), 1u);
    EXPECT_EQ(exported.csvRows[0].size(), exported.csvHeader.size());
    EXPECT_EQ(keysOf(exported), harnessKeys);
  }
}

/// A toy study outcome for the reducer tests.
struct Sample {
  bool ok = true;
  double value = 0.0;
  int part = 0;
  int whole = 0;
};

const auto kOk = [](const Sample& s) { return s.ok; };

TEST(StudyReducers, EmptyGroupReducesToZero) {
  using namespace experiments;
  const std::vector<const Sample*> empty;
  EXPECT_EQ(countOf(kOk)(empty), 0.0);
  EXPECT_EQ(sumOf(&Sample::value, kOk)(empty), 0.0);
  EXPECT_EQ(geomeanOf(&Sample::value, kOk)(empty), 0.0);
  EXPECT_EQ(meanOf(&Sample::value, kOk)(empty), 0.0);
  EXPECT_EQ(largestOf(&Sample::value, kOk)(empty), 0.0);
  const auto fraction =
      ratioOf(sumOf(&Sample::part, kOk), sumOf(&Sample::whole, kOk));
  EXPECT_EQ(fraction(empty), 0.0);
}

TEST(StudyReducers, GeomeanSkipsValuesFailingItsFilter) {
  using namespace experiments;
  // The skipped zeros would zero (or, with asserts on, abort) a geomean.
  const std::vector<Sample> samples = {{.value = 2.0},
                                       {.ok = false, .value = 0.0},
                                       {.value = 8.0},
                                       {.ok = false, .value = 1000.0},
                                       {.value = 0.0}};
  const std::vector<const Sample*> group = groupOf(samples);
  EXPECT_DOUBLE_EQ(geomeanOf(&Sample::value, kOk)(group), 4.0);
  EXPECT_EQ(countOf(kOk)(group), 3.0);
  EXPECT_EQ(countOf(kAll)(group), 5.0);
  EXPECT_EQ(sumOf(&Sample::value, kOk)(group), 10.0);
  EXPECT_EQ(meanOf(&Sample::value, kOk)(group), 10.0 / 3.0);
  EXPECT_EQ(largestOf(&Sample::value, kOk)(group), 8.0);
}

TEST(StudyReducers, RatioIsZeroUnlessItsDenominatorIsPositive) {
  using namespace experiments;
  const auto fraction = [](std::vector<Sample> samples) {
    return ratioOf(sumOf(&Sample::part, kOk),
                   sumOf(&Sample::whole, kOk))(groupOf(samples));
  };
  EXPECT_EQ(fraction({{.part = 1, .whole = 2}, {.part = 0, .whole = 2}}), 0.25);
  EXPECT_EQ(fraction({{.part = 1, .whole = 0}}), 0.0);
  // Filtered outcomes count in neither the numerator nor the denominator.
  EXPECT_EQ(fraction({{.part = 1, .whole = 4}, {.ok = false, .part = 4}}),
            0.25);
}

TEST(StudyExport, OneDeclarationFeedsTheCsvAndTheJsonRows) {
  using namespace experiments;
  const std::vector<Sample> samples = {{.value = 1.5, .part = 1},
                                       {.ok = false, .value = 2.0}};
  // Every outcome sits in its own group and in the "all" group.
  experiments::StudyTable<Sample> table({"band"}, [](const Sample& s) {
    return std::vector<experiments::GroupKey>{{s.ok ? "ok" : "failed"},
                                              {"all"}};
  });
  table.csv("ok", &Sample::ok);
  table.csv("value", &Sample::value);
  table.csv("part", &Sample::part);
  table.csv("label", [](const Sample&) { return std::string("x"); });
  table.json("n", countOf(kAll));
  table.json("total", sumOf(&Sample::value, kAll));
  const experiments::BenchExport exported =
      table.exportRows("study_test", samples, {});
  EXPECT_EQ(exported.csvHeader,
            (std::vector<std::string>{"ok", "value", "part", "label"}));
  EXPECT_EQ(exported.csvRows,
            (std::vector<std::vector<std::string>>{{"1", "1.5", "1", "x"},
                                                   {"0", "2", "0", "x"}}));
  // One JSON row per group key, in sorted key order.
  ASSERT_EQ(exported.rows.size(), 3u);
  const std::vector<std::pair<std::string, double>> expected = {
      {"all", 3.5}, {"failed", 2.0}, {"ok", 1.5}};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(exported.rows[i].stringOr("band", ""), expected[i].first);
    EXPECT_EQ(exported.rows[i].numberOr("total", -1.0), expected[i].second);
  }
  EXPECT_EQ(exported.rows[0].numberOr("n", -1.0), 2.0);
}

}  // namespace
}  // namespace dagpm
