// Unit tests for the observability layer: span nesting and rollback,
// deterministic counter merging across OpenMP thread counts, Chrome-trace
// JSON validity, and the disabled path emitting nothing.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "memory/oracle.hpp"
#include "obs/obs.hpp"
#include "obs/schedule_trace.hpp"
#include "platform/cluster.hpp"
#include "scheduler/daghetpart.hpp"
#include "sim/engine.hpp"
#include "support/json.hpp"
#include "test_util.hpp"
#include "workflows/families.hpp"

namespace dagpm {
namespace {

/// Every test leaves the process-global obs flags the way it found them
/// (off unless DAGPM_TRACE / DAGPM_STATS enabled them at startup).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    countersWere_ = obs::countersEnabled();
    tracingWas_ = obs::tracingEnabled();
  }
  void TearDown() override {
    obs::enableCounters(countersWere_);
    obs::enableTracing(tracingWas_);
    obs::resetForTest();
  }

 private:
  bool countersWere_ = false;
  bool tracingWas_ = false;
};

TEST_F(ObsTest, SpanNestingTracksDepthAndRollsBack) {
  obs::resetForTest();
  const int base = obs::currentSpanDepth();
  {
    const obs::Span outer("test.outer");
    EXPECT_EQ(outer.depth(), base + 1);
    EXPECT_EQ(obs::currentSpanDepth(), base + 1);
    {
      const obs::Span inner("test.inner", "detail");
      EXPECT_EQ(inner.depth(), base + 2);
      EXPECT_EQ(obs::currentSpanDepth(), base + 2);
    }
    EXPECT_EQ(obs::currentSpanDepth(), base + 1);
    // The explicit-parent form used inside OpenMP regions: the logical
    // parent wins over whatever the thread-local depth happens to be.
    {
      const obs::Span arm("test.arm", "", outer.depth());
      EXPECT_EQ(arm.depth(), outer.depth() + 1);
    }
    EXPECT_EQ(obs::currentSpanDepth(), base + 1);
  }
  EXPECT_EQ(obs::currentSpanDepth(), base);
  EXPECT_GE(obs::Span("test.timer").seconds(), 0.0);
}

TEST_F(ObsTest, SpanAggregatesAccumulateCallsAndSeconds) {
  obs::resetForTest();
  for (int i = 0; i < 3; ++i) {
    const obs::Span span("test.agg_span");
  }
  bool found = false;
  for (const obs::SpanAggregate& agg : obs::spanAggregates()) {
    if (agg.name == "test.agg_span") {
      found = true;
      EXPECT_EQ(agg.calls, 3u);
      EXPECT_GE(agg.seconds, 0.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, CountersMergeAcrossThreads) {
  obs::enableCounters(true);
  obs::resetForTest();
#pragma omp parallel for num_threads(3)
  for (int i = 0; i < 300; ++i) {
    obs::add(obs::Counter::kMergeProbes);
  }
  for (const obs::CounterValue& c : obs::counterSnapshot()) {
    if (std::string(c.name) == "merge.probes") {
      EXPECT_EQ(c.value, 300u);
    }
  }
}

/// The headline determinism guarantee: the whole DagHetPart pipeline (with
/// the parallel k' sweep and the parallel Step-4 scan) produces a
/// bit-identical DAGPM_STATS table at any OMP_NUM_THREADS.
TEST_F(ObsTest, StatsTextIdenticalAcrossOmpThreadCounts) {
  workflows::GenConfig gen;
  gen.numTasks = 150;
  gen.seed = 3;
  const graph::Dag g = workflows::generate(workflows::Family::kMontage, gen);
  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());

  scheduler::DagHetPartConfig cfg;
  cfg.sweep = scheduler::KPrimeSweep::kFull;

  obs::enableCounters(true);
  const auto run = [&] {
    obs::resetForTest();
    EXPECT_TRUE(scheduler::dagHetPart(g, cluster, cfg).feasible);
    return obs::statsText();
  };
  const std::string one = test::withOmpThreads(1, run);
  const std::string three = test::withOmpThreads(3, run);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, three);
  // The table actually counted the pipeline (not all zeros).
  EXPECT_NE(one.find("sweep.arms"), std::string::npos);
  EXPECT_EQ(one.find("sweep.arms 0\n"), std::string::npos);
}

TEST_F(ObsTest, TraceJsonIsValidAndTimeOrdered) {
  obs::enableTracing(true);
  obs::resetForTest();
  {
    const obs::Span outer("test.trace_outer");
    const obs::Span inner("test.trace_inner", "k=2");
  }
  const int pid = obs::reserveTimelinePid();
  EXPECT_GE(pid, 100);
  obs::declareTrack(pid, 0, "test schedule", "proc 0");
  obs::addTimelineEvent(pid, 0, "t0", 0.0, 5.0);
  obs::addTimelineEvent(pid, 0, "t1", 5.0, 2.5);

  const std::string json = obs::traceJson();
  const auto doc = support::parseJson(json);
  ASSERT_TRUE(doc.has_value()) << json;
  const support::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->isArray());

  int xEvents = 0;
  bool sawProcessMeta = false;
  double lastTs = 0.0;
  for (const support::JsonValue& e : events->asArray()) {
    ASSERT_TRUE(e.isObject());
    const std::string ph = e.stringOr("ph", "");
    if (ph == "M") {
      if (e.stringOr("name", "") == "process_name") sawProcessMeta = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    ++xEvents;
    const double ts = e.numberOr("ts", -1.0);
    const double dur = e.numberOr("dur", -1.0);
    EXPECT_GE(ts, lastTs) << "events must be time-ordered";
    EXPECT_GE(dur, 0.0) << "durations must be non-negative";
    lastTs = ts;
  }
  EXPECT_EQ(xEvents, 4);  // two spans + two timeline slices
  EXPECT_TRUE(sawProcessMeta);
}

TEST_F(ObsTest, ScheduleTimelineLandsInTrace) {
  obs::enableTracing(true);
  obs::resetForTest();

  workflows::GenConfig gen;
  gen.numTasks = 60;
  gen.seed = 5;
  const graph::Dag g = workflows::generate(workflows::Family::kMontage, gen);
  platform::Cluster cluster = platform::makeCluster(
      platform::Heterogeneity::kDefault, platform::ClusterSize::kDefault);
  cluster.scaleMemoriesToFit(g.maxTaskMemoryRequirement());
  const scheduler::ScheduleResult schedule =
      scheduler::scheduleBest(g, cluster);
  ASSERT_TRUE(schedule.feasible);

  const memory::MemDagOracle oracle(g);
  sim::SimOptions opts;
  opts.recordTransfers = true;
  const sim::SimResult run =
      sim::simulateSchedule(g, cluster, schedule, oracle, opts);
  ASSERT_TRUE(run.ok);
  const int pid = obs::recordScheduleTimeline(run, g, cluster, "test run");
  EXPECT_GE(pid, 100);

  const auto doc = support::parseJson(obs::traceJson());
  ASSERT_TRUE(doc.has_value());
  int taskSlices = 0;
  for (const support::JsonValue& e : doc->find("traceEvents")->asArray()) {
    if (e.stringOr("ph", "") == "X" &&
        e.numberOr("pid", 0.0) == static_cast<double>(pid)) {
      ++taskSlices;
    }
  }
  // Every executed task gets a slice; transfers add more on link lanes.
  EXPECT_GE(taskSlices, static_cast<int>(g.numVertices()));
}

TEST_F(ObsTest, DisabledPathEmitsNothing) {
  obs::enableCounters(false);
  obs::enableTracing(false);
  obs::resetForTest();
  obs::add(obs::Counter::kMergeProbes, 41);
  obs::noteMax(obs::Counter::kSpanPeakDepth, 9);
  {
    const obs::Span span("test.disabled");
  }
  for (const obs::CounterValue& c : obs::counterSnapshot()) {
    EXPECT_EQ(c.value, 0u) << c.name;
  }
  const auto doc = support::parseJson(obs::traceJson());
  ASSERT_TRUE(doc.has_value());
  for (const support::JsonValue& e : doc->find("traceEvents")->asArray()) {
    EXPECT_NE(e.stringOr("ph", ""), "X") << "no X events when disabled";
  }
}

TEST_F(ObsTest, StatsTextIsSortedAndComplete) {
  obs::enableCounters(true);
  obs::resetForTest();
  const std::string text = obs::statsText();
  std::vector<std::string> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  EXPECT_EQ(lines.size(), obs::kNumCounters);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_LT(lines[i - 1], lines[i]) << "stats lines must be name-sorted";
  }
}

}  // namespace
}  // namespace dagpm
