// Tests for the instrumentation layer: registry semantics (bucket edges,
// merge order, reset, kind pinning), the enabled() gate, concurrent
// recording (exercised under TSan in CI), and the trace collector's Chrome
// JSON export.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mmw::obs {
namespace {

/// Every test runs with instrumentation on and restores the previous state
/// (the suite default is off, matching the library default).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
  }
  void TearDown() override { set_enabled(was_enabled_); }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTest, LinearAndExponentialBucketConstruction) {
  const auto lin = HistogramBuckets::linear(1.0, 1.0, 4);
  EXPECT_EQ(lin.upper_bounds, (std::vector<real>{1.0, 2.0, 3.0, 4.0}));
  const auto exp = HistogramBuckets::exponential(1.0, 2.0, 4);
  EXPECT_EQ(exp.upper_bounds, (std::vector<real>{1.0, 2.0, 4.0, 8.0}));
  EXPECT_THROW(HistogramBuckets::linear(0.0, 0.0, 3), precondition_error);
  EXPECT_THROW(HistogramBuckets::exponential(1.0, 1.0, 3),
               precondition_error);
}

TEST_F(ObsTest, HistogramBucketEdgesAreLessOrEqual) {
  Registry reg;
  Histogram h = reg.histogram("edges", HistogramBuckets{{1.0, 2.0, 4.0}});
  // Prometheus "le" semantics: a sample on the boundary lands in that
  // bucket, not the next one.
  h.record(0.5);  // bucket 0
  h.record(1.0);  // bucket 0 (boundary)
  h.record(1.5);  // bucket 1
  h.record(2.0);  // bucket 1 (boundary)
  h.record(4.0);  // bucket 2 (boundary)
  h.record(4.1);  // overflow
  h.record(-3.0);  // bucket 0 (below range still counts as <= 1)
  const auto snap = reg.snapshot().histograms.at("edges");
  EXPECT_EQ(snap.counts, (std::vector<std::uint64_t>{3, 2, 1, 1}));
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.5 + 2.0 + 4.0 + 4.1 - 3.0);
}

TEST_F(ObsTest, DisabledRecordingIsANoOp) {
  Registry reg;
  Counter c = reg.counter("c");
  Gauge g = reg.gauge("g");
  Histogram h = reg.histogram("h", HistogramBuckets::linear(1.0, 1.0, 2));
  set_enabled(false);
  c.add(5);
  g.set(3.0);
  h.record(1.0);
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c").value, 0u);
  EXPECT_EQ(snap.gauges.at("g").count, 0u);
  EXPECT_EQ(snap.histograms.at("h").count, 0u);
  set_enabled(true);
  c.add(2);
  EXPECT_EQ(reg.snapshot().counters.at("c").value, 2u);
}

TEST_F(ObsTest, DefaultConstructedHandlesAreInert) {
  Counter c;
  Gauge g;
  Histogram h;
  EXPECT_NO_THROW(c.add());
  EXPECT_NO_THROW(g.set(1.0));
  EXPECT_NO_THROW(h.record(1.0));
}

TEST_F(ObsTest, GaugeTracksAggregatesAndLast) {
  Registry reg;
  Gauge g = reg.gauge("loss");
  g.set(3.0);
  g.set(1.0);
  g.set(2.0);
  const auto snap = reg.snapshot().gauges.at("loss");
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.last, 2.0);
  EXPECT_DOUBLE_EQ(snap.minimum, 1.0);
  EXPECT_DOUBLE_EQ(snap.maximum, 3.0);
  EXPECT_DOUBLE_EQ(snap.sum, 6.0);
}

TEST_F(ObsTest, NameKeepsItsKind) {
  Registry reg;
  (void)reg.counter("metric");
  EXPECT_THROW((void)reg.gauge("metric"), precondition_error);
  EXPECT_THROW(
      (void)reg.histogram("metric", HistogramBuckets::linear(1.0, 1.0, 2)),
      precondition_error);
  // Same kind re-registration returns a working handle for the same cell.
  Counter a = reg.counter("metric");
  Counter b = reg.counter("metric");
  a.add();
  b.add();
  EXPECT_EQ(reg.snapshot().counters.at("metric").value, 2u);
}

TEST_F(ObsTest, HistogramBucketsFixedAtFirstRegistration) {
  Registry reg;
  Histogram first =
      reg.histogram("h", HistogramBuckets{{1.0, 2.0}});
  Histogram second =
      reg.histogram("h", HistogramBuckets{{10.0, 20.0, 30.0}});
  first.record(1.5);
  second.record(1.5);  // must use the {1, 2} layout, not {10, 20, 30}
  const auto snap = reg.snapshot().histograms.at("h");
  EXPECT_EQ(snap.upper_bounds, (std::vector<real>{1.0, 2.0}));
  EXPECT_EQ(snap.counts, (std::vector<std::uint64_t>{0, 2, 0}));
}

TEST_F(ObsTest, CountsMergeAcrossThreads) {
  Registry reg;
  Counter c = reg.counter("work");
  Histogram h = reg.histogram("sizes", HistogramBuckets::linear(1.0, 1.0, 4));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      set_thread_ordinal(static_cast<std::uint64_t>(t + 1));
      for (int i = 0; i < 250; ++i) {
        c.add();
        h.record(static_cast<real>(t + 1));
      }
    });
  }
  for (auto& th : threads) th.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("work").value, 1000u);
  EXPECT_EQ(snap.histograms.at("sizes").count, 1000u);
  EXPECT_EQ(snap.histograms.at("sizes").counts,
            (std::vector<std::uint64_t>{250, 250, 250, 250, 0}));
}

TEST_F(ObsTest, GaugeLastResolvesByShardOrderNotUpdateOrder) {
  Registry reg;
  Gauge g = reg.gauge("last");
  // The merged `last` is last-write-wins over the DETERMINISTIC (ordinal,
  // sequence) shard order, NOT wall-clock update order: the ordinal-1
  // worker's value wins even though the main thread (ordinal 0) set the
  // gauge after it — re-running with any interleaving gives the same
  // answer, which is the PR-4 "gauge caveat" resolved.
  std::thread worker([&] {
    set_thread_ordinal(1);
    g.set(10.0);
  });
  worker.join();
  g.set(42.0);
  const auto snap = reg.snapshot();
  EXPECT_DOUBLE_EQ(snap.gauges.at("last").last, 10.0);
  // Order-independent aggregates still see both writes.
  EXPECT_EQ(snap.gauges.at("last").count, 2u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("last").minimum, 10.0);
  EXPECT_DOUBLE_EQ(snap.gauges.at("last").maximum, 42.0);
}

TEST_F(ObsTest, GaugeLastWithinOneThreadIsProgramOrder) {
  Registry reg;
  Gauge g = reg.gauge("seq");
  g.set(1.0);
  g.set(7.0);
  g.set(3.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("seq").last, 3.0);
}

TEST_F(ObsTest, GaugeLastSkipsShardsThatNeverSetIt) {
  Registry reg;
  Gauge g = reg.gauge("sparse");
  Counter c = reg.counter("touch");
  // The ordinal-2 thread registers a shard (via the counter) but never
  // sets the gauge; the ordinal-1 thread's value must still win over the
  // main thread's, and the empty higher-ordered shard must not zero it.
  std::thread t1([&] {
    set_thread_ordinal(1);
    g.set(5.0);
  });
  t1.join();
  std::thread t2([&] {
    set_thread_ordinal(2);
    c.add();
  });
  t2.join();
  g.set(9.0);
  EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("sparse").last, 5.0);
}

TEST_F(ObsTest, ConcurrentRecordingWithSnapshots) {
  // Recorders on several threads race snapshot() and reset() on the main
  // thread; run under TSan in CI. Totals are checked only for the final
  // (post-join) snapshot.
  Registry reg;
  Counter c = reg.counter("hot");
  Gauge g = reg.gauge("g");
  Histogram h = reg.histogram("h", HistogramBuckets::exponential(1.0, 2.0, 8));
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      set_thread_ordinal(static_cast<std::uint64_t>(t + 1));
      for (int i = 0; i < 2000; ++i) {
        c.add();
        g.set(static_cast<real>(i));
        h.record(static_cast<real>(i % 37));
      }
    });
  }
  for (int k = 0; k < 50; ++k) (void)reg.snapshot();
  for (auto& th : threads) th.join();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("hot").value, 8000u);
  EXPECT_EQ(snap.gauges.at("g").count, 8000u);
  EXPECT_EQ(snap.histograms.at("h").count, 8000u);
}

TEST_F(ObsTest, ResetZeroesValuesButKeepsDefinitions) {
  Registry reg;
  Counter c = reg.counter("c");
  Gauge g = reg.gauge("g");
  c.add(7);
  g.set(1.0);
  reg.reset();
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.counters.at("c").value, 0u);
  EXPECT_EQ(snap.gauges.at("g").count, 0u);
  c.add();  // handles stay valid after reset
  EXPECT_EQ(reg.snapshot().counters.at("c").value, 1u);
}

TEST_F(ObsTest, SnapshotListsNeverFiredMetrics) {
  Registry reg;
  (void)reg.counter("silent");
  (void)reg.histogram("empty", HistogramBuckets::linear(1.0, 1.0, 3));
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.contains("silent"));
  ASSERT_TRUE(snap.histograms.contains("empty"));
  EXPECT_EQ(snap.histograms.at("empty").counts.size(), 4u);
}

TEST_F(ObsTest, SnapshotJsonIsStable) {
  Registry reg;
  reg.counter("b.count").add(3);
  reg.gauge("a.gauge").set(1.5);
  reg.histogram("c.hist", HistogramBuckets{{1.0, 2.0}}).record(1.0);
  const std::string json = reg.snapshot().to_json();
  EXPECT_EQ(json, reg.snapshot().to_json());  // deterministic rendering
  EXPECT_NE(json.find("\"b.count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"upper_bounds\":[1,2]"), std::string::npos);
  EXPECT_NE(json.find("\"counts\":[1,0,0]"), std::string::npos);
}

// ------------------------------------------------------------- tracing ----

/// Restores capture state and clears events; tracing tests share the global
/// collector (TraceScope is hard-wired to it).
class TraceTest : public ObsTest {
 protected:
  void SetUp() override {
    ObsTest::SetUp();
    TraceCollector::global().clear();
    TraceCollector::global().set_capturing(true);
  }
  void TearDown() override {
    TraceCollector::global().set_capturing(false);
    TraceCollector::global().clear();
    ObsTest::TearDown();
  }
};

TEST_F(TraceTest, ScopeRecordsCompleteEventWithArgs) {
  {
    TraceScope scope("unit.test.span", "test");
    scope.arg("k", 3.0);
    EXPECT_TRUE(scope.active());
  }
  EXPECT_EQ(TraceCollector::global().event_count(), 1u);
  const std::string json = TraceCollector::global().chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"unit.test.span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":3"), std::string::npos);
}

TEST_F(TraceTest, MacroAndCounter) {
  {
    MMW_TRACE_SCOPE("unit.macro.span");
    TraceCollector::global().counter("unit.counter", 7.5);
  }
  EXPECT_EQ(TraceCollector::global().event_count(), 2u);
  const std::string json = TraceCollector::global().chrome_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":7.5"), std::string::npos);
}

TEST_F(TraceTest, InactiveWithoutCaptureOptIn) {
  TraceCollector::global().set_capturing(false);
  {
    TraceScope scope("should.not.record");
    EXPECT_FALSE(scope.active());
  }
  EXPECT_EQ(TraceCollector::global().event_count(), 0u);
}

TEST_F(TraceTest, InactiveWhenObsDisabled) {
  set_enabled(false);
  {
    MMW_TRACE_SCOPE("should.not.record");
    TraceCollector::global().counter("nope", 1.0);
  }
  EXPECT_EQ(TraceCollector::global().event_count(), 0u);
}

TEST_F(TraceTest, ClearDropsEvents) {
  { MMW_TRACE_SCOPE("x"); }
  EXPECT_GT(TraceCollector::global().event_count(), 0u);
  TraceCollector::global().clear();
  EXPECT_EQ(TraceCollector::global().event_count(), 0u);
}

}  // namespace
}  // namespace mmw::obs
