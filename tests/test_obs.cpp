// Observability layer: metric registry exactness under contention, trace
// span nesting/ordering, the disabled-mode zero-footprint guarantee, and
// the exact RunReport JSON bytes (the schema CI validates).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace {

using namespace dpoaf;

// Every test toggles the process-wide switch; restore it on exit so test
// order never matters.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { was_enabled_ = obs::enabled(); }
  void TearDown() override {
    obs::clear_trace();
    obs::set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

TEST_F(ObsTest, CounterExactUnderConcurrentAdds) {
  obs::set_enabled(true);
  obs::Counter& c = obs::counter("test.obs.concurrent_counter");
  c.reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.add();
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kAddsPerThread);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  obs::Counter& a = obs::counter("test.obs.stable");
  obs::Counter& b = obs::counter("test.obs.stable");
  EXPECT_EQ(&a, &b);
  // Distinct kinds under one name are distinct metrics.
  obs::Gauge& g = obs::gauge("test.obs.stable");
  EXPECT_NE(static_cast<void*>(&a), static_cast<void*>(&g));
}

TEST_F(ObsTest, RegistryLookupSafeUnderConcurrentRegistration) {
  obs::set_enabled(true);
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  std::atomic<int> ready{0};
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&ready] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      // All threads race to create the same and different names.
      for (int i = 0; i < 200; ++i) {
        obs::counter("test.obs.race.shared").add();
        obs::counter("test.obs.race." + std::to_string(i % 16)).add();
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::counter("test.obs.race.shared").value(), kThreads * 200u);
}

TEST_F(ObsTest, GaugeRecordMaxKeepsHighWaterMark) {
  obs::set_enabled(true);
  obs::Gauge& g = obs::gauge("test.obs.gauge_max");
  g.reset();
  g.record_max(5);
  g.record_max(3);
  EXPECT_EQ(g.value(), 5);
  g.record_max(9);
  EXPECT_EQ(g.value(), 9);
  g.set(2);
  EXPECT_EQ(g.value(), 2);
}

TEST_F(ObsTest, HistogramBucketsByBitWidth) {
  obs::set_enabled(true);
  obs::Histogram& h = obs::histogram("test.obs.hist");
  h.reset();
  h.record(0);    // bucket 0
  h.record(1);    // bit_width 1
  h.record(37);   // bit_width 6
  h.record(37);
  h.record(1023);  // bit_width 10
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.sum, 0u + 1 + 37 + 37 + 1023);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 1023u);
  EXPECT_EQ(s.buckets[0], 1u);
  EXPECT_EQ(s.buckets[1], 1u);
  EXPECT_EQ(s.buckets[6], 2u);
  EXPECT_EQ(s.buckets[10], 1u);
}

TEST_F(ObsTest, DisabledRecordingIsANoOp) {
  obs::set_enabled(false);
  obs::Counter& c = obs::counter("test.obs.disabled_counter");
  c.reset();
  c.add(100);
  EXPECT_EQ(c.value(), 0u);
  obs::Gauge& g = obs::gauge("test.obs.disabled_gauge");
  g.reset();
  g.set(7);
  g.record_max(9);
  EXPECT_EQ(g.value(), 0);
  obs::Histogram& h = obs::histogram("test.obs.disabled_hist");
  h.reset();
  h.record(42);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST_F(ObsTest, DisabledSpansLeaveNoTraceFootprint) {
  obs::set_enabled(false);
  obs::clear_trace();
  const std::size_t threads_before = obs::registered_trace_threads();
  const std::size_t events_before = obs::trace_event_count();
  // A fresh thread constructing only disarmed spans must not register a
  // buffer (the zero-allocation guarantee: no clock, no buffer, no lock).
  std::thread t([] {
    for (int i = 0; i < 100; ++i) {
      obs::Span span("disabled.span");
      EXPECT_FALSE(span.armed());
    }
  });
  t.join();
  EXPECT_EQ(obs::registered_trace_threads(), threads_before);
  EXPECT_EQ(obs::trace_event_count(), events_before);
}

TEST_F(ObsTest, SpanNestingRecordsDepthAndContainment) {
  obs::set_enabled(true);
  obs::clear_trace();
  {
    obs::Span outer("outer");
    ASSERT_TRUE(outer.armed());
    {
      obs::Span inner("inner");
      ASSERT_TRUE(inner.armed());
    }
    obs::Span sibling("sibling");
  }
  const std::vector<obs::TraceEvent> events = obs::drain_trace();
  ASSERT_EQ(events.size(), 3u);
  // Sorted by start time: outer first, then its children in order.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "sibling");
  EXPECT_EQ(events[2].depth, 1u);
  // Containment: children start no earlier and end no later than outer.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[0].start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns,
              events[0].start_ns + events[0].dur_ns);
  }
  // One thread produced everything.
  EXPECT_EQ(events[1].tid, events[0].tid);
  EXPECT_EQ(events[2].tid, events[0].tid);
}

TEST_F(ObsTest, TraceMergesEventsFromExitedThreads) {
  obs::set_enabled(true);
  obs::clear_trace();
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([] {
      obs::Span span("worker.span");
    });
  for (auto& t : threads) t.join();
  // The threads are gone; their buffers were adopted by the collector.
  const auto events = obs::drain_trace();
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads));
  for (const auto& e : events) EXPECT_EQ(e.name, "worker.span");
  // Sorted by start time.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
}

TEST_F(ObsTest, SpanWithHistogramRecordsDuration) {
  obs::set_enabled(true);
  obs::clear_trace();
  obs::Histogram& h = obs::histogram("test.obs.span_hist");
  h.reset();
  {
    obs::Span span("timed", h);
  }
  EXPECT_EQ(h.snapshot().count, 1u);
  EXPECT_EQ(obs::drain_trace().size(), 1u);
}

TEST_F(ObsTest, AggregatePhasesSumsByName) {
  std::vector<obs::TraceEvent> events;
  events.push_back({"b", 0, 0, 0, 10});
  events.push_back({"a", 0, 0, 5, 7});
  events.push_back({"b", 1, 0, 6, 20});
  const auto phases = obs::aggregate_phases(events);
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "a");
  EXPECT_EQ(phases[0].spans, 1u);
  EXPECT_EQ(phases[0].total_ns, 7u);
  EXPECT_EQ(phases[1].name, "b");
  EXPECT_EQ(phases[1].spans, 2u);
  EXPECT_EQ(phases[1].total_ns, 30u);
}

TEST_F(ObsTest, SnapshotIsSortedByName) {
  obs::set_enabled(true);
  obs::counter("test.obs.sort.zz").add();
  obs::counter("test.obs.sort.aa").add();
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().snapshot();
  for (std::size_t i = 1; i < snap.counters.size(); ++i)
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  for (std::size_t i = 1; i < snap.histograms.size(); ++i)
    EXPECT_LT(snap.histograms[i - 1].name, snap.histograms[i].name);
}

// ---------------------------------------------------------------------------
// RunReport serialization

obs::RunReport escape_heavy_report() {
  obs::RunReport report;
  // "\x01" "control" stays two literals: a hex escape is greedy, and
  // "\x01control" would read as the single byte 0x1c followed by "ontrol".
  report.tool = "test \"tool\"\\with\nescapes\tand\x01" "control";
  obs::CounterSample c;
  c.name = "counter.\"quoted\"";
  c.value = 18446744073709551615ull;  // max uint64 must survive exactly
  report.metrics.counters.push_back(c);
  obs::GaugeSample g;
  g.name = "gauge.negative";
  g.value = -42;
  report.metrics.gauges.push_back(g);
  obs::HistogramSample h;
  h.name = "hist\\back\\slash";
  h.snapshot.count = 3;
  h.snapshot.sum = 300;
  h.snapshot.min = 50;
  h.snapshot.max = 150;
  h.snapshot.buckets[6] = 2;
  h.snapshot.buckets[8] = 1;
  report.metrics.histograms.push_back(h);
  report.phases.push_back({"phase one", 4, 123456789});
  obs::add_series(report, "series.with\nnewline",
                  {0.5, -1.25, 3e-17, std::nan("")});
  report.trace.push_back({"span \"x\"", 2, 1, 1000, 2000});
  return report;
}

// Reports are read by Python tools, not by this library; a round trip could
// not see a layout drift that reader and writer share, so the tests below pin
// the exact bytes: control-character escapes, max uint64 and negative
// integers verbatim, trimmed trailing zero buckets, %.17g doubles and
// non-finite values as null.
const std::string kReportHead =
    R"({"schema":"dpoaf.run_report","version":1,)"
    R"("tool":"test \"tool\"\\with\nescapes\tand\u0001control",)"
    R"("counters":{"counter.\"quoted\"":18446744073709551615},)"
    R"("gauges":{"gauge.negative":-42},)"
    R"("histograms":{"hist\\back\\slash":{"count":3,"sum":300,"min":50,)"
    R"("max":150,"buckets":[0,0,0,0,0,0,2,0,1]}},)"
    R"("phases":[{"name":"phase one","spans":4,"total_ns":123456789}],)"
    R"("series":{"series.with\nnewline":)"
    R"([0.5,-1.25,3.0000000000000001e-17,null]})";

TEST_F(ObsTest, JsonRoundTripPreservesEverything) {
  const obs::RunReport report = escape_heavy_report();
  const std::string json = obs::to_json(report);
  EXPECT_EQ(json, kReportHead + "}");
  // Serialization is deterministic: a second encode matches the first.
  EXPECT_EQ(obs::to_json(report), json);
}

// The trace reaches only the chrome export, whose bytes pin the span
// name's escapes; the report JSON is that of a traceless report.
TEST_F(ObsTest, JsonWithoutTraceDropsOnlyTheTrace) {
  const obs::RunReport report = escape_heavy_report();
  EXPECT_EQ(obs::to_chrome_trace(report),
            R"({"displayTimeUnit":"ms","traceEvents":[{"name":"span \"x\"",)"
            R"("cat":"dpoaf","ph":"X","pid":1,"tid":2,"ts":1,"dur":2}]})");
  obs::RunReport traceless = report;
  traceless.trace.clear();
  EXPECT_EQ(obs::to_json(report), obs::to_json(traceless));
}

TEST_F(ObsTest, ChromeTraceExportContainsEveryEvent) {
  obs::RunReport report;
  report.tool = "t";
  report.trace.push_back({"alpha", 1, 0, 1500, 2500});
  report.trace.push_back({"beta", 2, 1, 3000, 500});
  const std::string chrome = obs::to_chrome_trace(report);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("\"alpha\""), std::string::npos);
  EXPECT_NE(chrome.find("\"beta\""), std::string::npos);
  EXPECT_NE(chrome.find("\"ph\":\"X\""), std::string::npos);
  // ts/dur are microseconds: 1500 ns -> 1.5 µs.
  EXPECT_NE(chrome.find("1.5"), std::string::npos);
}

TEST_F(ObsTest, CaptureRunReportIsRepeatable) {
  obs::set_enabled(true);
  obs::clear_trace();
  obs::counter("test.obs.capture").add(3);
  {
    obs::Span span("capture.span");
  }
  const obs::RunReport a = obs::capture_run_report("test");
  const obs::RunReport b = obs::capture_run_report("test");
  // Snapshot, not drain: capturing twice sees the same trace.
  EXPECT_EQ(a.trace.size(), b.trace.size());
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.tool, "test");
}

}  // namespace
