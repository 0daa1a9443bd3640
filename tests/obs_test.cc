#include "obs/obs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/chrome_trace.h"
#include "obs/obs_schema.gen.h"
#include "obs/prometheus.h"
#include "obs/session.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "service/metrics.h"

namespace dhyfd {
namespace {

// The global tracer is a process-wide singleton and its buffers accumulate
// for the life of the process, so every test works on deltas / filtered
// drains and restores the stopped state on exit.

std::vector<TraceEvent> EventsNamed(const char* name) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : Tracer::Global().drain()) {
    if (e.name != nullptr && std::string(e.name) == name) out.push_back(e);
  }
  return out;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(TracerTest, RecordsNothingWhenStopped) {
  Tracer& tracer = Tracer::Global();
  tracer.stop();
  std::size_t before = tracer.event_count();
  {
    TraceSpan span("obs.test.stopped");
  }
  tracer.record(TraceEvent{"obs.test.stopped", 'i', 0, 0, 0, 0, 0});
  EXPECT_EQ(tracer.event_count(), before);
  EXPECT_TRUE(EventsNamed("obs.test.stopped").empty());
}

TEST(TracerTest, SpanCoversScopeAndCarriesTraceId) {
  Tracer& tracer = Tracer::Global();
  tracer.start();
  {
    TraceIdScope id_scope(4242);
    TraceSpan span("obs.test.span");
  }
  tracer.stop();
  std::vector<TraceEvent> events = EventsNamed("obs.test.span");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_EQ(events[0].trace_id, 4242u);
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_GT(events[0].tid, 0u);
}

TEST(TracerTest, FinishEndsSpanEarlyAndIsIdempotent) {
  Tracer& tracer = Tracer::Global();
  tracer.start();
  {
    TraceSpan span("obs.test.finish");
    span.finish();
    span.finish();  // second call must not record again
  }
  tracer.stop();
  EXPECT_EQ(EventsNamed("obs.test.finish").size(), 1u);
}

TEST(TracerTest, RecordSpanUsesExplicitTimestampsAndLane) {
  Tracer& tracer = Tracer::Global();
  tracer.start();
  tracer.record_span("obs.test.explicit", 9, 100, 250, 777);
  tracer.stop();
  std::vector<TraceEvent> events = EventsNamed("obs.test.explicit");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ts_us, 100);
  EXPECT_EQ(events[0].dur_us, 150);
  EXPECT_EQ(events[0].tid, 777u);
  EXPECT_EQ(events[0].trace_id, 9u);
}

TEST(TracerTest, NextTraceIdNeverReturnsZeroAndIsUnique) {
  Tracer& tracer = Tracer::Global();
  std::uint64_t a = tracer.next_trace_id();
  std::uint64_t b = tracer.next_trace_id();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(TracerTest, MultiThreadedRecordingCrossesChunkBoundaries) {
  // 4 threads x 10k events each: well past the 4096-events-per-chunk
  // capacity, so the per-thread chunk chains are exercised.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  Tracer& tracer = Tracer::Global();
  tracer.start();
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&tracer] {
      for (int i = 0; i < kPerThread; ++i) {
        tracer.record(TraceEvent{"obs.test.mt", 'i', 0, 0, 0, 0, 0});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  tracer.stop();
  EXPECT_EQ(EventsNamed("obs.test.mt").size(),
            static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(TracerTest, TraceTidsAreStablePerThreadAndDistinct) {
  std::uint32_t main_a = CurrentTraceTid();
  std::uint32_t main_b = CurrentTraceTid();
  EXPECT_EQ(main_a, main_b);
  std::uint32_t other = 0;
  std::thread([&other] { other = CurrentTraceTid(); }).join();
  EXPECT_NE(other, 0u);
  EXPECT_NE(other, main_a);
}

TEST(TraceIdScopeTest, NestsAndRestores) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  {
    TraceIdScope outer(5);
    EXPECT_EQ(CurrentTraceId(), 5u);
    {
      TraceIdScope inner(7);
      EXPECT_EQ(CurrentTraceId(), 7u);
    }
    EXPECT_EQ(CurrentTraceId(), 5u);
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(ObsSinkTest, AddWithoutSinkIsANoop) {
  ASSERT_EQ(CurrentObsSink(), nullptr);
  ObsAdd("obs.test.nosink", 3);  // must not crash
}

TEST(ObsSinkTest, ScopeInstallsAndRestores) {
  struct CountingSink : ObsSink {
    std::int64_t total = 0;
    void add(const char*, std::int64_t delta) override { total += delta; }
  } sink;
  {
    ObsScope scope(&sink);
    EXPECT_EQ(CurrentObsSink(), &sink);
    ObsAdd("obs.test.counting", 2);
    ObsAdd("obs.test.counting");
  }
  EXPECT_EQ(CurrentObsSink(), nullptr);
  EXPECT_EQ(sink.total, 3);
  ObsAdd("obs.test.counting", 100);  // after the scope: dropped
  EXPECT_EQ(sink.total, 3);
}

TEST(TelemetrySinkTest, MirrorsCountersIntoRegistry) {
  MetricsRegistry metrics;
  TelemetrySink sink(&metrics);
  ObsScope scope(&sink);
  ObsAdd("obs.test.mirrored", 4);
  ObsAdd("obs.test.mirrored", 1);
  EXPECT_EQ(metrics.counter("obs.test.mirrored").value(), 5);
}

TEST(TelemetrySinkTest, EmitsCumulativeCounterSeriesWhenTracing) {
  MetricsRegistry metrics;
  Tracer& tracer = Tracer::Global();
  tracer.start();
  {
    TelemetrySink sink(&metrics, 31);
    ObsScope scope(&sink);
    ObsAdd("obs.test.series", 3);
    ObsAdd("obs.test.series", 4);
  }
  tracer.stop();
  std::vector<TraceEvent> events = EventsNamed("obs.test.series");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, 'C');
  EXPECT_EQ(events[0].value, 3);  // cumulative totals, not deltas
  EXPECT_EQ(events[1].value, 7);
  EXPECT_EQ(events[0].trace_id, 31u);
  EXPECT_EQ(events[1].trace_id, 31u);
}

TEST(ChromeTraceTest, WritesWellFormedEvents) {
  std::vector<TraceEvent> events;
  events.push_back(TraceEvent{"span.a", 'X', 12, 100, 50, 0, 3});
  events.push_back(TraceEvent{"series.b", 'C', 12, 120, 0, 42, 3});
  events.push_back(TraceEvent{"weird\"name\n", 'i', 0, 130, 0, 0, 1});
  std::ostringstream out;
  WriteChromeTrace(events, out);
  std::string json = out.str();

  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"span.a\",\"cat\":\"dhyfd\",\"ph\":\"X\""),
            std::string::npos);
  EXPECT_NE(json.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(json.find("\"value\":42"), std::string::npos);
  EXPECT_NE(json.find("\"trace_id\":12"), std::string::npos);
  // Specials in names are escaped, keeping the file parseable.
  EXPECT_NE(json.find("weird\\\"name\\n"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(ObsSessionTest, InertWithNoPaths) {
  Tracer& tracer = Tracer::Global();
  ASSERT_FALSE(tracer.enabled());
  ObsSession session({});
  EXPECT_FALSE(session.tracing());
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(CurrentObsSink(), nullptr);
}

TEST(ObsSessionTest, WritesTraceAndMetricsFilesOnDestruction) {
  std::string dir = ::testing::TempDir();
  std::string trace_path = dir + "/obs_test_trace.json";
  std::string metrics_path = dir + "/obs_test_metrics.prom";
  {
    ObsSessionOptions options;
    options.trace_path = trace_path;
    options.metrics_path = metrics_path;
    ObsSession session(options);
    EXPECT_TRUE(session.tracing());
    EXPECT_TRUE(Tracer::Global().enabled());
    TraceSpan span("obs.test.session_span");
    ObsAdd("obs.test.session_counter", 6);
  }
  EXPECT_FALSE(Tracer::Global().enabled());

  std::string trace = ReadFile(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("obs.test.session_span"), std::string::npos);
  std::string prom = ReadFile(metrics_path);
  EXPECT_NE(prom.find("# TYPE dhyfd_obs_test_session_counter counter"),
            std::string::npos);
  EXPECT_NE(prom.find("dhyfd_obs_test_session_counter 6"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

// ---- generated observability schema (src/obs/obs_schema.gen.h) ----------

// The layer.noun[_verb] grammar from DESIGN.md "Observability": dotted
// lowercase, >= 2 segments, first segment = owning subsystem. Mirrors
// OBS_NAME_RE in tools/analyze/analyze.py.
bool FollowsObsGrammar(std::string_view name) {
  auto segment_char = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
  };
  if (name.empty() || name.front() < 'a' || name.front() > 'z') return false;
  std::size_t segments = 1;
  char prev = '\0';
  for (char c : name) {
    if (c == '.') {
      if (prev == '.' || prev == '\0') return false;  // empty segment
      ++segments;
    } else if (!segment_char(c)) {
      return false;
    }
    prev = c;
  }
  return prev != '.' && segments >= 2;
}

TEST(ObsSchemaTest, EveryGeneratedNameFollowsTheGrammar) {
  ASSERT_GT(kObsSchemaNameCount, 0u);
  for (std::string_view name : kObsSchemaNames) {
    EXPECT_TRUE(FollowsObsGrammar(name)) << "schema name violates "
        "layer.noun[_verb] grammar: " << name;
  }
}

TEST(ObsSchemaTest, NamesTableIsSortedAndUnique) {
  // ObsSchemaMatches binary-searches kObsSchemaNames; the generator must
  // emit it sorted with no duplicates or lookups silently miss.
  for (std::size_t i = 1; i < kObsSchemaNameCount; ++i) {
    EXPECT_LT(kObsSchemaNames[i - 1], kObsSchemaNames[i]);
  }
}

TEST(ObsSchemaTest, MatchesExactNamesAndPatterns) {
  EXPECT_TRUE(ObsSchemaMatches(kObsJobsSubmitted));
  EXPECT_TRUE(ObsSchemaMatches(kObsProfileDiscover));
  // Dynamically composed names are admitted by the wildcard patterns.
  EXPECT_TRUE(ObsSchemaMatches("net.rpc.submit_discovery.ok_seconds"));
  EXPECT_TRUE(ObsSchemaMatches("stage.encode_seconds"));
  EXPECT_FALSE(ObsSchemaMatches("net.rpc.bogus"));         // no _seconds tail
  EXPECT_FALSE(ObsSchemaMatches("discover.validator.callz"));  // typo
  EXPECT_FALSE(ObsSchemaMatches(""));
}

TEST(ObsSchemaTest, PrometheusExpositionIsSubsetOfSchema) {
  // Golden subset property: every family a real registry exports maps back
  // to a registered schema name (or wildcard pattern). Uses the same
  // constants production code uses, plus the two dynamic families.
  MetricsRegistry metrics;
  metrics.counter(kObsJobsSubmitted).inc();
  metrics.counter(kObsNetFramesRx).inc(3);
  metrics.gauge(kObsJobsRunning).set(1);
  metrics.histogram(kObsJobsRunSeconds).record(0.25);
  metrics.histogram("net.rpc.submit_discovery.ok_seconds").record(0.01);
  metrics.histogram("stage.encode_seconds").record(0.001);

  std::string text = PrometheusText(metrics);
  auto check = [&](const std::map<std::string, std::int64_t>& values) {
    for (const auto& [name, unused] : values) {
      EXPECT_TRUE(ObsSchemaMatches(name))
          << "exported metric not in obs_schema.json: " << name;
      EXPECT_NE(text.find(PrometheusName(name)), std::string::npos)
          << "registered metric missing from exposition: " << name;
    }
  };
  check(metrics.counter_values());
  check(metrics.gauge_values());  // includes the process.* gauges
  for (const auto& [name, unused] : metrics.histogram_values()) {
    EXPECT_TRUE(ObsSchemaMatches(name))
        << "exported histogram not in obs_schema.json: " << name;
    EXPECT_NE(text.find(PrometheusName(name) + "_count"), std::string::npos);
  }
}

TEST(ObsSchemaTest, WildcardNeverCrossesDots) {
  // `*` is a single-segment wildcard; a name with extra segments must not
  // sneak through a pattern.
  EXPECT_TRUE(ObsWildcardMatch("stage.*_seconds", "stage.rank_seconds"));
  EXPECT_FALSE(ObsWildcardMatch("stage.*_seconds", "stage.a.b_seconds"));
  EXPECT_FALSE(ObsWildcardMatch("stage.*_seconds", "stagex.rank_seconds"));
}

}  // namespace
}  // namespace dhyfd
