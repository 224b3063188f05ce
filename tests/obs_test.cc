// Unit tests for the obs/ layer: metrics registry JSON contract,
// windowed (interval) views and the Prometheus exposition, structured
// log records, the trace ring's overwrite semantics, SpanTimer RAII
// and the sink hook.

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "mini_json.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace fcae {
namespace obs {
namespace {

mini_json::Value MustParse(const std::string& text) {
  mini_json::Value v;
  std::string error;
  EXPECT_TRUE(mini_json::Parse(text, &v, &error)) << error << "\n" << text;
  return v;
}

TEST(MetricsRegistry, CountersAndGauges) {
  MetricsRegistry registry;
  Counter* c = registry.counter("db.compaction.count");
  c->Increment();
  c->Increment(41);
  EXPECT_EQ(42u, c->value());
  // Re-registering the same name returns the same instrument.
  EXPECT_EQ(c, registry.counter("db.compaction.count"));

  Gauge* g = registry.gauge("health.quarantined");
  g->Set(1);
  g->Add(-3);
  EXPECT_EQ(-2, g->value());
  EXPECT_EQ(g, registry.gauge("health.quarantined"));
}

TEST(MetricsRegistry, HistogramSnapshot) {
  MetricsRegistry registry;
  HistogramMetric* h = registry.histogram("db.compaction.micros");
  h->Observe(100);
  h->Observe(300);
  Histogram snap = h->snapshot();
  EXPECT_EQ(2u, snap.Count());
  EXPECT_DOUBLE_EQ(100.0, snap.Min());
  EXPECT_DOUBLE_EQ(300.0, snap.Max());
}

TEST(MetricsRegistry, ToJsonIsValidAndComplete) {
  MetricsRegistry registry;
  registry.counter("z.last")->Increment(7);
  registry.counter("a.first")->Increment(1);
  registry.gauge("fpga.fifo.output_peak")->Set(63);
  registry.histogram("db.flush.micros")->Observe(2500);

  mini_json::Value root = MustParse(registry.ToJson());
  ASSERT_EQ(mini_json::Value::kObject, root.kind);
  EXPECT_EQ(1.0, root["counters"]["a.first"].number);
  EXPECT_EQ(7.0, root["counters"]["z.last"].number);
  EXPECT_EQ(63.0, root["gauges"]["fpga.fifo.output_peak"].number);
  const mini_json::Value& hist = root["histograms"]["db.flush.micros"];
  EXPECT_EQ(1.0, hist["count"].number);
  EXPECT_EQ(2500.0, hist["min"].number);
  EXPECT_EQ(2500.0, hist["max"].number);
  EXPECT_EQ(2500.0, hist["mean"].number);
  ASSERT_TRUE(hist.Has("p50"));
  ASSERT_TRUE(hist.Has("p90"));
  ASSERT_TRUE(hist.Has("p99"));
}

TEST(MetricsRegistry, EmptyRegistryAndEmptyHistogramAreValidJson) {
  MetricsRegistry registry;
  mini_json::Value root = MustParse(registry.ToJson());
  EXPECT_EQ(mini_json::Value::kObject, root["counters"].kind);

  // A registered-but-never-observed histogram must not emit NaN/inf.
  registry.histogram("db.write.stall_micros");
  root = MustParse(registry.ToJson());
  EXPECT_EQ(0.0, root["histograms"]["db.write.stall_micros"]["count"].number);
}

TEST(MetricsRegistry, SnapshotAndToJsonSinceReportDeltas) {
  MetricsRegistry registry;
  registry.counter("db.flush.count")->Increment(5);
  registry.gauge("wc.state")->Set(2);
  registry.histogram("db.flush.micros")->Observe(100);
  registry.histogram("db.flush.micros")->Observe(200);

  MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  EXPECT_EQ(5u, before.CounterValue("db.flush.count"));
  EXPECT_EQ(0u, before.CounterValue("never.registered"));

  registry.counter("db.flush.count")->Increment(3);
  registry.counter("db.compaction.count")->Increment(2);  // New since.
  registry.gauge("wc.state")->Set(7);
  registry.histogram("db.flush.micros")->Observe(900);

  mini_json::Value root = MustParse(registry.ToJsonSince(before));
  // Counters: interval deltas; instruments new since the snapshot
  // report their full value.
  EXPECT_EQ(3.0, root["counters"]["db.flush.count"].number);
  EXPECT_EQ(2.0, root["counters"]["db.compaction.count"].number);
  // Gauges are point-in-time.
  EXPECT_EQ(7.0, root["gauges"]["wc.state"].number);
  // Histograms subtract the earlier window: one new sample.
  const mini_json::Value& hist = root["histograms"]["db.flush.micros"];
  EXPECT_EQ(1.0, hist["count"].number);
  EXPECT_EQ(900.0, hist["mean"].number);
}

TEST(HistogramSubtract, WindowedViewIsExact) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  Histogram earlier = h;
  h.Add(30);
  h.Add(40);

  Histogram window = h;
  window.Subtract(earlier);
  EXPECT_EQ(2u, window.Count());
  EXPECT_DOUBLE_EQ(35.0, window.Average());

  // Subtracting a histogram from itself leaves an empty window.
  Histogram empty = h;
  empty.Subtract(h);
  EXPECT_EQ(0u, empty.Count());
}

TEST(MetricsRegistry, ExportPrometheusShape) {
  MetricsRegistry registry;
  registry.counter("db.flush.count")->Increment(4);
  registry.gauge("health.quarantined")->Set(1);
  registry.histogram("db.flush.micros")->Observe(100);
  registry.histogram("db.flush.micros")->Observe(300);

  const std::string text = registry.ExportPrometheus();
  // Dotted names mangle to fcae_<snake>; each family announces a TYPE.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE fcae_db_flush_count counter"));
  EXPECT_NE(std::string::npos, text.find("fcae_db_flush_count 4"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE fcae_health_quarantined gauge"));
  EXPECT_NE(std::string::npos, text.find("fcae_health_quarantined 1"));
  // Histograms export as summaries: quantiles plus _sum/_count.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE fcae_db_flush_micros summary"));
  EXPECT_NE(std::string::npos,
            text.find("fcae_db_flush_micros{quantile=\"0.5\"}"));
  EXPECT_NE(std::string::npos,
            text.find("fcae_db_flush_micros{quantile=\"0.99\"}"));
  EXPECT_NE(std::string::npos, text.find("fcae_db_flush_micros_count 2"));
  EXPECT_NE(std::string::npos, text.find("fcae_db_flush_micros_sum"));
}

TEST(LoggerTest, FormatLogRecordRendersFieldsAndIndentsMultiline) {
  LogRecord record;
  record.level = LogRecord::Level::kInfo;
  record.ts_micros = 1234;
  record.tag = "fcae.stats";
  record.message = "header\nrow1\nrow2";
  record.fields.emplace_back("seq", "3");

  const std::string line = FormatLogRecord(record);
  EXPECT_NE(std::string::npos, line.find("INFO"));
  EXPECT_NE(std::string::npos, line.find("fcae.stats"));
  EXPECT_NE(std::string::npos, line.find("seq=3"));
  EXPECT_NE(std::string::npos, line.find("header"));
  EXPECT_NE(std::string::npos, line.find("row2"));

  EXPECT_STREQ("INFO", LogLevelName(LogRecord::Level::kInfo));
  EXPECT_STREQ("WARN", LogLevelName(LogRecord::Level::kWarn));
  EXPECT_STREQ("ERROR", LogLevelName(LogRecord::Level::kError));
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ("plain", JsonEscape("plain"));
  EXPECT_EQ("a\\\"b", JsonEscape("a\"b"));
  EXPECT_EQ("a\\\\b", JsonEscape("a\\b"));
  EXPECT_EQ("a\\nb\\tc", JsonEscape("a\nb\tc"));
  EXPECT_EQ("x\\u0001y", JsonEscape(std::string("x\x01y", 3)));

  // Round-trip through the JSON parser.
  std::string nasty = "quote\" slash\\ nl\n tab\t";
  mini_json::Value v = MustParse("\"" + JsonEscape(nasty) + "\"");
  EXPECT_EQ(nasty, v.str);
}

TEST(TraceRecorderTest, RingKeepsNewestAndCountsDropped) {
  TraceRecorder recorder(4);
  for (int i = 0; i < 6; i++) {
    recorder.RecordInstant(test::Cat("e", i), "db", 100 + i, 0);
  }
  EXPECT_EQ(4u, recorder.size());
  EXPECT_EQ(2u, recorder.events_dropped());

  mini_json::Value root = MustParse(recorder.ToJson());
  EXPECT_EQ(2.0, root["eventsDropped"].number);
  const auto& events = root["traceEvents"].array;
  ASSERT_EQ(4u, events.size());
  // Oldest retained first: e2..e5.
  EXPECT_EQ("e2", events[0]["name"].str);
  EXPECT_EQ("e5", events[3]["name"].str);
  EXPECT_EQ(102.0, events[0]["ts"].number);
}

TEST(TraceRecorderTest, ChromeTracingShape) {
  TraceRecorder recorder;
  recorder.RecordSpan("compaction", "db", 1000, 250, 3,
                      {{"level", "2"},
                       {"reason", TraceRecorder::Quote("seek\"limit")}});
  recorder.RecordInstant("retry", "host", 1100, 3, {{"attempt", "2"}});

  mini_json::Value root = MustParse(recorder.ToJson());
  EXPECT_EQ("ms", root["displayTimeUnit"].str);
  const auto& events = root["traceEvents"].array;
  ASSERT_EQ(2u, events.size());

  const mini_json::Value& span = events[0];
  EXPECT_EQ("X", span["ph"].str);
  EXPECT_EQ("db", span["cat"].str);
  EXPECT_EQ(1000.0, span["ts"].number);
  EXPECT_EQ(250.0, span["dur"].number);
  EXPECT_EQ(3.0, span["tid"].number);
  EXPECT_EQ(1.0, span["pid"].number);
  EXPECT_EQ(2.0, span["args"]["level"].number);
  EXPECT_EQ("seek\"limit", span["args"]["reason"].str);

  const mini_json::Value& instant = events[1];
  EXPECT_EQ("i", instant["ph"].str);
  EXPECT_EQ("t", instant["s"].str);  // Thread-scoped instant.
  EXPECT_FALSE(instant.Has("dur"));
}

class CollectingSink : public TraceSink {
 public:
  void Append(const TraceEvent& event) override {
    names.push_back(event.name);
  }
  std::vector<std::string> names;
};

TEST(TraceRecorderTest, SinkObservesEveryEvent) {
  TraceRecorder recorder(2);  // Smaller than the event count below.
  CollectingSink sink;
  recorder.set_sink(&sink);
  for (int i = 0; i < 5; i++) {
    recorder.RecordInstant(test::Cat("i", i), "db", i, 0);
  }
  // The sink saw all five even though the ring only retains two.
  ASSERT_EQ(5u, sink.names.size());
  EXPECT_EQ("i0", sink.names.front());
  EXPECT_EQ("i4", sink.names.back());

  recorder.set_sink(nullptr);
  recorder.RecordInstant("after-detach", "db", 9, 0);
  EXPECT_EQ(5u, sink.names.size());
}

TEST(SpanTimerTest, RecordsOneSpanWithArgs) {
  TraceRecorder recorder;
  {
    SpanTimer span(&recorder, "merge", "cpu", 7);
    span.AddArg("entries_in", "123");
    span.Finish();
    span.Finish();  // Idempotent; destructor is also a no-op now.
  }
  EXPECT_EQ(1u, recorder.size());

  mini_json::Value root = MustParse(recorder.ToJson());
  const mini_json::Value& span = root["traceEvents"].array[0];
  EXPECT_EQ("merge", span["name"].str);
  EXPECT_EQ(7.0, span["tid"].number);
  EXPECT_EQ(123.0, span["args"]["entries_in"].number);
}

TEST(SpanTimerTest, NullRecorderIsNoop) {
  SpanTimer span(nullptr, "merge", "cpu", 0);
  span.AddArg("k", "1");
  span.Finish();  // Must not crash.
}

TEST(TraceNowMicrosTest, Monotonic) {
  uint64_t a = TraceNowMicros();
  uint64_t b = TraceNowMicros();
  EXPECT_LE(a, b);
}

}  // namespace
}  // namespace obs
}  // namespace fcae
