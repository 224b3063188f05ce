// Unit tests for the obs/ layer: metrics registry JSON contract,
// windowed (interval) views and the Prometheus exposition, structured
// log records, the trace ring's overwrite semantics, SpanTimer RAII
// and the sink hook.

#include <algorithm>
#include <atomic>
#include <cctype>
#include <set>
#include <sstream>
#include <string>
#include <thread>
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
  Counter& c = registry.db_compaction_count;
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(42u, c.value());

  Gauge& g = registry.wc_state;
  g.Set(1);
  g.Add(-3);
  EXPECT_EQ(-2, g.value());

  // A card's block is created once and then returned as is.
  CardInstruments* card = registry.card(3);
  card->quarantined.Set(1);
  EXPECT_EQ(card, registry.card(3));
  EXPECT_EQ(1, registry.card(3)->quarantined.value());
}

TEST(MetricsRegistry, HistogramSnapshot) {
  MetricsRegistry registry;
  HistogramMetric& h = registry.db_compaction_micros;
  h.Observe(100);
  h.Observe(300);
  Histogram snap = h.snapshot();
  EXPECT_EQ(2u, snap.Count());
  EXPECT_DOUBLE_EQ(100.0, snap.Min());
  EXPECT_DOUBLE_EQ(300.0, snap.Max());
  EXPECT_DOUBLE_EQ(400.0, snap.Sum());
}

TEST(MetricsRegistry, ToJsonIsValidAndComplete) {
  MetricsRegistry registry;
  registry.wc_state.Set(2);
  registry.db_bg_error_hard.Increment(1);
  registry.scrub_cycles.Increment(7);
  registry.fpga_fifo_output_peak.Set(63);
  registry.db_flush_micros.Observe(2500);

  mini_json::Value root = MustParse(registry.ToJson());
  ASSERT_EQ(mini_json::Value::kObject, root.kind);
  EXPECT_EQ(1.0, root["counters"]["db.bg_error.hard"].number);
  EXPECT_EQ(7.0, root["counters"]["scrub.cycles"].number);
  EXPECT_EQ(63.0, root["gauges"]["fpga.fifo.output_peak"].number);
  EXPECT_EQ(2.0, root["gauges"]["wc.state"].number);
  const mini_json::Value& hist = root["histograms"]["db.flush.micros"];
  EXPECT_EQ(1.0, hist["count"].number);
  EXPECT_EQ(2500.0, hist["min"].number);
  EXPECT_EQ(2500.0, hist["max"].number);
  EXPECT_EQ(2500.0, hist["mean"].number);
  ASSERT_TRUE(hist.Has("p50"));
  ASSERT_TRUE(hist.Has("p90"));
  ASSERT_TRUE(hist.Has("p99"));
}

TEST(MetricsRegistry, FreshRegistryAndEmptyHistogramAreValidJson) {
  MetricsRegistry registry;
  mini_json::Value root = MustParse(registry.ToJson());
  EXPECT_EQ(mini_json::Value::kObject, root["counters"].kind);
  // A never-observed histogram must not emit NaN/inf.
  EXPECT_EQ(0.0,
            root["histograms"]["db.write.l0_stop_micros"]["count"].number);
  EXPECT_EQ(0.0, root["histograms"]["db.write.l0_stop_micros"]["p99"].number);
}

TEST(MetricsRegistry, SnapshotAndToJsonSinceReportDeltas) {
  MetricsRegistry registry;
  registry.db_flush_count.Increment(5);
  registry.wc_state.Set(2);
  registry.db_flush_micros.Observe(100);
  registry.db_flush_micros.Observe(200);

  MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  EXPECT_EQ(5u, before.db_flush_count);
  EXPECT_EQ(2, before.wc_state);
  EXPECT_EQ(2u, before.db_flush_micros.Count());

  registry.db_flush_count.Increment(3);
  registry.card(0)->busy_micros.Increment(2);  // A card new since.
  registry.wc_state.Set(7);
  registry.db_flush_micros.Observe(900);

  mini_json::Value root = MustParse(registry.ToJsonSince(before));
  // Counters: interval deltas; a card created since the snapshot
  // reports its full value.
  EXPECT_EQ(3.0, root["counters"]["db.flush.count"].number);
  EXPECT_EQ(2.0, root["counters"]["offload.card0.busy_micros"].number);
  // Gauges are point-in-time.
  EXPECT_EQ(7.0, root["gauges"]["wc.state"].number);
  // Histograms subtract the earlier window: one new sample.
  const mini_json::Value& hist = root["histograms"]["db.flush.micros"];
  EXPECT_EQ(1.0, hist["count"].number);
  EXPECT_EQ(900.0, hist["mean"].number);
}

std::string PrometheusName(const std::string& name) {
  std::string out = "fcae_";
  for (char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) ? c : '_';
  }
  return out;
}

/// Instrument names of one ToJson() section, in emitted order.
std::vector<std::string> JsonSectionNames(const std::string& json,
                                          const std::string& section) {
  std::vector<std::string> names;
  std::istringstream lines(json);
  std::string line;
  bool inside = false;
  while (std::getline(lines, line)) {
    if (line.rfind("  \"", 0) == 0) {
      inside = line.rfind("  \"" + section + "\"", 0) == 0;
    } else if (inside && line.rfind("    \"", 0) == 0) {
      names.push_back(line.substr(5, line.find('"', 5) - 5));
    }
  }
  return names;
}

TEST(MetricsRegistry, ExportsListEveryDeclaredInstrumentOnceSorted) {
  const std::vector<test::Instrument> declared = test::DeclaredInstruments();
  ASSERT_FALSE(declared.empty());
  MetricsRegistry registry;
  const std::string json = registry.ToJson();
  MustParse(json);

  std::set<std::string> mangled;
  std::vector<std::string> expected_families;
  for (const char* section : {"counters", "gauges", "histograms"}) {
    std::vector<std::string> names;
    for (const test::Instrument& d : declared) {
      if (d.section == section) names.push_back(d.name);
    }
    std::sort(names.begin(), names.end());
    // Each section of the export is exactly its declared names, each
    // once, in sorted order.
    EXPECT_EQ(names, JsonSectionNames(json, section)) << section;
    for (const std::string& name : names) {
      // Dotted lowercase `<layer>.<subsystem>.<measure>`.
      EXPECT_TRUE(std::all_of(name.begin(), name.end(), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_' || c == '.';
      })) << name;
      EXPECT_NE(std::string::npos, name.find('.')) << name;
      EXPECT_TRUE(mangled.insert(PrometheusName(name)).second)
          << name << " mangles like another instrument";
      expected_families.push_back(PrometheusName(name));
    }
  }

  // One Prometheus family per instrument, in the same order.
  std::vector<std::string> families;
  std::istringstream lines(registry.ExportPrometheus());
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      families.push_back(line.substr(7, line.find(' ', 7) - 7));
    }
  }
  EXPECT_EQ(expected_families, families);
}

// Two threads offer different peaks to one gauge at the same instant,
// round after round. A read-then-set maximum lets the lower offer
// overwrite the higher one whenever both read before either writes.
TEST(MetricsRegistry, GaugeUpdateMaxKeepsThePeakAcrossThreads) {
  constexpr int kRounds = 20000;
  std::vector<Gauge> gauges(kRounds);
  std::atomic<int> round{-1};
  std::atomic<int> done{0};
  const auto offer = [&](int64_t value) {
    for (int r = 0; r < kRounds; r++) {
      while (round.load(std::memory_order_acquire) < r) {
        std::this_thread::yield();
      }
      gauges[r].UpdateMax(value);
      done.fetch_add(1, std::memory_order_acq_rel);
    }
  };
  std::thread high(offer, 100);
  std::thread low(offer, 50);
  for (int r = 0; r < kRounds; r++) {
    round.store(r, std::memory_order_release);  // Both threads go at once.
    while (done.load(std::memory_order_acquire) < 2 * (r + 1)) {
      std::this_thread::yield();
    }
  }
  high.join();
  low.join();
  int lost = 0;
  for (const Gauge& g : gauges) lost += g.value() != 100;
  EXPECT_EQ(0, lost) << "of " << kRounds << " rounds";
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
  registry.db_flush_count.Increment(4);
  registry.card(0)->quarantined.Set(1);
  registry.db_flush_micros.Observe(100);
  registry.db_flush_micros.Observe(300);

  const std::string text = registry.ExportPrometheus();
  // Dotted names mangle to fcae_<snake>; each family announces a TYPE.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE fcae_db_flush_count counter"));
  EXPECT_NE(std::string::npos, text.find("fcae_db_flush_count 4"));
  EXPECT_NE(std::string::npos,
            text.find("# TYPE fcae_health_card0_quarantined gauge"));
  EXPECT_NE(std::string::npos, text.find("fcae_health_card0_quarantined 1"));
  // Histograms export as summaries: quantiles plus _sum/_count.
  EXPECT_NE(std::string::npos,
            text.find("# TYPE fcae_db_flush_micros summary"));
  EXPECT_NE(std::string::npos,
            text.find("fcae_db_flush_micros{quantile=\"0.5\"}"));
  EXPECT_NE(std::string::npos,
            text.find("fcae_db_flush_micros{quantile=\"0.99\"}"));
  EXPECT_NE(std::string::npos, text.find("fcae_db_flush_micros_count 2"));
  EXPECT_NE(std::string::npos, text.find("fcae_db_flush_micros_sum 400"));
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
