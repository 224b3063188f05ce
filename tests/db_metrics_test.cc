// End-to-end tests of the DB's observability surface:
//  - `fcae.metrics` is valid JSON covering the compaction lifecycle,
//    the FPGA pipeline counters and the health-monitor state;
//  - golden `fcae.trace` export: an offloaded compaction that retries
//    and then falls back to the CPU produces a correctly nested span
//    tree (compaction > input_build/device_attempt/merge/install, with
//    retry and cpu_fallback instants) on one logical track;
//  - Options::metrics_registry and Options::trace_sink injection, and
//    the point-in-time gauges of a registry shared across reopens;
//  - one count per fact: trace evictions reach the registry as they
//    happen, and a registry shared by two DBs holds the sum of their
//    scheduler, device and eviction counts, which each DB prints;
//  - the `fcae.num-files-at-level<N>` digit-parsing regression.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fpga/fault_injector.h"
#include "gtest/gtest.h"
#include "host/device_set.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "mini_json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"
#include "util/mem_env.h"
#include "util/mutex.h"
#include "util/random.h"

namespace fcae {
namespace {

using mini_json::Value;

Value MustParse(const std::string& text) {
  Value v;
  std::string error;
  EXPECT_TRUE(mini_json::Parse(text, &v, &error))
      << error << "\n"
      << text.substr(0, 2000);
  return v;
}

class DbMetricsTest : public testing::Test {
 public:
  DbMetricsTest() : env_(NewMemEnv(Env::Default())) {}

  std::unique_ptr<DB> OpenDb(CompactionExecutor* executor,
                             obs::MetricsRegistry* registry = nullptr,
                             obs::TraceSink* sink = nullptr,
                             const std::string& name = "/obs_db",
                             size_t trace_ring_size = 4096) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    // The golden traces assume serialized compaction: armed device
    // faults must land on one job, in launch order. One worker keeps
    // that deterministic.
    options.compaction_threads = 1;
    options.compaction_executor = executor;
    options.metrics_registry = registry;
    options.trace_sink = sink;
    options.trace_ring_size = trace_ring_size;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, name, &db).ok());
    return std::unique_ptr<DB>(db);
  }

  /// Overwrite-heavy workload plus a full manual compaction, so flushes,
  /// compactions and entry drops all happen.
  void RunWorkload(DB* db) {
    Random rnd(301);
    WriteOptions wo;
    for (int i = 0; i < 4000; i++) {
      std::string key = "user" + std::to_string(rnd.Uniform(800));
      ASSERT_TRUE(
          db->Put(wo, key, std::string(64 + rnd.Uniform(100), 'v')).ok());
    }
    auto* impl = reinterpret_cast<DBImpl*>(db);
    impl->TEST_CompactMemTable().IgnoreError();  // device faults injected
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  std::unique_ptr<Env> env_;
};

TEST_F(DbMetricsTest, MetricsPropertyCoversAllLayers) {
  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 9;
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  std::unique_ptr<DB> db = OpenDb(&executor);
  RunWorkload(db.get());

  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.metrics", &json));
  Value root = MustParse(json);

  // DB lifecycle counters and latency histograms.
  const Value& counters = root["counters"];
  EXPECT_GT(counters["db.flush.count"].number, 0.0);
  EXPECT_GT(counters["db.flush.bytes_written"].number, 0.0);
  EXPECT_GT(counters["db.compaction.count"].number, 0.0);
  EXPECT_GT(counters["db.compaction.offloaded"].number, 0.0);
  EXPECT_GT(counters["db.compaction.entries_dropped"].number, 0.0);
  const Value& hists = root["histograms"];
  EXPECT_GT(hists["db.compaction.micros"]["count"].number, 0.0);
  EXPECT_GE(hists["db.compaction.micros"]["p99"].number,
            hists["db.compaction.micros"]["p50"].number);
  EXPECT_GT(hists["db.flush.micros"]["count"].number, 0.0);

  // Host offload and FPGA pipeline telemetry.
  EXPECT_GT(counters["host.device.attempts"].number, 0.0);
  EXPECT_GT(counters["fpga.kernel.launches"].number, 0.0);
  EXPECT_GT(counters["fpga.decoder.busy_cycles"].number, 0.0);
  EXPECT_GT(counters["fpga.comparer.busy_cycles"].number, 0.0);
  EXPECT_GT(counters["fpga.encoder.busy_cycles"].number, 0.0);
  EXPECT_GT(counters["fpga.records.in"].number, 0.0);

  const Value& gauges = root["gauges"];
  EXPECT_GT(gauges["fpga.fifo.output_peak"].number, 0.0);
  ASSERT_TRUE(gauges.Has("fpga.bottleneck.comparer_share_pct"));

  // Health-monitor state (breaker closed, jobs succeeded).
  ASSERT_TRUE(gauges.Has("health.card0.quarantined"));
  EXPECT_EQ(0.0, gauges["health.card0.quarantined"].number);
  EXPECT_GT(gauges["health.card0.jobs_succeeded"].number, 0.0);
}

// Every declared instrument exists from the moment the registry does,
// so a DB that has done nothing yet already exports all of them, at
// zero except what Open itself records.
TEST_F(DbMetricsTest, OpenExportsEveryDeclaredInstrumentAtZero) {
  obs::MetricsRegistry registry;
  std::unique_ptr<DB> db = OpenDb(nullptr, &registry);
  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.metrics", &json));
  Value root = MustParse(json);
  for (const test::Instrument& i : test::DeclaredInstruments()) {
    ASSERT_TRUE(root[i.section].Has(i.name)) << i.name;
    const Value& v = root[i.section][i.name];
    if (i.name == "recovery.opens") {
      EXPECT_EQ(1.0, v.number);
    } else if (i.name == "db.table_cache.capacity") {
      EXPECT_GT(v.number, 0.0);
    } else if (i.name == "recovery.micros") {
      EXPECT_GE(v.number, 0.0);  // Open's own recovery time.
    } else if (i.section == "histograms") {
      EXPECT_EQ(0.0, v["count"].number) << i.name;
    } else {
      EXPECT_EQ(0.0, v.number) << i.name;
    }
  }
}

// A card's block holds all of its instruments: once one job has been
// offloaded on a 2-card set, both cards export every per-card name.
TEST_F(DbMetricsTest, TwoCardExportHoldsEveryCardInstrument) {
  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 9;
  host::DeviceSet devices(engine_config, /*num_cards=*/2);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);
  obs::MetricsRegistry registry;
  std::unique_ptr<DB> db = OpenDb(&executor, &registry);
  RunWorkload(db.get());
  ASSERT_GE(registry.db_compaction_offloaded.value(), 1u);

  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.metrics", &json));
  Value root = MustParse(json);
  for (int card = 0; card < 2; card++) {
    const std::vector<test::Instrument> names = test::CardInstrumentNames(card);
    EXPECT_EQ(11u, names.size());
    for (const test::Instrument& i : names) {
      EXPECT_TRUE(root[i.section].Has(i.name)) << i.name;
    }
  }
  EXPECT_FALSE(root["gauges"].Has("health.card2.quarantined"));
}

TEST_F(DbMetricsTest, TracePropertyIsValidChromeTracing) {
  host::DeviceSet devices(fpga::EngineConfig{}, /*num_cards=*/1);
  host::FcaeCompactionExecutor executor(&devices);
  std::unique_ptr<DB> db = OpenDb(&executor);
  RunWorkload(db.get());

  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.trace", &json));
  Value root = MustParse(json);
  const auto& events = root["traceEvents"].array;
  ASSERT_FALSE(events.empty());
  for (const Value& e : events) {
    EXPECT_TRUE(e.Has("name"));
    EXPECT_TRUE(e.Has("ts"));
    ASSERT_TRUE(e.Has("ph"));
    EXPECT_TRUE(e["ph"].str == "X" || e["ph"].str == "i") << e["ph"].str;
  }
}

// The golden trace: arm kernel timeouts on the first three launches,
// one per attempt the executor makes, so the first offloaded compaction
// retries twice, fails, and reruns on the CPU. Its track must contain
// the full nested lifecycle.
TEST_F(DbMetricsTest, GoldenTraceRetryThenCpuFallback) {
  fpga::DeviceFaultConfig fault_config;
  fpga::DeviceFaultInjector injector(fault_config);
  injector.ArmOneShot(fpga::DeviceFaultClass::kKernelTimeout, 1);
  injector.ArmOneShot(fpga::DeviceFaultClass::kKernelTimeout, 2);
  injector.ArmOneShot(fpga::DeviceFaultClass::kKernelTimeout, 3);

  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 9;
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  devices.device(0)->set_fault_injector(&injector);

  host::FcaeCompactionExecutor executor(&devices);

  std::unique_ptr<DB> db = OpenDb(&executor);
  RunWorkload(db.get());

  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.trace", &json));
  Value root = MustParse(json);
  const auto& events = root["traceEvents"].array;
  EXPECT_EQ(0.0, root["eventsDropped"].number);

  // Locate the fallback instant; its tid identifies the failed job's
  // track.
  const Value* fallback = nullptr;
  for (const Value& e : events) {
    if (e["name"].str == "cpu_fallback") {
      fallback = &e;
      break;
    }
  }
  ASSERT_NE(nullptr, fallback) << json.substr(0, 2000);
  const double tid = (*fallback)["tid"].number;
  EXPECT_GT(tid, 0.0);  // Track 0 is the scheduler/flush track.

  // Collect that track's events.
  std::map<std::string, std::vector<const Value*>> track;
  for (const Value& e : events) {
    if (e["tid"].number == tid) track[e["name"].str].push_back(&e);
  }

  // The enclosing compaction span exists exactly once.
  ASSERT_EQ(1u, track["compaction"].size());
  const Value& compaction = *track["compaction"][0];
  EXPECT_EQ("X", compaction["ph"].str);
  EXPECT_EQ(Value::kBool, compaction["args"]["offloaded"].kind);
  EXPECT_FALSE(compaction["args"]["offloaded"].boolean);
  EXPECT_TRUE(compaction["args"]["fallback"].boolean);
  const double c_begin = compaction["ts"].number;
  const double c_end = c_begin + compaction["dur"].number;

  // All three device attempts, a retry instant before attempts 2 and
  // 3, the CPU merge rerun and the manifest install are all present on
  // the track.
  EXPECT_EQ(3u, track["device_attempt"].size());
  ASSERT_EQ(2u, track["retry"].size());
  EXPECT_EQ(2.0, (*track["retry"][0])["args"]["attempt"].number);
  EXPECT_EQ(3.0, (*track["retry"][1])["args"]["attempt"].number);
  ASSERT_EQ(1u, track["input_build"].size());
  ASSERT_EQ(1u, track["merge"].size());
  EXPECT_EQ("cpu", (*track["merge"][0])["cat"].str);
  ASSERT_EQ(1u, track["install"].size());

  // Span nesting: every event of the track lies inside the compaction
  // span's wall-clock window, and spans are fully contained.
  for (const auto& entry : track) {
    if (entry.first == "compaction") continue;
    for (const Value* e : entry.second) {
      const double ts = (*e)["ts"].number;
      EXPECT_GE(ts, c_begin) << entry.first;
      EXPECT_LE(ts, c_end) << entry.first;
      if ((*e)["ph"].str == "X") {
        EXPECT_LE(ts + (*e)["dur"].number, c_end) << entry.first;
      }
    }
  }

  // Chronology within the track: build inputs, attempt, retry, second
  // attempt, then the CPU merge.
  const double attempt1 = (*track["device_attempt"][0])["ts"].number;
  const double attempt2 = (*track["device_attempt"][1])["ts"].number;
  const double retry_ts = (*track["retry"][0])["ts"].number;
  EXPECT_LE((*track["input_build"][0])["ts"].number, attempt1);
  EXPECT_LE(attempt1, retry_ts);
  EXPECT_LE(retry_ts, attempt2);
  EXPECT_LE(attempt2, (*track["merge"][0])["ts"].number);

  // The failure is mirrored in the metrics.
  std::string metrics_json;
  ASSERT_TRUE(db->GetProperty("fcae.metrics", &metrics_json));
  Value metrics = MustParse(metrics_json);
  EXPECT_GE(metrics["counters"]["db.compaction.fallbacks"].number, 1.0);
  EXPECT_GE(metrics["counters"]["host.device.retries"].number, 1.0);
  EXPECT_GE(metrics["counters"]["host.device.faults"].number, 2.0);
  EXPECT_GE(metrics["gauges"]["health.card0.jobs_failed"].number, 1.0);
}

class RecordingSink : public obs::TraceSink {
 public:
  void Append(const obs::TraceEvent& event) override {
    MutexLock lock(&mutex_);
    names_.push_back(event.name);
  }
  std::vector<std::string> names() const {
    MutexLock lock(&mutex_);
    return names_;
  }

 private:
  mutable Mutex mutex_;
  std::vector<std::string> names_;
};

TEST_F(DbMetricsTest, OptionsInjectRegistryAndSink) {
  obs::MetricsRegistry registry;
  RecordingSink sink;
  {
    std::unique_ptr<DB> db = OpenDb(nullptr, &registry, &sink);
    RunWorkload(db.get());

    // The caller-owned registry is the one the DB publishes to, and the
    // property export reads from it.
    EXPECT_GT(registry.db_compaction_count.value(), 0u);
    std::string json;
    ASSERT_TRUE(db->GetProperty("fcae.metrics", &json));
    Value root = MustParse(json);
    EXPECT_EQ(
        static_cast<double>(registry.db_compaction_count.value()),
        root["counters"]["db.compaction.count"].number);
  }
  // The sink streamed the span lifecycle live (even events the ring
  // might have evicted).
  std::vector<std::string> names = sink.names();
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "flush"));
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "compaction"));
  EXPECT_NE(names.end(), std::find(names.begin(), names.end(), "pick"));
}

TEST_F(DbMetricsTest, PointInTimeGaugesEndWithTheirDb) {
  obs::MetricsRegistry registry;
  {
    std::unique_ptr<DB> db = OpenDb(nullptr, &registry);
    RunWorkload(db.get());
    std::string value;
    db->Get(ReadOptions(), "user1", &value).IgnoreError();
    reinterpret_cast<DBImpl*>(db.get())->TEST_QuarantineFile(12345);
    EXPECT_EQ(1, registry.integrity_quarantined_files.value());
    EXPECT_GT(registry.db_table_cache_open_tables.value(), 0);
  }
  EXPECT_EQ(0, registry.integrity_quarantined_files.value());
  EXPECT_EQ(0, registry.wc_state.value());
  EXPECT_EQ(0, registry.db_table_cache_open_tables.value());

  // The reopened DB's quarantine is empty, and the shared registry says
  // so too.
  std::unique_ptr<DB> db = OpenDb(nullptr, &registry);
  std::string quarantined;
  ASSERT_TRUE(db->GetProperty("fcae.num-quarantined-files", &quarantined));
  EXPECT_EQ("0", quarantined);
  EXPECT_EQ(0, registry.integrity_quarantined_files.value());
}

// The ring counts each eviction into the registry as it happens, so the
// registry is current with no property read in between.
TEST_F(DbMetricsTest, TraceEvictionsReachTheRegistryAtOnce) {
  obs::MetricsRegistry registry;
  std::unique_ptr<DB> db = OpenDb(nullptr, &registry, nullptr, "/ring_db",
                                  /*trace_ring_size=*/16);
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::Cat("k", i), "v").ok());
    ASSERT_TRUE(impl->TEST_CompactMemTable().ok());
  }
  const uint64_t before = registry.obs_trace_dropped_events.value();
  EXPECT_GT(before, 0u);

  // The trace export prints the same counter.
  std::string trace;
  ASSERT_TRUE(db->GetProperty("fcae.trace", &trace));
  const double printed = MustParse(trace)["eventsDropped"].number;
  EXPECT_LE(static_cast<double>(before), printed);
  EXPECT_GE(static_cast<double>(registry.obs_trace_dropped_events.value()),
            printed);
}

// With one registry shared by two DBs, every count below is the
// registry's: it sums what both DBs did, and each DB's exports print
// those totals.
TEST_F(DbMetricsTest, SharedRegistrySumsBothDbs) {
  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 9;
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);
  obs::MetricsRegistry registry;

  std::unique_ptr<DB> a =
      OpenDb(&executor, &registry, nullptr, "/shared_a", 16);
  RunWorkload(a.get());
  const obs::MetricsRegistry::Snapshot after_a = registry.TakeSnapshot();
  std::unique_ptr<DB> b =
      OpenDb(&executor, &registry, nullptr, "/shared_b", 16);
  RunWorkload(b.get());

  // Each DB's work reached the registry: A alone before B opened, and B
  // on top of it.
  EXPECT_GT(after_a.scheduler_flushes_started, 0u);
  EXPECT_GT(after_a.scheduler_compactions_started, 0u);
  EXPECT_GT(after_a.obs_trace_dropped_events, 0u);
  EXPECT_GT(registry.scheduler_flushes_started.value(),
            after_a.scheduler_flushes_started);
  EXPECT_GT(registry.scheduler_compactions_started.value(),
            after_a.scheduler_compactions_started);
  EXPECT_GT(registry.obs_trace_dropped_events.value(),
            after_a.obs_trace_dropped_events);

  // The device counts are the sum of the two DBs' compaction records.
  const CompactionExecStats ra =
      reinterpret_cast<DBImpl*>(a.get())->OffloadStats();
  const CompactionExecStats rb =
      reinterpret_cast<DBImpl*>(b.get())->OffloadStats();
  EXPECT_GT(ra.device_attempts, 0u);
  EXPECT_GT(rb.device_attempts, 0u);
  EXPECT_EQ(ra.device_attempts + rb.device_attempts,
            registry.host_device_attempts.value());
  EXPECT_EQ(ra.device_retries + rb.device_retries,
            registry.host_device_retries.value());
  EXPECT_EQ(ra.device_faults + rb.device_faults,
            registry.host_device_faults.value());
  EXPECT_EQ(ra.verify_failures + rb.verify_failures,
            registry.host_verify_rejects.value());

  // Each DB's lines print the registry's totals, not its own share.
  const std::string totals = test::Cat(
      "flushes=", registry.scheduler_flushes_started.value(),
      " compactions=", registry.scheduler_compactions_started.value());
  const std::string attempts =
      test::Cat("attempts=", registry.host_device_attempts.value(), " ");
  for (DB* db : {a.get(), b.get()}) {
    std::string line;
    ASSERT_TRUE(db->GetProperty("fcae.scheduler", &line));
    EXPECT_NE(std::string::npos, line.find(totals)) << line;
    ASSERT_TRUE(db->GetProperty("fcae.device-health", &line));
    EXPECT_NE(std::string::npos, line.find(attempts)) << line;
    std::string trace;
    ASSERT_TRUE(db->GetProperty("fcae.trace", &trace));
    EXPECT_EQ(static_cast<double>(registry.obs_trace_dropped_events.value()),
              MustParse(trace)["eventsDropped"].number);
  }
}

TEST_F(DbMetricsTest, NumFilesAtLevelDigitParsing) {
  std::unique_ptr<DB> db = OpenDb(nullptr);
  std::string value;

  ASSERT_TRUE(db->GetProperty("fcae.num-files-at-level0", &value));
  EXPECT_EQ("0", value);
  // Two digits parse (and "00" is still level 0)...
  EXPECT_TRUE(db->GetProperty("fcae.num-files-at-level00", &value));
  // ...but out-of-range levels are rejected.
  EXPECT_FALSE(db->GetProperty("fcae.num-files-at-level99", &value));
  // Regression: a digit string long enough to overflow a uint64
  // accumulator must be rejected, not wrapped into a valid level.
  EXPECT_FALSE(db->GetProperty(
      "fcae.num-files-at-level18446744073709551617", &value));
  EXPECT_FALSE(db->GetProperty("fcae.num-files-at-level000", &value));
  EXPECT_FALSE(db->GetProperty("fcae.num-files-at-level", &value));
  EXPECT_FALSE(db->GetProperty("fcae.num-files-at-level1x", &value));
}

}  // namespace
}  // namespace fcae
