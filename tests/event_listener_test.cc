// EventListener framework (obs/event_listener.h) wired through the DB,
// the offload executor and the device health monitor:
//  - flush and compaction events arrive in lifecycle order with
//    populated payloads;
//  - a sharded compaction counts its input tables once;
//  - a fault-injected device produces OnOffloadRetry / OnOffloadFallback
//    and a completed-compaction payload with fell_back=true;
//  - write stalls produce paired Begin/End events per cause;
//  - a failing disk produces OnBackgroundError, and recovery produces
//    OnBackgroundErrorResumed;
//  - circuit-breaker transitions produce OnDeviceHealthChange;
//  - Options::trace_ring_size clips the ring and the drop counter shows
//    up in fcae.metrics;
//  - Options::stats_dump_period_sec emits "fcae.stats" records through
//    Options::info_log, and GetProperty("fcae.stats") carries the
//    interval section.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fpga/fault_injector.h"
#include "gtest/gtest.h"
#include "host/device_health_monitor.h"
#include "host/device_set.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/filename.h"
#include "mini_json.h"
#include "obs/event_listener.h"
#include "obs/logger.h"
#include "obs/metrics.h"
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

/// Records every callback as a named entry. Callbacks fire on writer
/// and background threads concurrently, so everything is under a lock.
class RecordingListener : public obs::EventListener {
 public:
  struct Event {
    std::string name;
    obs::FlushJobInfo flush;
    obs::CompactionJobInfo compaction;
    obs::OffloadRetryInfo retry;
    obs::OffloadFallbackInfo fallback;
    obs::WriteStallInfo stall;
    obs::BackgroundErrorInfo bg_error;
    obs::DeviceHealthChangeInfo health;
  };

  void OnFlushBegin(const obs::FlushJobInfo& info) override {
    Event e;
    e.name = "flush_begin";
    e.flush = info;
    Push(e);
  }
  void OnFlushCompleted(const obs::FlushJobInfo& info) override {
    Event e;
    e.name = "flush_completed";
    e.flush = info;
    Push(e);
  }
  void OnCompactionBegin(const obs::CompactionJobInfo& info) override {
    Event e;
    e.name = "compaction_begin";
    e.compaction = info;
    Push(e);
  }
  void OnCompactionCompleted(const obs::CompactionJobInfo& info) override {
    Event e;
    e.name = "compaction_completed";
    e.compaction = info;
    Push(e);
  }
  void OnOffloadRetry(const obs::OffloadRetryInfo& info) override {
    Event e;
    e.name = "offload_retry";
    e.retry = info;
    Push(e);
  }
  void OnOffloadFallback(const obs::OffloadFallbackInfo& info) override {
    Event e;
    e.name = "offload_fallback";
    e.fallback = info;
    Push(e);
  }
  void OnWriteStallBegin(const obs::WriteStallInfo& info) override {
    Event e;
    e.name = "stall_begin";
    e.stall = info;
    Push(e);
  }
  void OnWriteStallEnd(const obs::WriteStallInfo& info) override {
    Event e;
    e.name = "stall_end";
    e.stall = info;
    Push(e);
  }
  void OnBackgroundError(const obs::BackgroundErrorInfo& info) override {
    Event e;
    e.name = "bg_error";
    e.bg_error = info;
    Push(e);
  }
  void OnBackgroundErrorResumed() override {
    Event e;
    e.name = "bg_resumed";
    Push(e);
  }
  void OnDeviceHealthChange(
      const obs::DeviceHealthChangeInfo& info) override {
    Event e;
    e.name = "health_change";
    e.health = info;
    Push(e);
  }

  std::vector<Event> events() const {
    MutexLock lock(&mutex_);
    return events_;
  }
  std::vector<Event> Named(const std::string& name) const {
    std::vector<Event> out;
    for (const Event& e : events()) {
      if (e.name == name) out.push_back(e);
    }
    return out;
  }
  int Count(const std::string& name) const {
    return static_cast<int>(Named(name).size());
  }
  /// Index of the first event with `name`, or -1.
  int FirstIndex(const std::string& name) const {
    const std::vector<Event> all = events();
    for (size_t i = 0; i < all.size(); i++) {
      if (all[i].name == name) return static_cast<int>(i);
    }
    return -1;
  }

 private:
  void Push(const Event& e) {
    MutexLock lock(&mutex_);
    events_.push_back(e);
  }

  mutable Mutex mutex_;
  std::vector<Event> events_;
};

class EventListenerTest : public testing::Test {
 public:
  EventListenerTest() : env_(NewMemEnv(Env::Default())) {}

  std::unique_ptr<DB> OpenDb(Options options) {
    // Options() defaults to the real Env; every test runs on the mem env
    // unless it brings its own wrapper.
    if (options.env == Env::Default()) options.env = env_.get();
    options.create_if_missing = true;
    if (options.write_buffer_size == Options().write_buffer_size) {
      options.write_buffer_size = 64 * 1024;
    }
    options.listeners.push_back(&listener_);
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, "/listener_db", &db).ok());
    return std::unique_ptr<DB>(db);
  }

  void RunWorkload(DB* db, int writes = 4000) {
    Random rnd(301);
    WriteOptions wo;
    for (int i = 0; i < writes; i++) {
      std::string key = test::Cat("user", rnd.Uniform(800));
      ASSERT_TRUE(
          db->Put(wo, key, std::string(64 + rnd.Uniform(100), 'v')).ok());
    }
    auto* impl = reinterpret_cast<DBImpl*>(db);
    impl->TEST_CompactMemTable().IgnoreError();
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  std::unique_ptr<Env> env_;
  RecordingListener listener_;
};

TEST_F(EventListenerTest, FlushAndCompactionLifecycle) {
  {
    std::unique_ptr<DB> db = OpenDb(Options());
    RunWorkload(db.get());
  }  // Close the DB so no event is still in flight.

  // Flushes: begins and completions pair up, and the first begin
  // precedes the first completion.
  const int flush_begins = listener_.Count("flush_begin");
  const int flush_completions = listener_.Count("flush_completed");
  EXPECT_GT(flush_begins, 0);
  EXPECT_EQ(flush_begins, flush_completions);
  EXPECT_LT(listener_.FirstIndex("flush_begin"),
            listener_.FirstIndex("flush_completed"));
  for (const auto& e : listener_.Named("flush_completed")) {
    EXPECT_TRUE(e.flush.status.ok());
    EXPECT_EQ("/listener_db", e.flush.db_name);
    EXPECT_GT(e.flush.output_file_number, 0u);
    EXPECT_GT(e.flush.output_bytes, 0u);
  }

  const int compaction_begins = listener_.Count("compaction_begin");
  EXPECT_GT(compaction_begins, 0);
  EXPECT_EQ(compaction_begins, listener_.Count("compaction_completed"));
  EXPECT_LT(listener_.FirstIndex("compaction_begin"),
            listener_.FirstIndex("compaction_completed"));
  for (const auto& e : listener_.Named("compaction_completed")) {
    EXPECT_TRUE(e.compaction.status.ok());
    EXPECT_EQ("/listener_db", e.compaction.db_name);
    EXPECT_EQ(e.compaction.base_level + 1, e.compaction.output_level);
    EXPECT_GT(e.compaction.input_files, 0);
    EXPECT_GE(e.compaction.shards, 1);
    EXPECT_GT(e.compaction.input_bytes, 0u);
  }
}

/// Records, for each sharded compaction, its reported input bytes and
/// the table bytes on disk when it began. The DB runs with one
/// compaction worker, so each completion pairs with the latest begin.
class ShardedInputListener : public obs::EventListener {
 public:
  struct Job {
    uint64_t input_bytes;
    uint64_t table_bytes_at_begin;
  };

  ShardedInputListener(Env* env, std::string dbname)
      : env_(env), dbname_(std::move(dbname)) {}

  void OnCompactionBegin(const obs::CompactionJobInfo&) override {
    uint64_t total = 0;
    std::vector<std::string> children;
    env_->GetChildren(dbname_, &children).IgnoreError();
    for (const std::string& child : children) {
      uint64_t number = 0;
      uint64_t size = 0;
      FileType type = FileType::kLogFile;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile &&
          env_->GetFileSize(TableFileName(dbname_, number), &size).ok()) {
        total += size;
      }
    }
    MutexLock lock(&mutex_);
    table_bytes_at_begin_ = total;
  }

  void OnCompactionCompleted(const obs::CompactionJobInfo& info) override {
    if (info.shards <= 1) return;
    MutexLock lock(&mutex_);
    jobs_.push_back({info.input_bytes, table_bytes_at_begin_});
  }

  std::vector<Job> jobs() const {
    MutexLock lock(&mutex_);
    return jobs_;
  }

 private:
  Env* const env_;
  const std::string dbname_;
  mutable Mutex mutex_;
  uint64_t table_bytes_at_begin_ = 0;
  std::vector<Job> jobs_;
};

TEST_F(EventListenerTest, ShardedJobCountsInputsOnce) {
  // Every shard of a sub-compaction reads the same input tables; the
  // job's record must count them once, so its input bytes can never
  // exceed the table bytes that existed when it began.
  ShardedInputListener sharded(env_.get(), "/listener_db");
  {
    Options options;
    options.max_subcompactions = 4;
    options.compaction_threads = 1;
    options.compression = kNoCompression;
    options.write_buffer_size = 256 * 1024;
    options.listeners.push_back(&sharded);
    std::unique_ptr<DB> db = OpenDb(options);
    Random rnd(17);
    WriteOptions wo;
    for (int i = 0; i < 60000; i++) {
      std::string key = std::to_string(1000000 + rnd.Uniform(1000000));
      ASSERT_TRUE(db->Put(wo, key, std::string(400, 'a' + i % 26)).ok());
    }
  }  // Close the DB so no event is still in flight.

  const std::vector<ShardedInputListener::Job> jobs = sharded.jobs();
  ASSERT_GT(jobs.size(), 0u) << "no compaction was sharded";
  for (size_t i = 0; i < jobs.size(); i++) {
    EXPECT_LE(jobs[i].input_bytes, jobs[i].table_bytes_at_begin)
        << "sharded job " << i << " of " << jobs.size();
  }
}

TEST_F(EventListenerTest, OffloadRetryAndFallback) {
  // Three armed kernel timeouts, one per attempt the executor makes:
  // the first offloaded compaction retries twice, gives up, and reruns
  // on the CPU.
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

  {
    Options options;
    options.compaction_threads = 1;  // Faults land on one job, in order.
    options.compaction_executor = &executor;
    std::unique_ptr<DB> db = OpenDb(options);
    RunWorkload(db.get());
  }

  const auto retries = listener_.Named("offload_retry");
  ASSERT_GE(retries.size(), 1u);
  EXPECT_EQ(1, retries[0].retry.attempt);
  EXPECT_FALSE(retries[0].retry.reason.empty());

  const auto fallbacks = listener_.Named("offload_fallback");
  ASSERT_GE(fallbacks.size(), 1u);
  EXPECT_FALSE(fallbacks[0].fallback.reason.empty());
  EXPECT_LT(listener_.FirstIndex("offload_retry"),
            listener_.FirstIndex("offload_fallback"));

  // The failed job's completion payload records the fallback; at least
  // one later compaction completed on the device.
  bool saw_fallback_completion = false;
  bool saw_offloaded_completion = false;
  for (const auto& e : listener_.Named("compaction_completed")) {
    saw_fallback_completion |= e.compaction.fell_back;
    saw_offloaded_completion |= e.compaction.offloaded;
  }
  EXPECT_TRUE(saw_fallback_completion);
  EXPECT_TRUE(saw_offloaded_completion);
}

TEST_F(EventListenerTest, WriteStallBeginEndPairs) {
  {
    Options options;
    // Hair-trigger L0 limits so the workload crosses the slowdown and
    // stop thresholds.
    options.l0_slowdown_writes_trigger = 2;
    options.l0_stop_writes_trigger = 6;
    std::unique_ptr<DB> db = OpenDb(options);
    RunWorkload(db.get(), 8000);
  }

  const auto begins = listener_.Named("stall_begin");
  const auto ends = listener_.Named("stall_end");
  ASSERT_GT(begins.size(), 0u);
  EXPECT_EQ(begins.size(), ends.size());
  EXPECT_LT(listener_.FirstIndex("stall_begin"),
            listener_.FirstIndex("stall_end"));

  // Begin/End counts match per cause too (stalls of different causes
  // can interleave only with themselves on the single writer thread).
  std::map<obs::WriteStallCause, int> begin_by_cause;
  std::map<obs::WriteStallCause, int> end_by_cause;
  for (const auto& e : begins) begin_by_cause[e.stall.cause]++;
  for (const auto& e : ends) end_by_cause[e.stall.cause]++;
  EXPECT_EQ(begin_by_cause, end_by_cause);

  for (const auto& e : begins) {
    EXPECT_EQ(0u, e.stall.micros);  // Duration is an End-side fact.
  }
  uint64_t total_stall_micros = 0;
  for (const auto& e : ends) total_stall_micros += e.stall.micros;
  EXPECT_GT(total_stall_micros, 0u);

  // The cause names render (used by listeners that log).
  for (const auto& entry : begin_by_cause) {
    EXPECT_NE(nullptr, obs::WriteStallCauseName(entry.first));
  }
}

// Env wrapper whose write paths can be poisoned at runtime; trimmed
// copy of the one in fault_injection_test.cc.
class FailingWritableFile : public WritableFile {
 public:
  FailingWritableFile(WritableFile* target, std::atomic<bool>* fail)
      : target_(target), fail_(fail) {}
  Status Append(const Slice& data) override {
    if (fail_->load()) return Status::IOError("injected write fault");
    return target_->Append(data);
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override {
    if (fail_->load()) return Status::IOError("injected flush fault");
    return target_->Flush();
  }
  Status Sync() override {
    if (fail_->load()) return Status::IOError("injected sync fault");
    return target_->Sync();
  }

 private:
  std::unique_ptr<WritableFile> target_;
  std::atomic<bool>* fail_;
};

class FailingEnv : public Env {
 public:
  explicit FailingEnv(Env* target) : target_(target) {}
  void StartFailingWrites() { fail_.store(true); }
  void StopFailingWrites() { fail_.store(false); }

  Status NewSequentialFile(const std::string& f,
                           SequentialFile** r) override {
    return target_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(const std::string& f,
                             RandomAccessFile** r) override {
    return target_->NewRandomAccessFile(f, r);
  }
  // Only table (.ldb) creation fails: the WAL keeps rotating, so the
  // failure surfaces in the background flush — the path that records a
  // background error — rather than synchronously in the writer.
  static bool IsTableFile(const std::string& f) {
    return f.size() > 4 && f.compare(f.size() - 4, 4, ".ldb") == 0;
  }
  Status NewWritableFile(const std::string& f, WritableFile** r) override {
    if (fail_.load() && IsTableFile(f)) {
      *r = nullptr;
      return Status::IOError("injected create fault");
    }
    WritableFile* inner;
    Status s = target_->NewWritableFile(f, &inner);
    if (s.ok()) *r = new FailingWritableFile(inner, &fail_);
    return s;
  }
  Status NewAppendableFile(const std::string& f, WritableFile** r) override {
    if (fail_.load() && IsTableFile(f)) {
      *r = nullptr;
      return Status::IOError("injected create fault");
    }
    WritableFile* inner;
    Status s = target_->NewAppendableFile(f, &inner);
    if (s.ok()) *r = new FailingWritableFile(inner, &fail_);
    return s;
  }
  bool FileExists(const std::string& f) override {
    return target_->FileExists(f);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return target_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override {
    return target_->RemoveFile(f);
  }
  Status CreateDir(const std::string& d) override {
    return target_->CreateDir(d);
  }
  Status RemoveDir(const std::string& d) override {
    return target_->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* s) override {
    return target_->GetFileSize(f, s);
  }
  Status RenameFile(const std::string& a, const std::string& b) override {
    if (fail_.load()) return Status::IOError("injected rename fault");
    return target_->RenameFile(a, b);
  }
  Status LockFile(const std::string& f, FileLock** l) override {
    return target_->LockFile(f, l);
  }
  Status UnlockFile(FileLock* l) override { return target_->UnlockFile(l); }
  void Schedule(void (*fn)(void*), void* arg) override {
    target_->Schedule(fn, arg);
  }
  void SchedulePool(const char* pool, int max_threads, void (*fn)(void*),
                    void* arg) override {
    target_->SchedulePool(pool, max_threads, fn, arg);
  }
  void StartThread(void (*fn)(void*), void* arg) override {
    target_->StartThread(fn, arg);
  }
  uint64_t NowMicros() override { return target_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    target_->SleepForMicroseconds(micros);
  }

 private:
  Env* target_;
  std::atomic<bool> fail_{false};
};

TEST_F(EventListenerTest, BackgroundErrorAndResume) {
  FailingEnv failing_env(env_.get());
  std::unique_ptr<DB> db;
  {
    Options options;
    options.env = &failing_env;
    db = OpenDb(options);
  }
  WriteOptions wo;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(wo, test::Cat("k", i), "v").ok());
  }

  failing_env.StartFailingWrites();
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  EXPECT_FALSE(impl->TEST_CompactMemTable().ok());
  ASSERT_GE(listener_.Count("bg_error"), 1);
  const auto errors = listener_.Named("bg_error");
  EXPECT_FALSE(errors[0].bg_error.status.ok());
  EXPECT_FALSE(errors[0].bg_error.hard);  // Retryable I/O is soft.

  failing_env.StopFailingWrites();
  ASSERT_TRUE(db->Resume().ok());
  EXPECT_GE(listener_.Count("bg_resumed"), 1);
  EXPECT_LT(listener_.FirstIndex("bg_error"),
            listener_.FirstIndex("bg_resumed"));
  db.reset();
}

TEST_F(EventListenerTest, DeviceHealthChangeOnBreakerTransitions) {
  obs::EventNotifier notifier({&listener_});
  host::DeviceHealthOptions health_options;
  health_options.quarantine_threshold = 2;
  health_options.probe_interval = 1;
  host::DeviceHealthMonitor monitor(health_options, /*card_id=*/0);
  monitor.AttachNotifier(&notifier);

  monitor.RecordJobFailure(/*sticky=*/false);
  EXPECT_EQ(0, listener_.Count("health_change"));  // Below threshold.
  monitor.RecordJobFailure(/*sticky=*/false);
  auto changes = listener_.Named("health_change");
  ASSERT_EQ(1u, changes.size());
  EXPECT_TRUE(changes[0].health.quarantined);
  EXPECT_EQ(2, changes[0].health.consecutive_failures);

  // A successful probe closes the breaker and fires the counterpart.
  EXPECT_TRUE(monitor.Admit());  // probe_interval=1: first ask probes.
  monitor.RecordJobSuccess();
  changes = listener_.Named("health_change");
  ASSERT_EQ(2u, changes.size());
  EXPECT_FALSE(changes[1].health.quarantined);
  EXPECT_EQ(0, changes[1].health.consecutive_failures);
  EXPECT_FALSE(monitor.quarantined());
}

TEST_F(EventListenerTest, TraceRingSizeClipsAndCountsDrops) {
  Options options;
  // Far below one workload's event count. The DB clamps the knob to a
  // floor of 16, so ask for less and expect the floor.
  options.trace_ring_size = 8;
  std::unique_ptr<DB> db = OpenDb(options);
  RunWorkload(db.get());

  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.trace", &json));
  Value trace = MustParse(json);
  EXPECT_LE(trace["traceEvents"].array.size(), 16u);
  EXPECT_GT(trace["eventsDropped"].number, 0.0);

  ASSERT_TRUE(db->GetProperty("fcae.metrics", &json));
  Value metrics = MustParse(json);
  EXPECT_GT(metrics["counters"]["obs.trace.dropped_events"].number, 0.0);
}

class CapturingLogger : public obs::Logger {
 public:
  void Log(const obs::LogRecord& record) override {
    MutexLock lock(&mutex_);
    records_.push_back(record);
  }
  std::vector<obs::LogRecord> records() const {
    MutexLock lock(&mutex_);
    return records_;
  }

 private:
  mutable Mutex mutex_;
  std::vector<obs::LogRecord> records_;
};

TEST_F(EventListenerTest, StatsDumperEmitsThroughInfoLog) {
  CapturingLogger logger;
  Options options;
  options.stats_dump_period_sec = 1;
  options.info_log = &logger;
  std::unique_ptr<DB> db = OpenDb(options);

  WriteOptions wo;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(wo, test::Cat("k", i), "v").ok());
  }
  // Two periods with headroom; the dumper wakes in 10ms slices.
  Env::Default()->SleepForMicroseconds(2500 * 1000);
  db.reset();  // Stops the dumper; no records arrive after this.

  const std::vector<obs::LogRecord> records = logger.records();
  ASSERT_GE(records.size(), 1u);
  for (const obs::LogRecord& r : records) {
    EXPECT_EQ("fcae.stats", r.tag);
    EXPECT_EQ(obs::LogRecord::Level::kInfo, r.level);
    EXPECT_NE(std::string::npos, r.message.find("Interval"));
    ASSERT_EQ(1u, r.fields.size());
    EXPECT_EQ("seq", r.fields[0].first);
  }
  // Sequence numbers are 1-based and increasing.
  EXPECT_EQ("1", records[0].fields[0].second);

  // The canonical rendering carries the tag and the key/value fields.
  const std::string line = obs::FormatLogRecord(records[0]);
  EXPECT_NE(std::string::npos, line.find("fcae.stats"));
  EXPECT_NE(std::string::npos, line.find("seq=1"));
}

TEST_F(EventListenerTest, StatsPropertyHasIntervalSection) {
  std::unique_ptr<DB> db = OpenDb(Options());
  RunWorkload(db.get(), 2000);

  std::string first;
  ASSERT_TRUE(db->GetProperty("fcae.stats", &first));
  EXPECT_NE(std::string::npos, first.find("Interval"));

  // Quiet window: the second read's interval section reports zero new
  // flushes while the cumulative section still shows the history.
  std::string second;
  ASSERT_TRUE(db->GetProperty("fcae.stats", &second));
  EXPECT_NE(std::string::npos, second.find("Interval"));
  EXPECT_NE(std::string::npos, second.find("flush"));
}

}  // namespace
}  // namespace fcae
