// Deterministic tests of the overload-protection layer (DESIGN.md §10):
// WriteController unit coverage of the debt/delay model, then DB-level
// tests driven by a hooked Env whose clock only advances on
// SleepForMicroseconds and whose background pools queue tasks for the
// test to drain by hand — write delays, L0 stops, wakeup-on-install,
// and the global memory budget all run with zero wall-clock sleeps and
// no scheduling races.

#include "test_util.h"
#include "util/write_controller.h"

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "lsm/db.h"
#include "obs/event_listener.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/mem_env.h"

namespace fcae {

namespace {

/// Forwards file operations to a wrapped (mem) Env, but owns time and
/// background execution: NowMicros is a counter that advances only via
/// SleepForMicroseconds, and SchedulePool enqueues tasks per pool for
/// the test to run explicitly.
class HookedEnv : public Env {
 public:
  explicit HookedEnv(Env* target) : target_(target) {}

  // --- clock ---
  uint64_t NowMicros() override {
    return micros_.load(std::memory_order_acquire);
  }
  void SleepForMicroseconds(int micros) override {
    micros_.fetch_add(micros, std::memory_order_acq_rel);
  }

  // --- background pools ---
  void Schedule(void (*function)(void*), void* arg) override {
    SchedulePool("default", 1, function, arg);
  }
  void SchedulePool(const char* pool, int max_threads,
                    void (*function)(void*), void* arg) override {
    std::lock_guard<std::mutex> l(mu_);
    queues_[pool].push_back({function, arg});
  }

  /// Runs every task currently queued on `pool` (tasks those tasks
  /// enqueue are left for the next call). Returns how many ran.
  int RunQueued(const std::string& pool) {
    std::deque<Task> batch;
    {
      std::lock_guard<std::mutex> l(mu_);
      batch.swap(queues_[pool]);
    }
    for (const Task& t : batch) t.function(t.arg);
    return static_cast<int>(batch.size());
  }

  /// Drains every pool until all queues stay empty (background tasks
  /// may schedule follow-up work). Must be called before closing the DB
  /// so its destructor's background-drain wait cannot hang.
  void DrainAll() {
    bool ran = true;
    while (ran) {
      ran = false;
      std::vector<std::string> pools;
      {
        std::lock_guard<std::mutex> l(mu_);
        for (const auto& kv : queues_) pools.push_back(kv.first);
      }
      for (const std::string& p : pools) ran |= RunQueued(p) > 0;
    }
  }

  // --- forwarded file system ---
  Status NewSequentialFile(const std::string& f,
                           SequentialFile** r) override {
    return target_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(const std::string& f,
                             RandomAccessFile** r) override {
    return target_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f, WritableFile** r) override {
    return target_->NewWritableFile(f, r);
  }
  Status NewAppendableFile(const std::string& f, WritableFile** r) override {
    return target_->NewAppendableFile(f, r);
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
    return target_->RenameFile(a, b);
  }
  Status SyncDir(const std::string& d) override {
    return target_->SyncDir(d);
  }
  Status LockFile(const std::string& f, FileLock** l) override {
    return target_->LockFile(f, l);
  }
  Status UnlockFile(FileLock* l) override { return target_->UnlockFile(l); }
  void StartThread(void (*function)(void*), void* arg) override {
    target_->StartThread(function, arg);
  }

 private:
  struct Task {
    void (*function)(void*);
    void* arg;
  };

  Env* const target_;
  std::atomic<uint64_t> micros_{1};
  std::mutex mu_;
  std::map<std::string, std::deque<Task>> queues_;
};

/// Counts write-stall begin and end events per cause. Begin fires
/// before the writer waits, so a begin means a writer is (about to be)
/// parked.
class StallListener : public obs::EventListener {
 public:
  void OnWriteStallBegin(const obs::WriteStallInfo& info) override {
    begins_[static_cast<int>(info.cause)].fetch_add(1);
  }
  void OnWriteStallEnd(const obs::WriteStallInfo& info) override {
    ends_[static_cast<int>(info.cause)].fetch_add(1);
  }
  int Begins(obs::WriteStallCause cause) const {
    return begins_[static_cast<int>(cause)].load();
  }
  int Ends(obs::WriteStallCause cause) const {
    return ends_[static_cast<int>(cause)].load();
  }

 private:
  std::atomic<int> begins_[3] = {};
  std::atomic<int> ends_[3] = {};
};

/// Passes each write-stall histogram recorded from `a` to `b`, in the
/// order delay, memtable stop, memory stop, L0 stop.
std::vector<uint64_t> StallPasses(const obs::MetricsRegistry::Snapshot& a,
                                  const obs::MetricsRegistry::Snapshot& b) {
  return {b.db_write_delay_micros.Count() - a.db_write_delay_micros.Count(),
          b.db_write_memtable_stop_micros.Count() -
              a.db_write_memtable_stop_micros.Count(),
          b.db_write_memory_stop_micros.Count() -
              a.db_write_memory_stop_micros.Count(),
          b.db_write_l0_stop_micros.Count() -
              a.db_write_l0_stop_micros.Count()};
}

int NumL0Files(DB* db) {
  std::string v;
  if (!db->GetProperty("fcae.num-files-at-level0", &v)) return -1;
  return std::stoi(v);
}

}  // namespace

// ---------------------------------------------------------------------------
// WriteController unit tests (pure model, no DB)
// ---------------------------------------------------------------------------

TEST(WriteControllerTest, DebtScoreRampsAcrossTheL0Band) {
  WriteControllerConfig config;  // slowdown 8, stop 12.
  WriteStallConditions cond;

  cond.l0_files = 0;
  EXPECT_EQ(0.0, WriteController::DebtScore(cond, config));
  cond.l0_files = 7;
  EXPECT_EQ(0.0, WriteController::DebtScore(cond, config));
  cond.l0_files = 8;
  EXPECT_DOUBLE_EQ(0.25, WriteController::DebtScore(cond, config));
  cond.l0_files = 10;
  EXPECT_DOUBLE_EQ(0.75, WriteController::DebtScore(cond, config));
  cond.l0_files = 12;
  EXPECT_EQ(1.0, WriteController::DebtScore(cond, config));
  cond.l0_files = 50;
  EXPECT_EQ(1.0, WriteController::DebtScore(cond, config));
}

TEST(WriteControllerTest, DebtScoreIncludesPendingCompactionBytes) {
  WriteControllerConfig config;
  config.soft_pending_compaction_bytes = 100;
  config.hard_pending_compaction_bytes = 200;
  WriteStallConditions cond;

  cond.pending_compaction_bytes = 100;
  EXPECT_EQ(0.0, WriteController::DebtScore(cond, config));
  cond.pending_compaction_bytes = 150;
  EXPECT_DOUBLE_EQ(0.5, WriteController::DebtScore(cond, config));
  cond.pending_compaction_bytes = 400;
  EXPECT_EQ(1.0, WriteController::DebtScore(cond, config));

  // The two signals combine by max, not by sum.
  cond.pending_compaction_bytes = 150;
  cond.l0_files = 11;  // L0 component = 1.0.
  EXPECT_EQ(1.0, WriteController::DebtScore(cond, config));
}

TEST(WriteControllerTest, DelayCurveIsBoundedAndMonotonic) {
  WriteControllerConfig config;
  EXPECT_EQ(0u, WriteController::DelayMicrosForDebt(0.0, config));
  EXPECT_EQ(config.min_delay_micros,
            WriteController::DelayMicrosForDebt(1e-9, config));
  uint64_t prev = 0;
  for (double debt = 0.1; debt <= 1.0; debt += 0.1) {
    const uint64_t d = WriteController::DelayMicrosForDebt(debt, config);
    EXPECT_GE(d, prev);
    EXPECT_LE(d, config.max_delay_micros);
    prev = d;
  }
  EXPECT_EQ(config.max_delay_micros,
            WriteController::DelayMicrosForDebt(1.0, config));
  EXPECT_EQ(config.max_delay_micros,
            WriteController::DelayMicrosForDebt(7.0, config));  // Clamped.
}

TEST(WriteControllerTest, StateMachineAndMemoryStop) {
  WriteControllerConfig config;
  config.total_write_buffer_size = 1000;
  WriteController wc(config);
  WriteStallConditions cond;

  EXPECT_EQ(WriteController::State::kOk, wc.Update(cond));

  cond.l0_files = 9;
  EXPECT_EQ(WriteController::State::kDelayed, wc.Update(cond));

  cond.l0_files = 12;
  EXPECT_EQ(WriteController::State::kStopped, wc.Update(cond));

  // Memory budget: over budget alone is not enough — a flush must be in
  // flight to drain it, otherwise the caller rotates instead.
  cond.l0_files = 0;
  cond.memtable_bytes = 2000;
  cond.imm_in_flight = false;
  EXPECT_EQ(WriteController::State::kOk, wc.Update(cond));
  cond.imm_in_flight = true;
  EXPECT_EQ(WriteController::State::kStopped, wc.Update(cond));
  cond.memtable_bytes = 500;
  EXPECT_EQ(WriteController::State::kOk, wc.Update(cond));
}

TEST(WriteControllerTest, CreditLedgerBoundsBurstBacklog) {
  WriteControllerConfig config;
  WriteController wc(config);
  WriteStallConditions cond;
  cond.l0_files = 10;  // Debt 0.75.
  ASSERT_EQ(WriteController::State::kDelayed, wc.Update(cond));

  // A burst of writes at the same instant may queue behind each other,
  // but the ledger is capped at one max delay past now — so per-write
  // latency (the p99 the overload gate checks) stays bounded no matter
  // how deep the burst.
  const uint64_t now = 1000000;
  for (int i = 0; i < 100; i++) {
    const uint64_t delay = wc.GetDelayMicros(now);
    EXPECT_GT(delay, 0u);
    EXPECT_LE(delay, config.max_delay_micros);
  }

  // Debt cleared: the backlog is dropped, not served.
  cond.l0_files = 0;
  EXPECT_EQ(WriteController::State::kOk, wc.Update(cond));
  EXPECT_EQ(0u, wc.GetDelayMicros(now));
}

// ---------------------------------------------------------------------------
// DB-level stall behaviour with the hooked Env
// ---------------------------------------------------------------------------

class WriteStallDBTest : public testing::Test {
 protected:
  WriteStallDBTest()
      : base_(NewMemEnv(Env::Default())), env_(base_.get()) {}

  void Open(size_t total_write_buffer = 0) {
    Options options;
    options.env = &env_;
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    options.total_write_buffer_size = total_write_buffer;
    options.metrics_registry = &metrics_;
    options.listeners.push_back(&listener_);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options, "/stalldb", &raw).ok());
    db_.reset(raw);
  }

  void Close() {
    if (db_ != nullptr) {
      env_.DrainAll();
      db_.reset();
    }
  }

  ~WriteStallDBTest() override { Close(); }

  // Writes values and drains flushes (never compactions) until level 0
  // holds `files` tables. Returns false if it cannot get there.
  bool GrowL0To(int files) {
    std::string value(4000, 'v');
    for (int i = 0; i < 10000; i++) {
      if (NumL0Files(db_.get()) >= files) return true;
      if (!db_->Put(WriteOptions(), test::Cat("key", i % 64), value)
               .ok()) {
        return false;
      }
      env_.RunQueued("fcae-flush");
    }
    return NumL0Files(db_.get()) >= files;
  }

  // Runs one writer until one of its Puts has passed a stall of
  // `cause`: once the writer has parked, drains `pool` to release it.
  // Returns StallPasses over the run; the stall's histogram count must
  // equal its listener begin/end pairs.
  std::vector<uint64_t> StallOnce(obs::WriteStallCause cause,
                                  const char* pool) {
    const int begins_before = listener_.Begins(cause);
    const int ends_before = listener_.Ends(cause);
    const obs::MetricsRegistry::Snapshot before = metrics_.TakeSnapshot();
    std::atomic<bool> done{false};
    std::thread writer([&]() {
      const std::string value(4000, 'w');
      for (int i = 0; i < 64 && listener_.Ends(cause) == ends_before; i++) {
        EXPECT_TRUE(
            db_->Put(WriteOptions(), test::Cat("stall", i), value).ok());
      }
      done.store(true);
    });
    for (int i = 0; i < 100000 && listener_.Begins(cause) == begins_before &&
                    !done.load();
         i++) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    const bool parked = listener_.Begins(cause) > begins_before;
    while (!done.load()) {
      env_.RunQueued(pool);
      if (!parked) env_.DrainAll();  // Never stalled: just finish.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    writer.join();
    EXPECT_TRUE(parked) << "the writer never stalled";
    const std::vector<uint64_t> passes =
        StallPasses(before, metrics_.TakeSnapshot());
    const int pairs = listener_.Ends(cause) - ends_before;
    EXPECT_EQ(listener_.Begins(cause) - begins_before, pairs);
    const uint64_t cause_passes =
        cause == obs::WriteStallCause::kL0Stop ? passes[3]
                                               : passes[1] + passes[2];
    EXPECT_EQ(static_cast<uint64_t>(pairs), cause_passes);
    return passes;
  }

  std::unique_ptr<Env> base_;
  HookedEnv env_;
  StallListener listener_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<DB> db_;
};

TEST_F(WriteStallDBTest, DelayRampsUpWithL0Debt) {
  Open();
  ASSERT_TRUE(GrowL0To(9));  // Past the slowdown trigger (8).

  const obs::MetricsRegistry::Snapshot before = metrics_.TakeSnapshot();
  const uint64_t clock_before = env_.NowMicros();

  ASSERT_TRUE(db_->Put(WriteOptions(), "delayed-key", "v").ok());

  // One delay pass, and no other write-stall instrument moved.
  const obs::MetricsRegistry::Snapshot after = metrics_.TakeSnapshot();
  EXPECT_EQ((std::vector<uint64_t>{1, 0, 0, 0}), StallPasses(before, after));
  const double paid =
      after.db_write_delay_micros.Sum() - before.db_write_delay_micros.Sum();
  // Debt at L0=9 is 0.5: the quadratic ramp prices that well above the
  // minimum delay but below the maximum — and the histogram's sum is
  // exactly the time the fake clock advanced while the writer slept.
  EXPECT_GE(paid, 250.0);
  EXPECT_LE(paid, 20000.0);
  EXPECT_EQ(static_cast<double>(env_.NowMicros() - clock_before), paid);

  // Debt paid per write: the next write pays again (no free rides), but
  // each individual delay stays bounded by the ledger cap.
  ASSERT_TRUE(db_->Put(WriteOptions(), "delayed-key2", "v").ok());
  EXPECT_EQ(2u, metrics_.db_write_delay_micros.snapshot().Count() -
                    before.db_write_delay_micros.Count());
}

TEST_F(WriteStallDBTest, StopOnL0BlocksWriterUntilCompactionInstalls) {
  Open();
  ASSERT_TRUE(GrowL0To(12));  // At the stop trigger.

  const int stops_before = listener_.Begins(obs::WriteStallCause::kL0Stop);
  std::atomic<bool> writer_done{false};
  Status writer_status;
  std::thread writer([&]() {
    // Big values fill the active memtable; rotation past the stop
    // trigger blocks on the condvar until a compaction installs.
    std::string value(4000, 'w');
    for (int i = 0; i < 40 && writer_status.ok(); i++) {
      writer_status =
          db_->Put(WriteOptions(), test::Cat("stop", i), value);
    }
    writer_done.store(true);
  });

  // The stall's begin event fires before the writer parks, so seeing it
  // means the writer is (about to be) blocked on the condvar.
  const auto stops = [&]() {
    return listener_.Begins(obs::WriteStallCause::kL0Stop);
  };
  for (int i = 0; i < 10000 && stops() == stops_before; i++) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_GT(stops(), stops_before) << "writer never hit the stop state";
  EXPECT_FALSE(writer_done.load());

  // Drain the compaction the stop branch scheduled: installing it clears
  // level 0 and must wake the stalled writer.
  for (int i = 0; i < 10000 && !writer_done.load(); i++) {
    env_.RunQueued("fcae-compact");
    env_.RunQueued("fcae-flush");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(writer_done.load()) << "install did not wake the writer";
  writer.join();
  EXPECT_TRUE(writer_status.ok()) << writer_status.ToString();
  EXPECT_LT(NumL0Files(db_.get()), 12);
}

TEST_F(WriteStallDBTest, MemoryBudgetStallsConcurrentWritersUntilFlush) {
  // Budget = exactly one live + one immutable memtable: the moment a
  // rotation leaves an imm in flight and the fresh memtable fills, the
  // budget stops writers until the flush drains.
  Open(/*total_write_buffer=*/128 * 1024);

  constexpr int kWriters = 4;
  std::atomic<int> writers_done{0};
  std::vector<Status> statuses(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([this, t, &writers_done, &statuses]() {
      std::string value(4000, static_cast<char>('a' + t));
      Status s;
      for (int i = 0; i < 16 && s.ok(); i++) {
        s = db_->Put(WriteOptions(),
                     test::Cat("w", t, "-", i),
                     value);
      }
      statuses[t] = s;
      writers_done.fetch_add(1);
    });
  }

  // Writers together push ~256 KB at a 128 KB budget. The flush lane is
  // held until a writer blocks, so the first memtable stays in flight
  // while the second fills and that writer must hit the memory stop;
  // then background work drains until all of them finish.
  for (int i = 0; i < 100000 && writers_done.load() < kWriters; i++) {
    if (listener_.Begins(obs::WriteStallCause::kMemtableFull) > 0) {
      env_.RunQueued("fcae-flush");
    }
    env_.RunQueued("fcae-compact");
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(kWriters, writers_done.load()) << "writers deadlocked";
  for (std::thread& w : writers) w.join();
  for (const Status& s : statuses) EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(metrics_.db_write_memory_stop_micros.snapshot().Count(), 0u);
  // Every write is durable in the memtable/L0 image despite the stalls.
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "w0-15", &value).ok());
}

// Each stall cause has one instrument: a pass of one cause moves its
// histogram and no other (the delay pass is covered above).
TEST_F(WriteStallDBTest, L0StopPassMovesOnlyTheL0StopHistogram) {
  Open();
  ASSERT_TRUE(GrowL0To(12));  // At the stop trigger.
  const std::vector<uint64_t> passes =
      StallOnce(obs::WriteStallCause::kL0Stop, "fcae-compact");
  EXPECT_EQ((std::vector<uint64_t>{0, 0, 0, passes[3]}), passes);
  EXPECT_GE(passes[3], 1u);
}

TEST_F(WriteStallDBTest, MemtableStopPassMovesOnlyTheMemtableStopHistogram) {
  Open();  // No total budget: a full memtable behind a pending flush.
  const std::vector<uint64_t> passes =
      StallOnce(obs::WriteStallCause::kMemtableFull, "fcae-flush");
  EXPECT_EQ((std::vector<uint64_t>{0, passes[1], 0, 0}), passes);
  EXPECT_GE(passes[1], 1u);
}

TEST_F(WriteStallDBTest, MemoryStopPassMovesOnlyTheMemoryStopHistogram) {
  // Budget = one live + one immutable memtable: the stop comes from the
  // budget before the live memtable is full.
  Open(/*total_write_buffer=*/128 * 1024);
  const std::vector<uint64_t> passes =
      StallOnce(obs::WriteStallCause::kMemtableFull, "fcae-flush");
  EXPECT_EQ((std::vector<uint64_t>{0, 0, passes[2], 0}), passes);
  EXPECT_GE(passes[2], 1u);
}

}  // namespace fcae
