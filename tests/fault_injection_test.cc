// Fault injection, two layers:
//  1. An Env wrapper that can start failing all writes at a chosen
//     moment (full disk / dying disk). Once writes fail, the DB must
//     surface errors instead of acknowledging lost data, and after the
//     "disk" recovers and the DB reopens, every previously acknowledged
//     write must still be there.
//  2. A DeviceFaultInjector storm on the FPGA offload path: under a
//     seeded transient fault rate every compaction must still complete
//     (device retry or CPU fallback) with zero lost or duplicated keys,
//     and a sticky card drop must quarantine the device while the DB
//     keeps compacting in software.

#include <atomic>
#include <map>
#include <memory>
#include <set>

#include "fpga/fault_injector.h"
#include "gtest/gtest.h"
#include "host/device_set.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/env.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

namespace {

class FaultyWritableFile : public WritableFile {
 public:
  FaultyWritableFile(WritableFile* target, std::atomic<bool>* fail)
      : target_(target), fail_(fail) {}

  Status Append(const Slice& data) override {
    if (fail_->load(std::memory_order_acquire)) {
      return Status::IOError("injected write fault");
    }
    return target_->Append(data);
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override {
    if (fail_->load(std::memory_order_acquire)) {
      return Status::IOError("injected flush fault");
    }
    return target_->Flush();
  }
  Status Sync() override {
    if (fail_->load(std::memory_order_acquire)) {
      return Status::IOError("injected sync fault");
    }
    return target_->Sync();
  }

 private:
  std::unique_ptr<WritableFile> target_;
  std::atomic<bool>* fail_;
};

/// Forwards everything to a wrapped Env; write paths can be poisoned.
class FaultInjectionEnv : public Env {
 public:
  explicit FaultInjectionEnv(Env* target) : target_(target) {}

  void StartFailingWrites() { fail_.store(true, std::memory_order_release); }
  void StopFailingWrites() { fail_.store(false, std::memory_order_release); }

  Status NewSequentialFile(const std::string& f,
                           SequentialFile** r) override {
    return target_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(const std::string& f,
                             RandomAccessFile** r) override {
    return target_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f, WritableFile** r) override {
    if (fail_.load(std::memory_order_acquire)) {
      *r = nullptr;
      return Status::IOError("injected create fault");
    }
    WritableFile* inner;
    Status s = target_->NewWritableFile(f, &inner);
    if (s.ok()) {
      *r = new FaultyWritableFile(inner, &fail_);
    }
    return s;
  }
  Status NewAppendableFile(const std::string& f, WritableFile** r) override {
    if (fail_.load(std::memory_order_acquire)) {
      *r = nullptr;
      return Status::IOError("injected create fault");
    }
    WritableFile* inner;
    Status s = target_->NewAppendableFile(f, &inner);
    if (s.ok()) {
      *r = new FaultyWritableFile(inner, &fail_);
    }
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
    if (fail_.load(std::memory_order_acquire)) {
      return Status::IOError("injected rename fault");
    }
    return target_->RenameFile(a, b);
  }
  Status LockFile(const std::string& f, FileLock** l) override {
    return target_->LockFile(f, l);
  }
  Status UnlockFile(FileLock* l) override { return target_->UnlockFile(l); }
  void Schedule(void (*fn)(void*), void* arg) override {
    target_->Schedule(fn, arg);
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

}  // namespace

class FaultInjectionTest : public testing::Test {
 public:
  FaultInjectionTest()
      : base_env_(NewMemEnv(Env::Default())),
        env_(std::make_unique<FaultInjectionEnv>(base_env_.get())) {}

  Status OpenDb() {
    db_.reset();
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    DB* db = nullptr;
    Status s = DB::Open(options, "/faulty", &db);
    db_.reset(db);
    return s;
  }

  std::unique_ptr<Env> base_env_;
  std::unique_ptr<FaultInjectionEnv> env_;
  std::unique_ptr<DB> db_;
};

TEST_F(FaultInjectionTest, AcknowledgedWritesSurviveDiskOutage) {
  ASSERT_TRUE(OpenDb().ok());

  // Phase 1: writes succeed.
  std::set<std::string> acknowledged;
  WriteOptions wo;
  for (int i = 0; i < 3000; i++) {
    std::string key = test::Cat("k", i);
    Status s = db_->Put(wo, key, std::string(100, 'v'));
    ASSERT_TRUE(s.ok());
    acknowledged.insert(key);
  }

  // Phase 2: the disk dies. Writes must start failing (possibly after
  // a short grace while the current memtable has room — the WAL append
  // itself fails immediately, so really at once).
  env_->StartFailingWrites();
  int failures = 0;
  for (int i = 3000; i < 3200; i++) {
    if (!db_->Put(wo, test::Cat("k", i), "x").ok()) {
      failures++;
    }
  }
  EXPECT_GT(failures, 150);  // The vast majority fail loudly.

  // Phase 3: disk recovers, DB reopens; every acknowledged write is
  // intact.
  env_->StopFailingWrites();
  ASSERT_TRUE(OpenDb().ok());
  std::string value;
  for (const std::string& key : acknowledged) {
    ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
    ASSERT_EQ(std::string(100, 'v'), value);
  }
}

TEST_F(FaultInjectionTest, FailedOpenLeavesNoDb) {
  env_->StartFailingWrites();
  ASSERT_FALSE(OpenDb().ok());
  ASSERT_EQ(nullptr, db_.get());
  env_->StopFailingWrites();
  ASSERT_TRUE(OpenDb().ok());
}

TEST_F(FaultInjectionTest, FlushFailureDoesNotLoseData) {
  ASSERT_TRUE(OpenDb().ok());
  WriteOptions wo;
  // Fill most of a memtable.
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Put(wo, test::Cat("pre", i),
                         std::string(150, 'p'))
                    .ok());
  }
  // Fail during the flush the next writes trigger. Some writes may be
  // acknowledged into the WAL before the background flush fails.
  env_->StartFailingWrites();
  for (int i = 0; i < 500; i++) {
    // Writes are expected to start failing mid-loop; recovery is
    // asserted after reopen.
    db_->Put(wo, test::Cat("mid", i), std::string(150, 'm'))
        .IgnoreError();
  }
  env_->StopFailingWrites();

  // Reopen and verify the pre-outage data survived (WAL replay).
  ASSERT_TRUE(OpenDb().ok());
  std::string value;
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), test::Cat("pre", i), &value)
                    .ok())
        << i;
    ASSERT_EQ(std::string(150, 'p'), value);
  }
}

// ---------------------------------------------------------------------
// Device-fault storms on the offload path.
// ---------------------------------------------------------------------

class DeviceFaultTest : public testing::Test {
 public:
  DeviceFaultTest() : env_(NewMemEnv(Env::Default())) {}

  /// Opens /devfault with the offload executor wired to `device`.
  std::unique_ptr<DB> OpenDb(CompactionExecutor* executor) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    options.compaction_executor = executor;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, "/devfault", &db).ok());
    return std::unique_ptr<DB>(db);
  }

  /// Runs a deterministic overwrite/delete workload, mirroring it into
  /// `model`, then compacts every level so each table moves through the
  /// executor at least once.
  void RunWorkload(DB* db, std::map<std::string, std::string>* model) {
    Random rnd(301);
    WriteOptions wo;
    for (int i = 0; i < 4000; i++) {
      std::string key = test::Cat("user", rnd.Uniform(800));
      if (rnd.Uniform(10) < 8) {
        std::string value(64 + rnd.Uniform(100),
                          static_cast<char>('a' + i % 26));
        ASSERT_TRUE(db->Put(wo, key, value).ok());
        (*model)[key] = value;
      } else {
        ASSERT_TRUE(db->Delete(wo, key).ok());
        model->erase(key);
      }
    }
    CompactAllLevels(db);
  }

  /// Flushes the memtable and manually compacts every level, so every
  /// table moves through the executor at least once. (A flush may land
  /// directly at level 2 when it overlaps nothing, so compacting level
  /// 0 alone would miss it.)
  void CompactAllLevels(DB* db) {
    auto* impl = reinterpret_cast<DBImpl*>(db);
    impl->TEST_CompactMemTable().IgnoreError();  // faults may be armed
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  /// Full scan: the DB must contain exactly the model — no lost keys,
  /// no duplicated/resurrected keys.
  void VerifyExactContents(DB* db,
                           const std::map<std::string, std::string>& model) {
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    auto expect = model.begin();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      ASSERT_NE(expect, model.end())
          << "extra key in DB: " << it->key().ToString();
      EXPECT_EQ(expect->first, it->key().ToString());
      EXPECT_EQ(expect->second, it->value().ToString());
      ++expect;
    }
    EXPECT_EQ(expect, model.end()) << "lost keys starting at "
                                   << (expect == model.end()
                                           ? std::string("<none>")
                                           : expect->first);
    EXPECT_TRUE(it->status().ok());
  }

  std::unique_ptr<Env> env_;
};

TEST_F(DeviceFaultTest, TransientFaultStormLosesNothing) {
  // 10% of kernel launches draw a transient fault (DMA corruption —
  // half of it silent — kernel timeouts, device-busy). Every compaction
  // must still complete via retry or CPU fallback, with zero lost or
  // duplicated keys and no unverified device output installed.
  fpga::DeviceFaultConfig fault_config;
  fault_config.seed = 1234;
  fault_config.transient_rate = 0.10;
  fpga::DeviceFaultInjector injector(fault_config);

  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 2;  // Tournaments: many launches per job.
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  devices.device(0)->set_fault_injector(&injector);

  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  std::unique_ptr<DB> db = OpenDb(&executor);
  std::map<std::string, std::string> model;
  RunWorkload(db.get(), &model);

  // The storm actually happened...
  EXPECT_GT(injector.total_faults(), 0u);
  EXPECT_GT(injector.launches(), injector.total_faults());
  // ...and the data is exactly intact.
  VerifyExactContents(db.get(), model);

  // Writes still work (no background error poisoned the DB: every
  // failed device job must have been recovered).
  ASSERT_TRUE(db->Put(WriteOptions(), "post-storm", "ok").ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "post-storm", &value).ok());

  // The retry/fault counters made it to the DB properties.
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  CompactionExecStats stats = impl->OffloadStats();
  EXPECT_GT(stats.device_attempts, 0u);
  EXPECT_GT(stats.device_faults, 0u);
  std::string health;
  ASSERT_TRUE(db->GetProperty("fcae.device-health", &health));
  EXPECT_NE(std::string::npos, health.find("executor=fcae")) << health;
  EXPECT_NE(std::string::npos, health.find("faults=")) << health;

  // The fault storm is retryable by definition; none of it may have
  // been recorded as a background error.
  std::string bg;
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=ok")) << bg;
}

TEST_F(DeviceFaultTest, StickyFaultQuarantinesDeviceAndDbCompactsOnCpu) {
  // The card drops off the bus early on. The device executor must fail
  // sticky, the circuit breaker must quarantine it, and the DB must keep
  // compacting on the CPU with nothing lost.
  fpga::DeviceFaultConfig fault_config;
  fault_config.card_drop_at_launch = 2;
  fpga::DeviceFaultInjector injector(fault_config);

  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 2;
  host::DeviceHealthOptions health_options;
  health_options.quarantine_threshold = 3;
  health_options.sticky_weight = 3;  // One sticky fault opens the breaker.
  health_options.probe_interval = 2;  // Probe the card often.
  host::DeviceSet devices(engine_config, /*num_cards=*/1, fpga::PcieModel(),
                          health_options);
  devices.device(0)->set_fault_injector(&injector);
  host::DeviceHealthMonitor& monitor = *devices.monitor(0);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  std::unique_ptr<DB> db = OpenDb(&executor);
  std::map<std::string, std::string> model;
  RunWorkload(db.get(), &model);

  EXPECT_TRUE(injector.card_dropped());
  // At least the original drop; probe launches on the dead card add more.
  EXPECT_GE(injector.count(fpga::DeviceFaultClass::kCardDropped), 1u);

  // The breaker opened and subsequent compactions were denied the
  // device (modulo periodic probes, which fail fast on the dead card).
  host::DeviceHealthMonitor::Snapshot snap = monitor.snapshot();
  EXPECT_TRUE(snap.quarantined);
  EXPECT_GE(snap.quarantines, 1u);
  EXPECT_GT(snap.jobs_denied, 0u);

  // The DB soldiered on in software: data intact, compactions ran.
  VerifyExactContents(db.get(), model);
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  (void)impl;
  std::string health;
  ASSERT_TRUE(db->GetProperty("fcae.device-health", &health));
  EXPECT_NE(std::string::npos, health.find("card0 quarantined=1")) << health;

  // Retryable device conditions (busy card, dropped card) belong to the
  // offload retry/fallback machinery — they must never surface as a
  // sticky background error, soft or hard.
  std::string bg;
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=ok")) << bg;

  // Hot reset: the card comes back; a probe job re-admits it.
  injector.RepairCard();
  bool readmitted = false;
  for (int round = 0; round < 12 && !readmitted; round++) {
    for (int i = 0; i < 20; i++) {
      std::string key = test::Cat("repair", i);
      std::string value(512, static_cast<char>('A' + round));
      ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    }
    CompactAllLevels(db.get());
    readmitted = !monitor.quarantined();
  }
  EXPECT_TRUE(readmitted) << monitor.ToString();
  VerifyExactContents(db.get(), model);
}

}  // namespace fcae
