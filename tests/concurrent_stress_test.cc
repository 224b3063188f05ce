// Multi-threaded stress tests for the concurrent offload path, meant to
// run under ThreadSanitizer (ctest -C stress in the tier1-tsan CI job).
//
// Unlike the tier-1 concurrency smoke tests, these drive foreground
// reads, writes, iterators, and property polls WHILE the background
// compaction thread offloads to a faulting device — including the
// quarantine / CPU-fallback / re-admission transitions of the health
// monitor — and assert that no acknowledged write is lost and no torn
// value is ever observed.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fpga/fault_injector.h"
#include "gtest/gtest.h"
#include "host/device_health_monitor.h"
#include "host/device_set.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

namespace {

/// Value encodes (thread, counter) plus a fixed-size filler so readers
/// can detect torn or truncated values structurally.
std::string MakeValue(int thread, int counter) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "t%02d-c%08d-", thread, counter);
  std::string v(buf);
  v.append(100, static_cast<char>('a' + thread));
  return v;
}

bool LooksWellFormed(const std::string& value) {
  return value.size() == 14 + 100 && value[0] == 't' && value[13] == '-';
}

}  // namespace

class ConcurrentStressTest : public testing::Test {
 public:
  ConcurrentStressTest() : env_(NewMemEnv(Env::Default())) {}

  /// Opens the DB with the given executor and a small write buffer so
  /// the workload constantly flushes and compacts in the background.
  std::unique_ptr<DB> OpenDb(CompactionExecutor* executor) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    options.compaction_executor = executor;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, "/stress", &db).ok());
    return std::unique_ptr<DB>(db);
  }

  std::unique_ptr<Env> env_;
};

TEST_F(ConcurrentStressTest, ReadersWritersIteratorsDuringFaultyOffload) {
  // A transient fault storm on the device while four kinds of
  // foreground work hammer the DB. Every job must complete via device
  // retry or CPU fallback without a torn read or a lost write.
  fpga::DeviceFaultConfig fault_config;
  fault_config.seed = 4242;
  fault_config.transient_rate = 0.15;
  fpga::DeviceFaultInjector injector(fault_config);

  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 2;  // Tournaments: many launches per job.
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  devices.device(0)->set_fault_injector(&injector);
  host::DeviceHealthMonitor& monitor = *devices.monitor(0);

  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  std::unique_ptr<DB> db = OpenDb(&executor);

  constexpr int kWriterThreads = 3;
  constexpr int kKeysPerWriter = 300;
  constexpr int kWritesPerThread = 2500;

  std::atomic<bool> stop{false};
  std::atomic<bool> write_failed{false};
  std::atomic<int> torn{0};

  // Writers: each owns a disjoint key range, overwriting it repeatedly
  // (key churn drives flushes, hence background offloads).
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; t++) {
    writers.emplace_back([&, t]() {
      Random rnd(1000 + t);
      WriteOptions wo;
      for (int i = 1; i <= kWritesPerThread; i++) {
        std::string key =
            test::Cat("w", t, "-k", rnd.Uniform(kKeysPerWriter));
        if (!db->Put(wo, key, MakeValue(t, i)).ok()) {
          write_failed.store(true);
          return;
        }
      }
    });
  }

  // Point readers: any value observed must be structurally intact.
  std::thread reader([&]() {
    Random rnd(77);
    std::string value;
    while (!stop.load(std::memory_order_acquire)) {
      std::string key = test::Cat("w", rnd.Uniform(kWriterThreads), "-k",
                                  rnd.Uniform(kKeysPerWriter));
      Status s = db->Get(ReadOptions(), key, &value);
      if (s.ok()) {
        if (!LooksWellFormed(value)) torn.fetch_add(1);
      } else if (!s.IsNotFound()) {
        torn.fetch_add(1);
      }
    }
  });

  // Full scans: a snapshot iterator must always see a consistent,
  // sorted, well-formed view regardless of concurrent compactions.
  std::thread scanner([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
      std::string prev_key;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string key = it->key().ToString();
        if (!prev_key.empty() && key <= prev_key) torn.fetch_add(1);
        if (!LooksWellFormed(it->value().ToString())) torn.fetch_add(1);
        prev_key = key;
      }
      if (!it->status().ok()) torn.fetch_add(1);
    }
  });

  // Property poller: health/stat surfaces must stay readable while the
  // executor is mid-job (they take leaf locks only).
  std::thread poller([&]() {
    std::string value;
    while (!stop.load(std::memory_order_acquire)) {
      if (!db->GetProperty("fcae.device-health", &value) || value.empty()) {
        torn.fetch_add(1);
      }
      db->GetProperty("fcae.stats", &value);
      (void)monitor.snapshot();
    }
  });

  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();
  scanner.join();
  poller.join();

  ASSERT_FALSE(write_failed.load());
  ASSERT_EQ(0, torn.load());

  // Every writer's final overwrites are readable and intact.
  std::string value;
  for (int t = 0; t < kWriterThreads; t++) {
    int found = 0;
    for (int k = 0; k < kKeysPerWriter; k++) {
      std::string key = test::Cat("w", t, "-k", k);
      Status s = db->Get(ReadOptions(), key, &value);
      if (s.ok()) {
        ASSERT_TRUE(LooksWellFormed(value)) << key;
        found++;
      } else {
        ASSERT_TRUE(s.IsNotFound()) << key << ": " << s.ToString();
      }
    }
    EXPECT_GT(found, 0) << "writer " << t << " left no visible keys";
  }

  // The storm was real and the offload path was actually exercised.
  EXPECT_GT(injector.launches(), 0u);
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  EXPECT_GT(impl->OffloadStats().device_attempts, 0u);
}

TEST_F(ConcurrentStressTest, QuarantineTransitionVisibleToConcurrentReaders) {
  // The card drops off the bus mid-run: the breaker opens, compactions
  // fall back to the CPU, and after a repair a probe re-admits the
  // device — all while readers and a property poller keep running.
  // The transition must never produce a torn read, a lost write, or an
  // unreadable health property.
  fpga::DeviceFaultConfig fault_config;
  fault_config.seed = 99;
  fault_config.card_drop_at_launch = 6;
  fpga::DeviceFaultInjector injector(fault_config);

  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 2;
  host::DeviceHealthOptions health_options;
  health_options.quarantine_threshold = 3;
  health_options.sticky_weight = 3;  // One sticky fault opens the breaker.
  health_options.probe_interval = 2;
  host::DeviceSet devices(engine_config, /*num_cards=*/1, fpga::PcieModel(),
                          health_options);
  devices.device(0)->set_fault_injector(&injector);
  host::DeviceHealthMonitor& monitor = *devices.monitor(0);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  std::unique_ptr<DB> db = OpenDb(&executor);

  constexpr int kKeys = 400;
  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};

  std::thread reader([&]() {
    Random rnd(5);
    std::string value;
    while (!stop.load(std::memory_order_acquire)) {
      std::string key = test::Cat("q", rnd.Uniform(kKeys));
      Status s = db->Get(ReadOptions(), key, &value);
      if (s.ok()) {
        if (!LooksWellFormed(value)) torn.fetch_add(1);
      } else if (!s.IsNotFound()) {
        torn.fetch_add(1);
      }
    }
  });

  std::thread poller([&]() {
    std::string health;
    while (!stop.load(std::memory_order_acquire)) {
      // Readable through quarantine, fallback, and re-admission alike.
      if (!db->GetProperty("fcae.device-health", &health) ||
          health.find("executor=fcae") == std::string::npos) {
        torn.fetch_add(1);
      }
    }
  });

  // Phase 1: write through the card drop. The drop happens on the 6th
  // kernel launch, well inside this workload.
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  Random rnd(11);
  WriteOptions wo;
  for (int i = 1; i <= 4000; i++) {
    std::string key = test::Cat("q", rnd.Uniform(kKeys));
    ASSERT_TRUE(db->Put(wo, key, MakeValue(1, i)).ok());
  }
  impl->TEST_CompactMemTable().IgnoreError();  // faults may be armed
  for (int level = 0; level < kNumLevels - 1; level++) {
    impl->TEST_CompactRange(level, nullptr, nullptr);
  }

  EXPECT_TRUE(injector.card_dropped());
  EXPECT_TRUE(monitor.quarantined());
  EXPECT_GT(monitor.snapshot().jobs_denied, 0u);

  // Phase 2: writes keep landing while quarantined (CPU fallback).
  for (int i = 1; i <= 1500; i++) {
    std::string key = test::Cat("q", rnd.Uniform(kKeys));
    ASSERT_TRUE(db->Put(wo, key, MakeValue(2, i)).ok());
  }

  // Phase 3: hot reset; keep compacting until a probe re-admits the
  // card, readers still running throughout.
  injector.RepairCard();
  bool readmitted = false;
  for (int round = 0; round < 12 && !readmitted; round++) {
    for (int i = 0; i < 40; i++) {
      std::string key = test::Cat("repair", i);
      ASSERT_TRUE(db->Put(wo, key, MakeValue(3, round)).ok());
    }
    impl->TEST_CompactMemTable().IgnoreError();  // faults may be armed
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
    readmitted = !monitor.quarantined();
  }
  EXPECT_TRUE(readmitted) << monitor.ToString();

  stop.store(true, std::memory_order_release);
  reader.join();
  poller.join();
  ASSERT_EQ(0, torn.load());

  // Post-transition sanity: the DB still serves intact data.
  std::string value;
  int present = 0;
  for (int k = 0; k < kKeys; k++) {
    Status s = db->Get(ReadOptions(), test::Cat("q", k), &value);
    if (s.ok()) {
      ASSERT_TRUE(LooksWellFormed(value));
      present++;
    }
  }
  EXPECT_GT(present, 0);
  host::DeviceHealthMonitor::Snapshot snap = monitor.snapshot();
  EXPECT_GE(snap.quarantines, 1u);
  EXPECT_GE(snap.readmissions, 1u);
}

}  // namespace fcae
