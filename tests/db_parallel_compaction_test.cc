// Stress tests for the parallel compaction scheduler: foreground
// writers, point readers, and iterators run against a DB compacting
// with four workers and sub-compaction sharding while the offload
// device injects faults. Runs under the "stress" ctest configuration
// (TSan in the nightly CI job).
//
// Also checks the core correctness contract of parallelism: the DB
// contents after a workload are identical whether compactions ran on
// one thread or four with sharding enabled.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fpga/fault_injector.h"
#include "gtest/gtest.h"
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

/// Full ordered dump of the DB's live contents.
std::vector<std::pair<std::string, std::string>> DumpContents(DB* db) {
  std::vector<std::pair<std::string, std::string>> out;
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out.emplace_back(it->key().ToString(), it->value().ToString());
  }
  EXPECT_TRUE(it->status().ok());
  return out;
}

}  // namespace

class DBParallelCompactionTest : public testing::Test {
 public:
  DBParallelCompactionTest() : env_(NewMemEnv(Env::Default())) {}

  std::unique_ptr<DB> OpenDb(const std::string& name,
                             CompactionExecutor* executor, int threads,
                             int subcompactions, int offload_cards = 1) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    options.compaction_executor = executor;
    options.compaction_threads = threads;
    options.max_subcompactions = subcompactions;
    options.num_offload_cards = offload_cards;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, name, &db).ok());
    return std::unique_ptr<DB>(db);
  }

  std::unique_ptr<Env> env_;
};

TEST_F(DBParallelCompactionTest, WritersReadersUnderFourWorkersWithFaults) {
  // Transient device faults force retries and CPU fallbacks while four
  // compaction workers and sharded L0->L1 jobs churn in the background.
  // No acknowledged write may be lost; no torn value may be observed.
  fpga::DeviceFaultConfig fault_config;
  fault_config.seed = 20260806;
  fault_config.transient_rate = 0.10;
  fpga::DeviceFaultInjector injector(fault_config);

  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 2;  // Tournaments: many launches per job.
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  devices.device(0)->set_fault_injector(&injector);

  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  std::unique_ptr<DB> db =
      OpenDb("/parallel-stress", &executor, /*threads=*/4,
             /*subcompactions=*/4);

  constexpr int kWriterThreads = 4;
  constexpr int kKeysPerWriter = 400;
  constexpr int kWritesPerThread = 3000;

  std::atomic<bool> stop{false};
  std::atomic<bool> write_failed{false};
  std::atomic<int> torn{0};

  // Writers own disjoint key ranges; constant overwrites drive flushes
  // and keep all four compaction workers claiming level pairs.
  std::vector<std::thread> writers;
  std::vector<std::map<std::string, std::string>> last_written(kWriterThreads);
  for (int t = 0; t < kWriterThreads; t++) {
    writers.emplace_back([&, t]() {
      Random rnd(9000 + t);
      WriteOptions wo;
      for (int i = 1; i <= kWritesPerThread; i++) {
        std::string key =
            test::Cat("w", t, "-k", rnd.Uniform(kKeysPerWriter));
        std::string value = MakeValue(t, i);
        if (!db->Put(wo, key, value).ok()) {
          write_failed.store(true);
          return;
        }
        last_written[t][key] = value;
      }
    });
  }

  // Point readers: every observed value must be structurally intact.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&, r]() {
      Random rnd(500 + r);
      std::string value;
      while (!stop.load()) {
        std::string key = test::Cat("w", rnd.Uniform(kWriterThreads), "-k",
                                    rnd.Uniform(kKeysPerWriter));
        Status s = db->Get(ReadOptions(), key, &value);
        if (s.ok() && !LooksWellFormed(value)) torn.fetch_add(1);
      }
    });
  }

  // Iterator scans: snapshot consistency across concurrent installs.
  std::thread scanner([&]() {
    while (!stop.load()) {
      std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        std::string key = it->key().ToString();
        if (!prev.empty() && key <= prev) torn.fetch_add(1);
        if (!LooksWellFormed(it->value().ToString())) torn.fetch_add(1);
        prev = key;
      }
    }
  });

  for (std::thread& w : writers) w.join();
  stop.store(true);
  for (std::thread& r : readers) r.join();
  scanner.join();

  ASSERT_FALSE(write_failed.load());
  EXPECT_EQ(torn.load(), 0);

  // Every acknowledged write's final value must be durable and intact.
  std::string value;
  for (int t = 0; t < kWriterThreads; t++) {
    for (const auto& kv : last_written[t]) {
      ASSERT_TRUE(db->Get(ReadOptions(), kv.first, &value).ok())
          << "lost key " << kv.first;
      EXPECT_EQ(value, kv.second) << "stale value for " << kv.first;
    }
  }

  // The scheduler property reflects a drained, parallel-capable pool.
  std::string prop;
  ASSERT_TRUE(db->GetProperty("fcae.scheduler", &prop));
  EXPECT_NE(prop.find("/4"), std::string::npos) << prop;
}

TEST_F(DBParallelCompactionTest, ParallelContentsMatchSequential) {
  // The same deterministic workload (overwrites + deletes + manual
  // compaction) must produce identical logical contents whether
  // compactions run on one worker or four with sharding.
  fpga::EngineConfig engine_config;
  host::DeviceSet devices_seq(engine_config, /*num_cards=*/1);
  host::FcaeCompactionExecutor exec_seq(&devices_seq);
  host::DeviceSet devices_par(engine_config, /*num_cards=*/1);
  host::FcaeCompactionExecutor exec_par(&devices_par);

  auto run_workload = [](DB* db) {
    Random rnd(4711);
    WriteOptions wo;
    for (int round = 0; round < 6; round++) {
      for (int i = 0; i < 2000; i++) {
        std::string key = test::Cat("key", rnd.Uniform(1500));
        if (rnd.Uniform(10) == 0) {
          ASSERT_TRUE(db->Delete(wo, key).ok());
        } else {
          std::string value =
              test::Cat("v", round, "-", key, std::string(64, 'x'));
          ASSERT_TRUE(db->Put(wo, key, value).ok());
        }
      }
    }
    db->CompactRange(nullptr, nullptr);
  };

  std::unique_ptr<DB> seq =
      OpenDb("/seq", &exec_seq, /*threads=*/1, /*subcompactions=*/1);
  run_workload(seq.get());
  std::vector<std::pair<std::string, std::string>> seq_dump =
      DumpContents(seq.get());

  std::unique_ptr<DB> par =
      OpenDb("/par", &exec_par, /*threads=*/4, /*subcompactions=*/4);
  run_workload(par.get());
  std::vector<std::pair<std::string, std::string>> par_dump =
      DumpContents(par.get());

  ASSERT_FALSE(seq_dump.empty());
  ASSERT_EQ(seq_dump.size(), par_dump.size());
  EXPECT_TRUE(seq_dump == par_dump);
}

TEST_F(DBParallelCompactionTest, QuarantinedCardContentsMatchSingleCard) {
  // Two-card set with card 0 quarantined before the workload: the
  // healthy sibling must absorb every sharded compaction (no CPU
  // fallback because the device path was "full"), and the resulting DB
  // contents must be byte-identical to a single-card run of the same
  // deterministic workload.
  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 9;
  host::DeviceSet devices(engine_config, /*num_cards=*/2);
  host::FcaeCompactionExecutor two_card_exec(&devices);
  devices.monitor(0)->RecordJobFailure(/*sticky=*/true);
  ASSERT_TRUE(devices.monitor(0)->quarantined());

  host::DeviceSet one_card(engine_config, /*num_cards=*/1);
  host::FcaeCompactionExecutor one_card_exec(&one_card);

  auto run_workload = [](DB* db) {
    Random rnd(20260808);
    WriteOptions wo;
    for (int round = 0; round < 5; round++) {
      for (int i = 0; i < 2000; i++) {
        std::string key = test::Cat("key", rnd.Uniform(1200));
        if (rnd.Uniform(12) == 0) {
          ASSERT_TRUE(db->Delete(wo, key).ok());
        } else {
          ASSERT_TRUE(db->Put(wo, key,
                              test::Cat("r", round, "-", key,
                                        std::string(80, 'z')))
                          .ok());
        }
      }
    }
    db->CompactRange(nullptr, nullptr);
  };

  std::unique_ptr<DB> two = OpenDb("/two-card", &two_card_exec,
                                   /*threads=*/4, /*subcompactions=*/4,
                                   /*offload_cards=*/2);
  run_workload(two.get());
  std::vector<std::pair<std::string, std::string>> two_dump =
      DumpContents(two.get());

  std::unique_ptr<DB> one = OpenDb("/one-card", &one_card_exec,
                                   /*threads=*/1, /*subcompactions=*/1);
  run_workload(one.get());
  std::vector<std::pair<std::string, std::string>> one_dump =
      DumpContents(one.get());

  ASSERT_FALSE(one_dump.empty());
  ASSERT_EQ(one_dump.size(), two_dump.size());
  EXPECT_TRUE(one_dump == two_dump);

  // The dead card ran nothing; the healthy one took every shard; the DB
  // never fell back to CPU compaction for lack of a device.
  EXPECT_EQ(0u, devices.device(0)->kernels_launched());
  EXPECT_GT(devices.device(1)->kernels_launched(), 0u);
  auto* impl = reinterpret_cast<DBImpl*>(two.get());
  EXPECT_EQ(0, impl->FallbackCompactions());
}

TEST_F(DBParallelCompactionTest, WritersReadersUnderTwoCardsWithFaults) {
  // Multi-card fault storm: both cards draw independent transient fault
  // streams (per-card seeds) while four compaction workers shard jobs
  // across them. No acknowledged write may be lost.
  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 9;
  host::DeviceSet devices(engine_config, /*num_cards=*/2);
  fpga::DeviceFaultConfig fault_config;
  fault_config.seed = 20260807;
  fault_config.transient_rate = 0.08;
  devices.InjectFaults(fault_config);
  host::FcaeCompactionExecutor executor(&devices);

  std::unique_ptr<DB> db =
      OpenDb("/two-card-storm", &executor, /*threads=*/4,
             /*subcompactions=*/4, /*offload_cards=*/2);

  constexpr int kWriterThreads = 4;
  constexpr int kKeysPerWriter = 400;
  constexpr int kWritesPerThread = 2500;

  std::atomic<bool> write_failed{false};
  std::vector<std::thread> writers;
  std::vector<std::map<std::string, std::string>> last_written(kWriterThreads);
  for (int t = 0; t < kWriterThreads; t++) {
    writers.emplace_back([&, t]() {
      Random rnd(7000 + t);
      WriteOptions wo;
      for (int i = 1; i <= kWritesPerThread; i++) {
        std::string key =
            test::Cat("w", t, "-k", rnd.Uniform(kKeysPerWriter));
        std::string value = MakeValue(t, i);
        if (!db->Put(wo, key, value).ok()) {
          write_failed.store(true);
          return;
        }
        last_written[t][key] = value;
      }
    });
  }
  for (std::thread& w : writers) w.join();
  ASSERT_FALSE(write_failed.load());
  db->CompactRange(nullptr, nullptr);

  std::string value;
  for (int t = 0; t < kWriterThreads; t++) {
    for (const auto& kv : last_written[t]) {
      ASSERT_TRUE(db->Get(ReadOptions(), kv.first, &value).ok())
          << "lost key " << kv.first;
      EXPECT_EQ(value, kv.second) << "stale value for " << kv.first;
    }
  }

  // Both independent fault streams were actually consulted.
  ASSERT_NE(nullptr, devices.injector(0));
  ASSERT_NE(nullptr, devices.injector(1));
  uint64_t launches =
      devices.injector(0)->launches() + devices.injector(1)->launches();
  EXPECT_GT(launches, 0u);
}

TEST_F(DBParallelCompactionTest, CompactRangeWaitsForAllWorkers) {
  // CompactRange must block until every in-flight job is installed,
  // even with multiple workers: afterwards, level 0 is empty.
  fpga::EngineConfig engine_config;
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  host::FcaeCompactionExecutor executor(&devices);

  std::unique_ptr<DB> db =
      OpenDb("/compact-wait", &executor, /*threads=*/4, /*subcompactions=*/2);

  WriteOptions wo;
  Random rnd(333);
  for (int i = 0; i < 8000; i++) {
    std::string key = test::Cat("k", rnd.Uniform(4000));
    ASSERT_TRUE(db->Put(wo, key, key + std::string(80, 'y')).ok());
  }
  db->CompactRange(nullptr, nullptr);

  std::string num;
  ASSERT_TRUE(db->GetProperty("fcae.num-files-at-level0", &num));
  EXPECT_EQ(num, "0");
}

}  // namespace fcae
