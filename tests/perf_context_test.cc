// Per-operation profiling (obs/perf_context.h) end to end:
//  - the tick macros respect the thread's PerfLevel (kDisable records
//    nothing, kEnableCount skips clock reads, kEnableTime fills the
//    *_micros fields);
//  - the contexts are thread-local: worker-thread ticks never leak into
//    the test thread and vice versa;
//  - the read path accounts bloom probes, block-cache hits/misses,
//    block reads, memtable/SST probes and table-cache lookups;
//  - the write path accounts WAL appends/syncs and stall passes;
//  - iteration accounts hidden-entry skips and merge-iterator seeks.

#include <memory>
#include <string>
#include <thread>

#include "gtest/gtest.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "obs/perf_context.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/cache.h"
#include "util/filter_policy.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {
namespace {

/// Restores the previous perf level on scope exit so one test cannot
/// poison the next (gtest runs them all on this thread).
class ScopedPerfLevel {
 public:
  explicit ScopedPerfLevel(obs::PerfLevel level)
      : previous_(obs::GetPerfLevel()) {
    obs::SetPerfLevel(level);
    obs::GetPerfContext()->Reset();
    obs::GetIOStats()->Reset();
  }
  ~ScopedPerfLevel() { obs::SetPerfLevel(previous_); }

 private:
  obs::PerfLevel previous_;
};

TEST(PerfContextUnit, MacrosRespectPerfLevel) {
  {
    ScopedPerfLevel level(obs::PerfLevel::kDisable);
    FCAE_PERF_COUNT(bloom_filter_hits, 3);
    FCAE_PERF_TIME(block_read_micros, 100);
    FCAE_IOSTATS_COUNT(bytes_read, 7);
    EXPECT_EQ(0u, obs::GetPerfContext()->bloom_filter_hits);
    EXPECT_EQ(0u, obs::GetPerfContext()->block_read_micros);
    EXPECT_EQ(0u, obs::GetIOStats()->bytes_read);
    EXPECT_EQ(0u, obs::PerfNowMicrosIfEnabled());
  }
  {
    ScopedPerfLevel level(obs::PerfLevel::kEnableCount);
    FCAE_PERF_COUNT(bloom_filter_hits, 3);
    FCAE_PERF_TIME(block_read_micros, 100);  // Timing still off.
    FCAE_IOSTATS_COUNT(bytes_read, 7);
    EXPECT_EQ(3u, obs::GetPerfContext()->bloom_filter_hits);
    EXPECT_EQ(0u, obs::GetPerfContext()->block_read_micros);
    EXPECT_EQ(7u, obs::GetIOStats()->bytes_read);
    EXPECT_EQ(0u, obs::PerfNowMicrosIfEnabled());
  }
  {
    ScopedPerfLevel level(obs::PerfLevel::kEnableTime);
    FCAE_PERF_TIME(block_read_micros, 100);
    EXPECT_EQ(100u, obs::GetPerfContext()->block_read_micros);
    EXPECT_GT(obs::PerfNowMicrosIfEnabled(), 0u);
  }
}

TEST(PerfContextUnit, TimerGuardChargesOnlyAtEnableTime) {
  {
    ScopedPerfLevel level(obs::PerfLevel::kEnableCount);
    {
      FCAE_PERF_TIMER_GUARD(timer, wal_sync_micros);
    }
    EXPECT_EQ(0u, obs::GetPerfContext()->wal_sync_micros);
  }
  {
    ScopedPerfLevel level(obs::PerfLevel::kEnableTime);
    {
      FCAE_PERF_TIMER_GUARD(timer, wal_sync_micros);
      // Read after the guard starts, so the guard spans at least 2 us.
      const uint64_t t0 = obs::PerfNowMicros();
      while (obs::PerfNowMicros() - t0 < 2) {
      }
    }
    EXPECT_GE(obs::GetPerfContext()->wal_sync_micros, 2u);
  }
}

TEST(PerfContextUnit, ResetAndToString) {
  ScopedPerfLevel level(obs::PerfLevel::kEnableCount);
  obs::PerfContext* perf = obs::GetPerfContext();
  EXPECT_EQ("", perf->ToString());

  perf->bloom_filter_hits = 2;
  perf->wal_appends = 5;
  // Declaration order, nonzero fields only.
  EXPECT_EQ("bloom_filter_hits=2 wal_appends=5", perf->ToString());

  perf->Reset();
  EXPECT_EQ("", perf->ToString());
  EXPECT_EQ(0u, perf->bloom_filter_hits);

  obs::IOStatsContext* io = obs::GetIOStats();
  io->bytes_written = 9;
  EXPECT_EQ("bytes_written=9", io->ToString());
  io->Reset();
  EXPECT_EQ("", io->ToString());
}

TEST(PerfContextUnit, ContextsAreThreadLocal) {
  ScopedPerfLevel level(obs::PerfLevel::kEnableCount);
  FCAE_PERF_COUNT(sst_probes, 1);

  uint64_t worker_probes_before = ~0ull;
  uint64_t worker_probes_after = ~0ull;
  obs::PerfLevel worker_level = obs::PerfLevel::kEnableTime;
  std::thread worker([&]() {
    // A fresh thread starts disabled with zeroed contexts regardless of
    // the spawner's state.
    worker_level = obs::GetPerfLevel();
    worker_probes_before = obs::GetPerfContext()->sst_probes;
    obs::SetPerfLevel(obs::PerfLevel::kEnableCount);
    FCAE_PERF_COUNT(sst_probes, 10);
    worker_probes_after = obs::GetPerfContext()->sst_probes;
  });
  worker.join();

  EXPECT_EQ(obs::PerfLevel::kDisable, worker_level);
  EXPECT_EQ(0u, worker_probes_before);
  EXPECT_EQ(10u, worker_probes_after);
  // The worker's ticks did not land here.
  EXPECT_EQ(1u, obs::GetPerfContext()->sst_probes);
}

class PerfContextDbTest : public testing::Test {
 public:
  PerfContextDbTest()
      : env_(NewMemEnv(Env::Default())),
        filter_(NewBloomFilterPolicy(10)),
        block_cache_(NewLRUCache(64 * 1024)) {}

  void Open() {
    db_.reset();
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    options.filter_policy = filter_.get();
    options.block_cache = block_cache_.get();
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(options, "/perf_db", &db).ok());
    db_.reset(db);
  }

  /// Loads `n` keys and compacts them down so reads hit SSTables with
  /// filters instead of the memtable.
  void LoadAndCompact(int n) {
    WriteOptions wo;
    for (int i = 0; i < n; i++) {
      ASSERT_TRUE(db_->Put(wo, Key(i), std::string(100, 'v')).ok());
    }
    auto* impl = reinterpret_cast<DBImpl*>(db_.get());
    ASSERT_TRUE(impl->TEST_CompactMemTable().ok());
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  static std::string Key(int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return buf;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> filter_;
  std::unique_ptr<Cache> block_cache_;
  std::unique_ptr<DB> db_;
};

TEST_F(PerfContextDbTest, ReadPathAccounting) {
  Open();
  LoadAndCompact(2000);

  ScopedPerfLevel level(obs::PerfLevel::kEnableTime);
  obs::PerfContext* perf = obs::GetPerfContext();
  ReadOptions ro;
  std::string value;

  // Present keys: every Get probes the memtable first, then tables;
  // the filter passes the key and a data block settles it.
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Get(ro, Key(i * 4), &value).ok());
  }
  EXPECT_EQ(500u, perf->memtable_probes);
  EXPECT_GT(perf->sst_probes, 0u);
  EXPECT_GT(perf->table_cache_hits + perf->table_cache_misses, 0u);
  EXPECT_GT(perf->bloom_filter_hits, 0u);
  EXPECT_GT(perf->block_cache_hits + perf->block_cache_misses, 0u);
  EXPECT_GT(perf->block_read_count, 0u);
  EXPECT_GT(perf->block_read_bytes, 0u);
  EXPECT_GT(obs::GetIOStats()->bytes_read, 0u);
  const uint64_t negatives_before = perf->bloom_filter_negatives;

  // Absent keys land in some table's key range but the filter proves
  // absence without a data-block read.
  for (int i = 0; i < 500; i++) {
    EXPECT_TRUE(db_->Get(ro, Key(i * 4) + "x", &value).IsNotFound());
  }
  EXPECT_GT(perf->bloom_filter_negatives, negatives_before);
}

TEST_F(PerfContextDbTest, WritePathAccounting) {
  Open();
  ScopedPerfLevel level(obs::PerfLevel::kEnableTime);
  obs::PerfContext* perf = obs::GetPerfContext();

  WriteOptions wo;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(wo, Key(i), "v").ok());
  }
  EXPECT_EQ(100u, perf->wal_appends);
  EXPECT_EQ(0u, perf->wal_syncs);
  EXPECT_GT(obs::GetIOStats()->bytes_written, 0u);

  wo.sync = true;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db_->Put(wo, Key(i), "v2").ok());
  }
  EXPECT_EQ(110u, perf->wal_appends);
  EXPECT_EQ(10u, perf->wal_syncs);
}

TEST_F(PerfContextDbTest, IterationAccounting) {
  Open();
  WriteOptions wo;
  // Overwrites and deletes leave hidden internal entries a scan must
  // step over.
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(db_->Put(wo, Key(i), test::Cat("v", round)).ok());
    }
  }
  for (int i = 0; i < 500; i += 2) {
    ASSERT_TRUE(db_->Delete(wo, Key(i)).ok());
  }

  ScopedPerfLevel level(obs::PerfLevel::kEnableCount);
  obs::PerfContext* perf = obs::GetPerfContext();
  std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
  int live = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    live++;
  }
  EXPECT_EQ(250, live);
  EXPECT_GT(perf->merge_iterator_seeks, 0u);
  EXPECT_GT(perf->internal_keys_skipped, 0u);
}

TEST_F(PerfContextDbTest, DisabledLevelRecordsNothing) {
  Open();
  LoadAndCompact(1000);

  ScopedPerfLevel level(obs::PerfLevel::kDisable);
  ReadOptions ro;
  std::string value;
  WriteOptions wo;
  for (int i = 0; i < 200; i++) {
    db_->Get(ro, Key(i * 5), &value).IgnoreError();
    ASSERT_TRUE(db_->Put(wo, Key(i), "w").ok());
  }
  EXPECT_EQ("", obs::GetPerfContext()->ToString());
  EXPECT_EQ("", obs::GetIOStats()->ToString());
}

TEST_F(PerfContextDbTest, CountLevelSkipsClockReads) {
  Open();
  LoadAndCompact(1000);

  ScopedPerfLevel level(obs::PerfLevel::kEnableCount);
  obs::PerfContext* perf = obs::GetPerfContext();
  ReadOptions ro;
  std::string value;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Get(ro, Key(i * 2), &value).ok());
  }
  EXPECT_GT(perf->block_read_count, 0u);
  EXPECT_EQ(0u, perf->block_read_micros);
  EXPECT_EQ(0u, obs::GetIOStats()->read_micros);
}

}  // namespace
}  // namespace fcae
