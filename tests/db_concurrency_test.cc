// Concurrency smoke tests: multiple client threads reading and writing
// while background flushes/compactions run (on both the CPU and the
// offload executor) must preserve every acknowledged write and never
// return torn values.

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

namespace {

/// Value encodes (thread, counter) so readers can check consistency.
std::string MakeValue(int thread, int counter) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "t%02d-c%08d-", thread, counter);
  std::string v(buf);
  v.append(100, static_cast<char>('a' + thread));
  return v;
}

}  // namespace

class DbConcurrencyTest : public testing::TestWithParam<bool> {
 public:
  DbConcurrencyTest() : env_(NewMemEnv(Env::Default())) {
    if (GetParam()) {
      fpga::EngineConfig config;
      config.num_inputs = 9;
      config.input_width = 8;
      config.value_width = 8;
      devices_ = std::make_unique<host::DeviceSet>(config, /*num_cards=*/1);
      executor_ =
          std::make_unique<host::FcaeCompactionExecutor>(devices_.get());
    }
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 128 * 1024;  // Frequent background work.
    options.compaction_executor = executor_.get();
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, "/concurrent", &db).ok());
    db_.reset(db);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<host::DeviceSet> devices_;
  std::unique_ptr<host::FcaeCompactionExecutor> executor_;
  std::unique_ptr<DB> db_;
};

TEST_P(DbConcurrencyTest, ParallelWritersAllWritesSurvive) {
  constexpr int kThreads = 4;
  constexpr int kWritesPerThread = 1500;

  std::vector<std::thread> threads;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t]() {
      WriteOptions wo;
      for (int i = 0; i < kWritesPerThread; i++) {
        std::string key = test::Cat("t", t, "-k", i);
        if (!db_->Put(wo, key, MakeValue(t, i)).ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_FALSE(failed.load());

  // Every acknowledged write must be present with the right value.
  std::string value;
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kWritesPerThread; i += 97) {
      std::string key = test::Cat("t", t, "-k", i);
      ASSERT_TRUE(db_->Get(ReadOptions(), key, &value).ok()) << key;
      ASSERT_EQ(MakeValue(t, i), value);
    }
  }
}

TEST_P(DbConcurrencyTest, ReadersDuringWrites) {
  constexpr int kKeys = 400;
  // Seed every key once so readers always find something.
  for (int k = 0; k < kKeys; k++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), test::Cat("key", k), MakeValue(0, 0))
            .ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::thread reader([&]() {
    Random rnd(7);
    std::string value;
    while (!stop.load(std::memory_order_acquire)) {
      std::string key = test::Cat("key", rnd.Uniform(kKeys));
      Status s = db_->Get(ReadOptions(), key, &value);
      if (s.ok()) {
        // Values are always "tNN-cNNNNNNNN-" + 100 letter bytes.
        if (value.size() != 14 + 100 || value[0] != 't') {
          torn.fetch_add(1);
        }
      } else if (!s.IsNotFound()) {
        torn.fetch_add(1);
      }
    }
  });

  Random rnd(13);
  for (int i = 1; i <= 6000; i++) {
    std::string key = test::Cat("key", rnd.Uniform(kKeys));
    ASSERT_TRUE(db_->Put(WriteOptions(), key, MakeValue(1, i)).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_EQ(0, torn.load());
}

TEST_P(DbConcurrencyTest, IteratorStableDuringWrites) {
  for (int k = 0; k < 500; k++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::Cat("stable", k),
                         MakeValue(0, k))
                    .ok());
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));

  // Mutate heavily after creating the iterator.
  for (int k = 0; k < 3000; k++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), test::Cat("noise", k % 100),
                         MakeValue(2, k))
                    .ok());
  }

  // The iterator still sees exactly the pre-mutation state for the
  // stable keys and none of the noise written after its creation.
  int stable_seen = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string key = iter->key().ToString();
    if (key.rfind("stable", 0) == 0) stable_seen++;
  }
  ASSERT_EQ(500, stable_seen);
  ASSERT_TRUE(iter->status().ok());
}

INSTANTIATE_TEST_SUITE_P(CpuExecutor, DbConcurrencyTest,
                         testing::Values(false));
INSTANTIATE_TEST_SUITE_P(FcaeExecutor, DbConcurrencyTest,
                         testing::Values(true));

}  // namespace fcae
