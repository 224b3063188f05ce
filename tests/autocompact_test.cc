// Automatic background compaction: without any TEST_ hooks, sustained
// writes must trigger flushes and compactions on the background thread,
// deepen the tree, garbage-collect obsolete files, and keep every
// lookup correct — on both compaction executors.

#include <memory>

#include "gtest/gtest.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/filename.h"
#include "table/iterator.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

class AutoCompactTest : public testing::TestWithParam<bool> {
 public:
  AutoCompactTest() : env_(NewMemEnv(Env::Default())) {
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
    options.write_buffer_size = 64 * 1024;  // Flush every ~64 KB.
    options.max_file_size = 128 * 1024;
    options.compaction_executor = executor_.get();
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, "/auto", &db).ok());
    db_.reset(db);
  }

  int NumFilesAtLevel(int level) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(
        "fcae.num-files-at-level" + std::to_string(level), &value));
    return std::stoi(value);
  }

  void WaitForQuiescence() {
    // Compactions chain in the background; poll until levels settle.
    for (int i = 0; i < 200; i++) {
      int l0 = NumFilesAtLevel(0);
      if (l0 < 4) break;
      Env::Default()->SleepForMicroseconds(10000);
    }
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<host::DeviceSet> devices_;
  std::unique_ptr<host::FcaeCompactionExecutor> executor_;
  std::unique_ptr<DB> db_;
};

TEST_P(AutoCompactTest, SustainedWritesDeepenTheTreeAutomatically) {
  Random rnd(301);
  WriteOptions wo;
  const int kKeys = 4000;
  for (int i = 0; i < 30000; i++) {
    std::string key = "key" + std::to_string(rnd.Uniform(kKeys));
    ASSERT_TRUE(db_->Put(wo, key, std::string(128, 'v')).ok());
  }
  WaitForQuiescence();

  // Levels beyond 0 must be populated without any manual compaction.
  int deep_files = 0;
  for (int level = 1; level < kNumLevels; level++) {
    deep_files += NumFilesAtLevel(level);
  }
  EXPECT_GT(deep_files, 0);

  // Level 0 must have been repeatedly compacted below the stop trigger.
  EXPECT_LT(NumFilesAtLevel(0), kL0StopWritesTrigger);

  // All data remains correct.
  std::string value;
  int found = 0;
  for (int k = 0; k < kKeys; k++) {
    if (db_->Get(ReadOptions(), "key" + std::to_string(k), &value).ok()) {
      found++;
      ASSERT_EQ(std::string(128, 'v'), value);
    }
  }
  EXPECT_GT(found, kKeys * 9 / 10);

  if (GetParam()) {
    EXPECT_GT(devices_->device(0)->kernels_launched(), 0u);
  }
}

TEST_P(AutoCompactTest, ObsoleteFilesAreGarbageCollected) {
  Random rnd(7);
  WriteOptions wo;
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db_->Put(wo, "key" + std::to_string(rnd.Uniform(1000)),
                         std::string(128, 'x'))
                    .ok());
  }
  WaitForQuiescence();

  // Count on-disk table files; compaction inputs must be deleted, so
  // the file count stays in the same ballpark as the live set rather
  // than growing with every flush (20000 * 144 B / 64 KB > 40 flushes).
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren("/auto", &children).ok());
  int table_files = 0;
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) &&
        type == FileType::kTableFile) {
      table_files++;
    }
  }
  int live = 0;
  for (int level = 0; level < kNumLevels; level++) {
    live += NumFilesAtLevel(level);
  }
  EXPECT_LE(table_files, live + 4);  // A few in-flight stragglers at most.
}

INSTANTIATE_TEST_SUITE_P(Cpu, AutoCompactTest, testing::Values(false));
INSTANTIATE_TEST_SUITE_P(Fcae, AutoCompactTest, testing::Values(true));

}  // namespace fcae
