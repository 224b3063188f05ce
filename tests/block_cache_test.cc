// The optional block cache (Options::block_cache): cached blocks must be
// served without touching the file, evictions must bound memory, and the
// DB must behave identically with and without a cache.

#include <memory>

#include "gtest/gtest.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/cache.h"
#include "util/env.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

namespace {

/// Counts reads that hit the underlying file.
class CountingFile : public RandomAccessFile {
 public:
  CountingFile(RandomAccessFile* target, int* counter)
      : target_(target), counter_(counter) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    (*counter_)++;
    return target_->Read(offset, n, result, scratch);
  }

 private:
  std::unique_ptr<RandomAccessFile> target_;
  int* counter_;
};

}  // namespace

class BlockCacheTest : public testing::Test {
 public:
  BlockCacheTest()
      : env_(NewMemEnv(Env::Default())), cache_(NewLRUCache(1 << 20)) {}

  void BuildTable(int entries) {
    Options options;
    options.env = env_.get();
    WritableFile* file;
    ASSERT_TRUE(env_->NewWritableFile("/t.ldb", &file).ok());
    {
      TableBuilder builder(options, file);
      for (int i = 0; i < entries; i++) {
        char key[16];
        std::snprintf(key, sizeof(key), "key%06d", i);
        builder.Add(key, std::string(100, 'v'));
      }
      ASSERT_TRUE(builder.Finish().ok());
    }
    ASSERT_TRUE(file->Close().ok());
    delete file;
  }

  Table* OpenTable(Cache* cache, int* read_counter) {
    uint64_t size;
    EXPECT_TRUE(env_->GetFileSize("/t.ldb", &size).ok());
    RandomAccessFile* raw;
    EXPECT_TRUE(env_->NewRandomAccessFile("/t.ldb", &raw).ok());
    file_ = std::make_unique<CountingFile>(raw, read_counter);

    Options options;
    options.env = env_.get();
    options.block_cache = cache;
    Table* table = nullptr;
    EXPECT_TRUE(Table::Open(options, file_.get(), size, &table).ok());
    return table;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Cache> cache_;
  std::unique_ptr<RandomAccessFile> file_;
  int reads_ = 0;
};

TEST_F(BlockCacheTest, RepeatScansHitCache) {
  BuildTable(2000);
  std::unique_ptr<Table> table(OpenTable(cache_.get(), &reads_));

  auto scan = [&]() {
    std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
    int n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
    ASSERT_EQ(2000, n);
  };

  scan();
  const int cold_reads = reads_;
  ASSERT_GT(cold_reads, 5);  // Many data blocks were fetched.

  scan();
  // The warm scan must serve all data blocks from the cache.
  ASSERT_EQ(cold_reads, reads_);
}

TEST_F(BlockCacheTest, NoFillCacheLeavesCacheCold) {
  BuildTable(2000);
  std::unique_ptr<Table> table(OpenTable(cache_.get(), &reads_));

  ReadOptions no_fill;
  no_fill.fill_cache = false;
  {
    std::unique_ptr<Iterator> iter(table->NewIterator(no_fill));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
  }
  const int cold_reads = reads_;
  {
    std::unique_ptr<Iterator> iter(table->NewIterator(no_fill));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
  }
  // Second scan re-reads everything: nothing was cached.
  ASSERT_GT(reads_, cold_reads + 5);
}

TEST_F(BlockCacheTest, TinyCacheEvicts) {
  BuildTable(5000);
  std::unique_ptr<Cache> tiny(NewLRUCache(4096));  // Holds ~1 block.
  std::unique_ptr<Table> table(OpenTable(tiny.get(), &reads_));
  for (int round = 0; round < 2; round++) {
    std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    }
  }
  // Cache charge never exceeds capacity by much.
  ASSERT_LE(tiny->TotalCharge(), 4096u * 2);
}

TEST_F(BlockCacheTest, DbWithCacheMatchesDbWithout) {
  std::unique_ptr<Cache> cache(NewLRUCache(8 << 20));
  for (Cache* c : {cache.get(), static_cast<Cache*>(nullptr)}) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.block_cache = c;
    options.write_buffer_size = 64 * 1024;

    std::string name = c ? "/db_cached" : "/db_plain";
    DB* raw;
    ASSERT_TRUE(DB::Open(options, name, &raw).ok());
    std::unique_ptr<DB> db(raw);

    Random rnd(5);
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), test::Cat("k", rnd.Uniform(500)),
                          std::string(200, 'x'))
                      .ok());
    }
    ASSERT_TRUE(
        reinterpret_cast<DBImpl*>(db.get())->TEST_CompactMemTable().ok());
    std::string value;
    int found = 0;
    for (int i = 0; i < 500; i++) {
      if (db->Get(ReadOptions(), test::Cat("k", i), &value).ok()) {
        found++;
        ASSERT_EQ(200u, value.size());
      }
    }
    ASSERT_GT(found, 300);
  }
}

}  // namespace fcae
