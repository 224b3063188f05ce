#include "table/block.h"

#include <map>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "test_util.h"
#include "util/comparator.h"
#include "util/options.h"
#include "util/random.h"

namespace fcae {

namespace {

/// Builds a Block from a map and returns (block, contents-backing-string).
struct BuiltBlock {
  std::unique_ptr<Block> block;
  std::string storage;
};

BuiltBlock BuildBlock(const std::map<std::string, std::string>& entries,
                      int restart_interval) {
  Options options;
  options.block_restart_interval = restart_interval;
  BlockBuilder builder(&options);
  for (const auto& kv : entries) {
    builder.Add(kv.first, kv.second);
  }
  BuiltBlock result;
  result.storage = builder.Finish().ToString();
  BlockContents contents;
  contents.data = Slice(result.storage);
  contents.cachable = false;
  contents.heap_allocated = false;
  result.block = std::make_unique<Block>(contents);
  return result;
}

}  // namespace

TEST(BlockTest, EmptyBlock) {
  BuiltBlock b = BuildBlock({}, 16);
  std::unique_ptr<Iterator> iter(b.block->NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  ASSERT_FALSE(iter->Valid());
  iter->SeekToLast();
  ASSERT_FALSE(iter->Valid());
  iter->Seek("foo");
  ASSERT_FALSE(iter->Valid());
}

TEST(BlockTest, ForwardIteration) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 100; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = test::Cat("value", i);
  }
  BuiltBlock b = BuildBlock(entries, 16);
  std::unique_ptr<Iterator> iter(b.block->NewIterator(BytewiseComparator()));

  auto expected = entries.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    ASSERT_NE(expected, entries.end());
    ASSERT_EQ(expected->first, iter->key().ToString());
    ASSERT_EQ(expected->second, iter->value().ToString());
    ++expected;
  }
  ASSERT_EQ(expected, entries.end());
  ASSERT_TRUE(iter->status().ok());
}

TEST(BlockTest, BackwardIteration) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 50; i++) {
    entries[test::Cat("k", 1000 + i)] = std::to_string(i);
  }
  BuiltBlock b = BuildBlock(entries, 4);
  std::unique_ptr<Iterator> iter(b.block->NewIterator(BytewiseComparator()));

  auto expected = entries.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev()) {
    ASSERT_NE(expected, entries.rend());
    ASSERT_EQ(expected->first, iter->key().ToString());
    ASSERT_EQ(expected->second, iter->value().ToString());
    ++expected;
  }
  ASSERT_EQ(expected, entries.rend());
}

TEST(BlockTest, Seek) {
  std::map<std::string, std::string> entries;
  for (int i = 0; i < 200; i += 2) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i);
    entries[key] = std::to_string(i);
  }
  BuiltBlock b = BuildBlock(entries, 8);
  std::unique_ptr<Iterator> iter(b.block->NewIterator(BytewiseComparator()));

  // Seek to existing key.
  iter->Seek("key000100");
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("key000100", iter->key().ToString());

  // Seek to a key between entries: lands on next even key.
  iter->Seek("key000101");
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("key000102", iter->key().ToString());

  // Seek before the first key.
  iter->Seek("a");
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("key000000", iter->key().ToString());

  // Seek past the last key.
  iter->Seek("z");
  ASSERT_FALSE(iter->Valid());
}

TEST(BlockTest, PrefixCompressionRoundTrip) {
  // Keys sharing long prefixes stress the shared/non_shared encoding.
  std::map<std::string, std::string> entries;
  std::string prefix(120, 'p');
  for (int i = 0; i < 64; i++) {
    entries[prefix + std::to_string(1000 + i)] = std::string(i, 'v');
  }
  for (int restart : {1, 2, 16, 64}) {
    BuiltBlock b = BuildBlock(entries, restart);
    std::unique_ptr<Iterator> iter(
        b.block->NewIterator(BytewiseComparator()));
    auto expected = entries.begin();
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ASSERT_EQ(expected->first, iter->key().ToString());
      ASSERT_EQ(expected->second, iter->value().ToString());
      ++expected;
    }
    ASSERT_EQ(expected, entries.end()) << "restart=" << restart;
  }
}

TEST(BlockTest, CorruptBlockReportsError) {
  BlockContents contents;
  std::string garbage = "ab";  // Too short to even hold the restart count.
  contents.data = Slice(garbage);
  contents.cachable = false;
  contents.heap_allocated = false;
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  ASSERT_FALSE(iter->Valid());
  ASSERT_FALSE(iter->status().ok());
}

// Randomized mixed Next/Prev/Seek against an in-memory model.
class BlockRandomAccessTest : public testing::TestWithParam<int> {};

TEST_P(BlockRandomAccessTest, MatchesModel) {
  Random rnd(GetParam());
  std::map<std::string, std::string> entries;
  int n = 1 + rnd.Uniform(300);
  for (int i = 0; i < n; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08u", rnd.Uniform(1000000));
    entries[key] = std::to_string(rnd.Next());
  }
  BuiltBlock b = BuildBlock(entries, 1 + rnd.Uniform(20));
  std::unique_ptr<Iterator> iter(b.block->NewIterator(BytewiseComparator()));

  // Model iterator.
  auto model = entries.end();
  iter->SeekToFirst();
  model = entries.begin();

  for (int step = 0; step < 500; step++) {
    // Check agreement.
    if (model == entries.end()) {
      ASSERT_FALSE(iter->Valid());
    } else {
      ASSERT_TRUE(iter->Valid());
      ASSERT_EQ(model->first, iter->key().ToString());
      ASSERT_EQ(model->second, iter->value().ToString());
    }

    switch (rnd.Uniform(3)) {
      case 0: {  // Next
        if (model != entries.end()) {
          ++model;
          iter->Next();
        }
        break;
      }
      case 1: {  // Seek to random key
        char key[32];
        std::snprintf(key, sizeof(key), "k%08u", rnd.Uniform(1000000));
        model = entries.lower_bound(key);
        iter->Seek(key);
        break;
      }
      case 2: {  // Prev
        if (model != entries.end() && model != entries.begin()) {
          --model;
          iter->Prev();
        } else if (model == entries.begin()) {
          iter->Prev();
          ASSERT_FALSE(iter->Valid());
          iter->SeekToFirst();
          model = entries.begin();
        }
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlockRandomAccessTest, testing::Range(1, 11));

}  // namespace fcae
