// Stored blocks read through DecodeBlock and Block: the trailer check,
// decompression and entry decode the engine's decoder relies on.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "compress/snappy.h"
#include "gtest/gtest.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/crc32c.h"
#include "util/options.h"

namespace fcae {

namespace {

using Entries = std::vector<std::pair<std::string, std::string>>;

/// Contents that point into `raw`, which must outlive the block.
BlockContents Unowned(const std::string& raw) {
  BlockContents contents;
  contents.data = Slice(raw);
  contents.cachable = false;
  contents.heap_allocated = false;
  return contents;
}

/// Stores `raw` as a block of `type` with its trailer, CRC computed here
/// rather than by EncodeBlockTrailer.
std::string StoreBlock(const Slice& raw, CompressionType type) {
  std::string stored;
  if (type == kSnappyCompression) {
    snappy::Compress(raw.data(), raw.size(), &stored);
  } else {
    stored.assign(raw.data(), raw.size());
  }
  char trailer[kBlockTrailerSize];
  trailer[0] = static_cast<char>(type);
  uint32_t crc = crc32c::Value(stored.data(), stored.size());
  crc = crc32c::Extend(crc, trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  stored.append(trailer, kBlockTrailerSize);
  return stored;
}

std::string BuildRawBlock(int n, int restart_interval, Entries* expected) {
  Options options;
  options.block_restart_interval = restart_interval;
  BlockBuilder builder(&options);
  for (int i = 0; i < n; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%08d", i);
    std::string value = "value" + std::to_string(i);
    builder.Add(key, value);
    expected->emplace_back(key, value);
  }
  return builder.Finish().ToString();
}

/// Reads every entry of the block in `contents`; returns the iterator's
/// final status.
Status ReadEntries(const BlockContents& contents, Entries* entries) {
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    entries->emplace_back(iter->key().ToString(), iter->value().ToString());
  }
  return iter->status();
}

}  // namespace

class BlockParseTest : public testing::TestWithParam<CompressionType> {};

TEST_P(BlockParseTest, RoundTrip) {
  Entries expected;
  const std::string raw = BuildRawBlock(500, 16, &expected);
  const std::string stored = StoreBlock(raw, GetParam());

  BlockContents contents;
  ASSERT_TRUE(DecodeBlock(stored, true, &contents).ok());
  ASSERT_EQ(raw, contents.data.ToString());
  Entries entries;
  ASSERT_TRUE(ReadEntries(contents, &entries).ok());
  EXPECT_EQ(expected, entries);
}

TEST_P(BlockParseTest, ChecksumDetectsFlips) {
  Entries expected;
  const std::string stored =
      StoreBlock(BuildRawBlock(100, 8, &expected), GetParam());
  for (size_t pos : {size_t{0}, stored.size() / 2, stored.size() - 6}) {
    std::string corrupt = stored;
    corrupt[pos] ^= 0x01;
    BlockContents contents;
    EXPECT_FALSE(DecodeBlock(corrupt, true, &contents).ok())
        << "flip at " << pos;
  }
}

TEST_P(BlockParseTest, EmptyBlockHasNoEntries) {
  Options options;
  BlockBuilder builder(&options);
  const std::string stored = StoreBlock(builder.Finish(), GetParam());
  BlockContents contents;
  ASSERT_TRUE(DecodeBlock(stored, true, &contents).ok());
  Entries entries;
  ASSERT_TRUE(ReadEntries(contents, &entries).ok());
  EXPECT_TRUE(entries.empty());
}

INSTANTIATE_TEST_SUITE_P(Compression, BlockParseTest,
                         testing::Values(kNoCompression,
                                         kSnappyCompression));

TEST(BlockParseEdgeTest, TooShortForTrailer) {
  BlockContents contents;
  EXPECT_FALSE(DecodeBlock(Slice("abc"), true, &contents).ok());
  EXPECT_FALSE(DecodeBlock(Slice(), false, &contents).ok());
}

TEST(BlockParseEdgeTest, BadCompressionType) {
  const std::string stored =
      StoreBlock("payload", static_cast<CompressionType>(0x7f));
  BlockContents contents;
  EXPECT_FALSE(DecodeBlock(stored, true, &contents).ok());
}

TEST(BlockParseEdgeTest, GarbageEntriesRejected) {
  // A valid restart array in front of garbage entry bytes.
  std::string bad(64, '\xee');
  PutFixed32(&bad, 0);  // restart[0] = 0
  PutFixed32(&bad, 1);  // num_restarts = 1
  Entries entries;
  EXPECT_FALSE(ReadEntries(Unowned(bad), &entries).ok());
}

TEST(BlockParseEdgeTest, RestartCountOverflowRejected) {
  std::string bad;
  PutFixed32(&bad, 1000000);  // num_restarts way beyond block size.
  Entries entries;
  EXPECT_FALSE(ReadEntries(Unowned(bad), &entries).ok());
}

}  // namespace fcae
