#include "lsm/dbformat.h"

#include <vector>

#include "gtest/gtest.h"

namespace fcae {

static std::string IKey(const std::string& user_key, uint64_t seq,
                        ValueType vt) {
  std::string encoded;
  AppendInternalKey(&encoded, ParsedInternalKey(user_key, seq, vt));
  return encoded;
}

static std::string Shorten(const std::string& s, const std::string& l) {
  std::string result = s;
  InternalKeyComparator(BytewiseComparator()).FindShortestSeparator(&result, l);
  return result;
}

static std::string ShortSuccessor(const std::string& s) {
  std::string result = s;
  InternalKeyComparator(BytewiseComparator()).FindShortSuccessor(&result);
  return result;
}

static void TestKey(const std::string& key, uint64_t seq, ValueType vt) {
  std::string encoded = IKey(key, seq, vt);

  Slice in(encoded);
  ParsedInternalKey decoded("", 0, kTypeValue);

  ASSERT_TRUE(ParseInternalKey(in, &decoded));
  ASSERT_EQ(key, decoded.user_key.ToString());
  ASSERT_EQ(seq, decoded.sequence);
  ASSERT_EQ(vt, decoded.type);

  ASSERT_TRUE(!ParseInternalKey(Slice("bar"), &decoded));
}

TEST(FormatTest, InternalKey_EncodeDecode) {
  const char* keys[] = {"", "k", "hello", "longggggggggggggggggggggg"};
  const uint64_t seq[] = {1,
                          2,
                          3,
                          (1ull << 8) - 1,
                          1ull << 8,
                          (1ull << 8) + 1,
                          (1ull << 16) - 1,
                          1ull << 16,
                          (1ull << 16) + 1,
                          (1ull << 32) - 1,
                          1ull << 32,
                          (1ull << 32) + 1};
  for (unsigned int k = 0; k < sizeof(keys) / sizeof(keys[0]); k++) {
    for (unsigned int s = 0; s < sizeof(seq) / sizeof(seq[0]); s++) {
      TestKey(keys[k], seq[s], kTypeValue);
      TestKey("hello", 1, kTypeDeletion);
    }
  }
}

TEST(FormatTest, InternalKey_DecodeFromEmpty) {
  InternalKey internal_key;
  ASSERT_TRUE(!internal_key.DecodeFrom(""));
}

TEST(FormatTest, InternalKeyOrdering) {
  InternalKeyComparator icmp(BytewiseComparator());

  // Same user key: larger sequence sorts first (is "smaller").
  ASSERT_LT(icmp.Compare(IKey("a", 100, kTypeValue), IKey("a", 99, kTypeValue)),
            0);
  // Different user keys: user-key order dominates.
  ASSERT_LT(icmp.Compare(IKey("a", 1, kTypeValue), IKey("b", 100, kTypeValue)),
            0);
  // Same user key and sequence: value sorts before deletion (type desc).
  ASSERT_LT(
      icmp.Compare(IKey("a", 5, kTypeValue), IKey("a", 5, kTypeDeletion)), 0);
}

TEST(FormatTest, MarkFieldPacking) {
  // The paper's "mark fields" footnote: L_key = 16 real + 8 mark. Verify
  // that the trailing 8 bytes encode (seq << 8) | type.
  std::string k = IKey("0123456789abcdef", 0x123456, kTypeValue);
  ASSERT_EQ(24u, k.size());
  ASSERT_EQ((0x123456ull << 8) | kTypeValue, ExtractMark(k));
  ASSERT_EQ("0123456789abcdef", ExtractUserKey(k).ToString());
}

TEST(FormatTest, InternalKeyShortSeparator) {
  // When user keys are same.
  ASSERT_EQ(IKey("foo", 100, kTypeValue),
            Shorten(IKey("foo", 100, kTypeValue), IKey("foo", 99, kTypeValue)));
  ASSERT_EQ(
      IKey("foo", 100, kTypeValue),
      Shorten(IKey("foo", 100, kTypeValue), IKey("foo", 101, kTypeValue)));
  ASSERT_EQ(
      IKey("foo", 100, kTypeValue),
      Shorten(IKey("foo", 100, kTypeValue), IKey("foo", 100, kTypeValue)));

  // When user keys are misordered.
  ASSERT_EQ(IKey("foo", 100, kTypeValue),
            Shorten(IKey("foo", 100, kTypeValue), IKey("bar", 99, kTypeValue)));

  // When user keys are different, but correctly ordered.
  ASSERT_EQ(
      IKey("g", kMaxSequenceNumber, kValueTypeForSeek),
      Shorten(IKey("foo", 100, kTypeValue), IKey("hello", 200, kTypeValue)));

  // When start user key is prefix of limit user key.
  ASSERT_EQ(
      IKey("foo", 100, kTypeValue),
      Shorten(IKey("foo", 100, kTypeValue), IKey("foobar", 200, kTypeValue)));

  // When limit user key is prefix of start user key.
  ASSERT_EQ(
      IKey("foobar", 100, kTypeValue),
      Shorten(IKey("foobar", 100, kTypeValue), IKey("foo", 200, kTypeValue)));
}

TEST(FormatTest, InternalKeyShortestSuccessor) {
  ASSERT_EQ(IKey("g", kMaxSequenceNumber, kValueTypeForSeek),
            ShortSuccessor(IKey("foo", 100, kTypeValue)));
  ASSERT_EQ(IKey("\xff\xff", 100, kTypeValue),
            ShortSuccessor(IKey("\xff\xff", 100, kTypeValue)));
}

// The compaction drop rule as a table: each case feeds its keys in merge
// order and lists the expected drop decisions.
TEST(FormatTest, CompactionDropRule) {
  struct Case {
    const char* name;
    SequenceNumber smallest_snapshot;
    bool drop_deletions;
    std::vector<std::string> keys;
    std::vector<bool> drops;
  };
  const std::string kBad = "bad";  // Too short for a mark.
  const std::vector<Case> cases = {
      {"newest version is kept", 1000, true,
       {IKey("a", 50, kTypeValue), IKey("b", 20, kTypeValue)},
       {false, false}},
      {"older version at the snapshot is dropped", 100, false,
       {IKey("a", 100, kTypeValue), IKey("a", 90, kTypeValue)},
       {false, true}},
      {"older version below the snapshot is dropped", 100, false,
       {IKey("a", 90, kTypeValue), IKey("a", 80, kTypeValue)},
       {false, true}},
      {"older version behind a newer one above the snapshot is kept", 100,
       false,
       {IKey("a", 150, kTypeValue), IKey("a", 120, kTypeValue),
        IKey("a", 90, kTypeValue), IKey("a", 80, kTypeValue)},
       {false, false, false, true}},
      {"tombstones at and below the snapshot go with drop_deletions", 100,
       true,
       {IKey("a", 100, kTypeDeletion), IKey("b", 90, kTypeDeletion)},
       {true, true}},
      {"tombstones at and below the snapshot stay without drop_deletions",
       100, false,
       {IKey("a", 100, kTypeDeletion), IKey("b", 90, kTypeDeletion)},
       {false, false}},
      {"tombstone above the snapshot is kept", 100, true,
       {IKey("a", 150, kTypeDeletion)},
       {false}},
      {"unparsable key is kept and resets the rule", 100, true,
       {IKey("a", 90, kTypeValue), kBad, IKey("a", 80, kTypeValue),
        IKey("a", 70, kTypeValue)},
       {false, false, false, true}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(c.keys.size(), c.drops.size());
    CompactionDropRule rule(BytewiseComparator(), c.smallest_snapshot,
                            c.drop_deletions);
    for (size_t i = 0; i < c.keys.size(); i++) {
      EXPECT_EQ(c.drops[i], rule.ShouldDrop(c.keys[i])) << "key " << i;
    }
  }
}

// The compaction trigger as a table: each case scores a shape and picks
// a level with some level pairs already claimed.
TEST(FormatTest, ScoreLevelsAndPickLevel) {
  constexpr double kMiB = 1048576.0;
  struct Case {
    const char* name;
    int l0_files;
    double level_bytes[kNumLevels];
    int leveling_ratio;
    uint32_t busy_levels;
    double scores[kNumLevels];
    int level;
  };
  const std::vector<Case> cases = {
      {"nothing needed", 3, {0, 5 * kMiB, 50 * kMiB, 0, 0, 0, 0}, 10, 0,
       {0.75, 0.5, 0.5, 0, 0, 0, -1}, -1},
      {"L0 at the trigger", 4, {0, 0, 0, 0, 0, 0, 0}, 10, 0,
       {1, 0, 0, 0, 0, 0, -1}, 0},
      {"a level exactly at its target", 0, {0, 0, 0, 1000 * kMiB, 0, 0, 0},
       10, 0, {0, 0, 0, 1, 0, 0, -1}, 3},
      {"the ratio sets deeper targets", 0, {0, 0, 0, 160 * kMiB, 0, 0, 0}, 4,
       0, {0, 0, 0, 1, 0, 0, -1}, 3},
      {"the highest score wins", 5, {0, 30 * kMiB, 200 * kMiB, 0, 0, 0, 0},
       10, 0, {1.25, 3, 2, 0, 0, 0, -1}, 1},
      {"a tie picks the lowest level", 8, {0, 20 * kMiB, 0, 0, 0, 0, 0}, 10,
       0, {2, 2, 0, 0, 0, 0, -1}, 0},
      {"a busy best pair falls to the second best", 3,
       {0, 30 * kMiB, 0, 1500 * kMiB, 12000 * kMiB, 0, 0}, 10,
       LevelPairMask(1), {0.75, 3, 0, 1.5, 1.2, 0, -1}, 3},
      {"a claimed level blocks both pairs that hold it", 8,
       {0, 20 * kMiB, 150 * kMiB, 0, 0, 0, 0}, 10, 1u << 1,
       {2, 2, 1.5, 0, 0, 0, -1}, 2},
      {"busy pairs leave only scores below 1", 2,
       {0, 30 * kMiB, 50 * kMiB, 0, 0, 0, 0}, 10, LevelPairMask(1),
       {0.5, 3, 0.5, 0, 0, 0, -1}, -1},
      {"all pairs busy gives -1", 8,
       {0, 20 * kMiB, 200 * kMiB, 2000 * kMiB, 0, 0, 0}, 10, 0x7f,
       {2, 2, 2, 2, 0, 0, -1}, -1},
      {"the last level has no pair", 0, {0, 0, 0, 0, 0, 0, 1e15}, 10, 0,
       {0, 0, 0, 0, 0, 0, -1}, -1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    double scores[kNumLevels];
    ScoreLevels(c.l0_files, c.level_bytes, c.leveling_ratio, scores);
    for (int level = 0; level < kNumLevels; level++) {
      EXPECT_DOUBLE_EQ(c.scores[level], scores[level]) << "level " << level;
    }
    EXPECT_EQ(c.level, PickLevel(scores, c.busy_levels));
  }
}

TEST(FormatTest, LookupKey) {
  LookupKey lkey("user_key", 42);
  ASSERT_EQ("user_key", lkey.user_key().ToString());
  Slice ikey = lkey.internal_key();
  ParsedInternalKey parsed;
  ASSERT_TRUE(ParseInternalKey(ikey, &parsed));
  ASSERT_EQ("user_key", parsed.user_key.ToString());
  ASSERT_EQ(42u, parsed.sequence);

  // Memtable key is length-prefixed internal key.
  Slice mkey = lkey.memtable_key();
  uint32_t len;
  const char* p = GetVarint32Ptr(mkey.data(), mkey.data() + 5, &len);
  ASSERT_NE(nullptr, p);
  ASSERT_EQ(ikey.size(), len);

  // Long keys take the heap path.
  std::string long_key(500, 'k');
  LookupKey lkey2(long_key, 7);
  ASSERT_EQ(long_key, lkey2.user_key().ToString());
}

}  // namespace fcae
