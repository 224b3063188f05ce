#include "compress/snappy.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace fcae {
namespace snappy {

namespace {

std::string RoundTrip(const std::string& input) {
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  std::string output;
  EXPECT_TRUE(Uncompress(compressed.data(), compressed.size(), &output));
  return output;
}

/// Generates text with repeated fragments so copies are exercised.
std::string CompressibleString(Random* rnd, size_t len) {
  static const char* kFragments[] = {"the quick ", "brown fox ", "jumps ",
                                     "over the lazy dog ", "lorem ipsum "};
  std::string result;
  while (result.size() < len) {
    result += kFragments[rnd->Uniform(5)];
  }
  result.resize(len);
  return result;
}

std::string RandomString(Random* rnd, size_t len) {
  std::string result;
  result.reserve(len);
  for (size_t i = 0; i < len; i++) {
    result.push_back(static_cast<char>(rnd->Uniform(256)));
  }
  return result;
}

// The compressor as it was before MatchLength compared eight bytes at a
// time: the same encoder with a byte-at-a-time match loop. Compress must
// emit exactly its bytes.
namespace reference {

uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t HashBytes(uint32_t bytes) { return (bytes * 0x1e35a7bdu) >> 18; }

char* EmitLiteral(char* op, const char* literal, size_t len) {
  size_t n = len - 1;
  if (n < 60) {
    *op++ = static_cast<char>(n << 2);
  } else {
    char* base = op++;
    int count = 0;
    for (; n > 0; n >>= 8, count++) *op++ = static_cast<char>(n & 0xff);
    *base = static_cast<char>((59 + count) << 2);
  }
  std::memcpy(op, literal, len);
  return op + len;
}

char* EmitCopyUpTo64(char* op, size_t offset, size_t len) {
  if (len < 12 && offset < 2048) {
    *op++ = static_cast<char>(1 | ((len - 4) << 2) | ((offset >> 8) << 5));
    *op++ = static_cast<char>(offset & 0xff);
  } else {
    *op++ = static_cast<char>(2 | ((len - 1) << 2));
    *op++ = static_cast<char>(offset & 0xff);
    *op++ = static_cast<char>((offset >> 8) & 0xff);
  }
  return op;
}

char* EmitCopy(char* op, size_t offset, size_t len) {
  for (; len >= 68; len -= 64) op = EmitCopyUpTo64(op, offset, 64);
  if (len > 64) {
    op = EmitCopyUpTo64(op, offset, 60);
    len -= 60;
  }
  return EmitCopyUpTo64(op, offset, len);
}

std::string Compress(const std::string& in) {
  const size_t n = in.size();
  std::string out(MaxCompressedLength(n), '\0');
  char* dst = out.data();
  char* op = dst;
  for (uint32_t v = static_cast<uint32_t>(n); ; v >>= 7) {
    *op++ = static_cast<char>(v < 128 ? v : (v & 0x7f) | 0x80);
    if (v < 128) break;
  }
  if (n < 15) {
    if (n > 0) op = EmitLiteral(op, in.data(), n);
    out.resize(op - dst);
    return out;
  }
  uint16_t table[1 << 14] = {};
  const char* ip = in.data() + 1;
  const char* ip_end = in.data() + n;
  const char* ip_limit = ip_end - 15;
  const char* next_emit = in.data();
  const char* base = in.data();
  while (ip < ip_limit) {
    const uint32_t hash = HashBytes(Load32(ip));
    const char* candidate = base + table[hash];
    table[hash] = static_cast<uint16_t>(ip - base);
    if (candidate < ip && Load32(candidate) == Load32(ip) &&
        static_cast<size_t>(ip - candidate) <= 65535) {
      if (ip > next_emit) op = EmitLiteral(op, next_emit, ip - next_emit);
      size_t matched = 4;
      while (ip + matched < ip_end && candidate[matched] == ip[matched]) {
        matched++;
      }
      op = EmitCopy(op, ip - candidate, matched);
      ip += matched;
      next_emit = ip;
      if (ip >= ip_limit) break;
      table[HashBytes(Load32(ip))] = static_cast<uint16_t>(ip - base);
    }
    ip++;
    if (static_cast<size_t>(ip - base) >= 60000) {
      base = ip - 1;
      std::memset(table, 0, sizeof(table));
    }
  }
  if (next_emit < ip_end) op = EmitLiteral(op, next_emit, ip_end - next_emit);
  out.resize(op - dst);
  return out;
}

}  // namespace reference

/// Runs of one byte, each 1 to 300 bytes long.
std::string RunLengthString(Random* rnd, size_t len) {
  std::string result;
  while (result.size() < len) {
    result.append(1 + rnd->Uniform(300), static_cast<char>(rnd->Uniform(4)));
  }
  result.resize(len);
  return result;
}

}  // namespace

TEST(Snappy, OutputMatchesByteAtATimeReference) {
  std::vector<size_t> lengths;
  for (size_t len = 1; len <= 40; len++) lengths.push_back(len);
  for (size_t len : {63, 64, 65, 100, 1000, 4095, 4096, 4097, 59999, 60000,
                     60001, 65535, 65536, 65537, 100000, 200000}) {
    lengths.push_back(len);
  }
  Random rnd(17);
  for (int i = 0; i < 40; i++) lengths.push_back(1 + rnd.Uniform(200000));

  workload::ValueGenerator values(/*seed=*/5, /*compression_ratio=*/0.5);
  int checked = 0;
  for (size_t len : lengths) {
    for (const std::string& input :
         {RandomString(&rnd, len), values.Generate(len),
          RunLengthString(&rnd, len)}) {
      std::string compressed;
      Compress(input.data(), input.size(), &compressed);
      ASSERT_EQ(reference::Compress(input), compressed)
          << "length " << len << ", input " << checked % 3;
      checked++;
    }
  }
  EXPECT_EQ(3 * static_cast<int>(lengths.size()), checked);
}

TEST(Snappy, EmptyInput) {
  std::string compressed;
  Compress("", 0, &compressed);
  std::string output = "sentinel";
  ASSERT_TRUE(Uncompress(compressed.data(), compressed.size(), &output));
  ASSERT_EQ("", output);
}

TEST(Snappy, TinyInputs) {
  for (size_t len = 1; len <= 20; len++) {
    std::string input(len, 'x');
    ASSERT_EQ(input, RoundTrip(input)) << "len=" << len;
  }
}

TEST(Snappy, SimpleText) {
  std::string input = "hello hello hello hello world world world";
  ASSERT_EQ(input, RoundTrip(input));
}

TEST(Snappy, HighlyCompressible) {
  std::string input(100000, 'a');
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  // A run of one character must compress dramatically.
  ASSERT_LT(compressed.size(), input.size() / 20);
  std::string output;
  ASSERT_TRUE(Uncompress(compressed.data(), compressed.size(), &output));
  ASSERT_EQ(input, output);
}

TEST(Snappy, RepeatedFragments) {
  Random rnd(301);
  std::string input = CompressibleString(&rnd, 65536);
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  ASSERT_LT(compressed.size(), input.size() / 2);
  std::string output;
  ASSERT_TRUE(Uncompress(compressed.data(), compressed.size(), &output));
  ASSERT_EQ(input, output);
}

TEST(Snappy, IncompressibleRandomData) {
  Random rnd(42);
  std::string input = RandomString(&rnd, 65536);
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  // Incompressible data must stay within the documented bound.
  ASSERT_LE(compressed.size(), MaxCompressedLength(input.size()));
  ASSERT_EQ(input, RoundTrip(input));
}

TEST(Snappy, GetUncompressedLength) {
  std::string input(12345, 'q');
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  size_t len;
  ASSERT_TRUE(GetUncompressedLength(compressed.data(), compressed.size(),
                                    &len));
  ASSERT_EQ(12345u, len);
}

TEST(Snappy, CorruptHeaderRejected) {
  std::string output;
  // All continuation bits set: varint never terminates.
  std::string bad("\xff\xff\xff\xff\xff\xff", 6);
  ASSERT_FALSE(Uncompress(bad.data(), bad.size(), &output));
}

TEST(Snappy, TruncatedStreamRejected) {
  std::string input = "some reasonably long input string to compress, with "
                      "repeats repeats repeats repeats";
  std::string compressed;
  Compress(input.data(), input.size(), &compressed);
  for (size_t cut = 1; cut < compressed.size(); cut++) {
    std::string output;
    // Either rejected or produces the wrong length, never a crash.
    bool ok = Uncompress(compressed.data(), compressed.size() - cut, &output);
    if (ok) {
      ASSERT_NE(input, output);
    }
  }
}

TEST(Snappy, CorruptOffsetRejected) {
  // Hand-craft a stream: length 4, then a copy with offset 0 (invalid).
  std::string bad;
  bad.push_back(4);                       // uncompressed length 4
  bad.push_back(0x01);                    // copy1: len=4, offset high bits 0
  bad.push_back(0x00);                    // offset low byte = 0 -> invalid
  std::string output;
  ASSERT_FALSE(Uncompress(bad.data(), bad.size(), &output));
}

// Property sweep: round-trip across sizes and data characters.
class SnappyRoundTripTest : public testing::TestWithParam<int> {};

TEST_P(SnappyRoundTripTest, RoundTripCompressible) {
  Random rnd(GetParam());
  size_t len = 1 + rnd.Uniform(1 << 17);
  std::string input = CompressibleString(&rnd, len);
  ASSERT_EQ(input, RoundTrip(input));
}

TEST_P(SnappyRoundTripTest, RoundTripRandom) {
  Random rnd(GetParam() + 1000);
  size_t len = 1 + rnd.Uniform(1 << 16);
  std::string input = RandomString(&rnd, len);
  ASSERT_EQ(input, RoundTrip(input));
}

TEST_P(SnappyRoundTripTest, RoundTripStructured) {
  // Key-value-like content: mostly ascending keys + fixed-pattern values,
  // the shape the SSTable blocks will feed through this codec.
  Random rnd(GetParam() + 2000);
  std::string input;
  int n = 100 + rnd.Uniform(400);
  for (int i = 0; i < n; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%016d", i);
    input.append(key);
    input.append(rnd.Uniform(100) + 1, static_cast<char>('A' + (i % 26)));
  }
  ASSERT_EQ(input, RoundTrip(input));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnappyRoundTripTest,
                         testing::Range(1, 21));

}  // namespace snappy
}  // namespace fcae
