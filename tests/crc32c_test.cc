#include "util/crc32c.h"

#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "util/random.h"

namespace fcae {
namespace crc32c {

namespace {

// A known CRC must come out of Value() (whichever kernel Extend() picked)
// and out of the portable reference.
void ExpectCrc(uint32_t expected, const char* data, size_t n) {
  EXPECT_EQ(expected, Value(data, n));
  EXPECT_EQ(expected, ExtendPortable(0, data, n));
}

std::string RandomBytes(Random* rnd, size_t n) {
  std::string bytes(n, '\0');
  for (char& c : bytes) {
    c = static_cast<char>(rnd->Next());
  }
  return bytes;
}

}  // namespace

TEST(Crc32c, StandardResults) {
  // From rfc3720 section B.4. — well-known CRC32C test vectors.
  char buf[32];

  memset(buf, 0, sizeof(buf));
  ExpectCrc(0x8a9136aa, buf, sizeof(buf));

  memset(buf, 0xff, sizeof(buf));
  ExpectCrc(0x62a8ab43, buf, sizeof(buf));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  ExpectCrc(0x46dd794e, buf, sizeof(buf));

  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(31 - i);
  }
  ExpectCrc(0x113fdb5c, buf, sizeof(buf));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  ExpectCrc(0xd9963a56, reinterpret_cast<char*>(data), sizeof(data));
}

// Extend() against the reference over every tail length the 8-byte
// kernel can leave, every start alignment, and non-trivial init CRCs.
TEST(Crc32c, ExtendMatchesPortableReference) {
  Random rnd(301);
  const std::string buf = RandomBytes(&rnd, 1100 + 8);
  const uint32_t inits[] = {0, 0xffffffffu,
                            static_cast<uint32_t>(rnd.Next64())};
  for (uint32_t init : inits) {
    for (size_t offset = 0; offset < 8; offset++) {
      for (size_t n = 0; n <= 1100; n++) {
        const char* p = buf.data() + offset;
        ASSERT_EQ(ExtendPortable(init, p, n), Extend(init, p, n))
            << "init=" << init << " offset=" << offset << " n=" << n;
      }
    }
  }

  const std::string big = RandomBytes(&rnd, (1 << 20) + 3);
  ASSERT_EQ(ExtendPortable(0, big.data(), big.size()),
            Extend(0, big.data(), big.size()));

  const std::string chain = RandomBytes(&rnd, 257);
  const uint32_t whole = Extend(0, chain.data(), chain.size());
  ASSERT_EQ(ExtendPortable(0, chain.data(), chain.size()), whole);
  for (size_t split = 0; split <= chain.size(); split++) {
    const uint32_t head = Extend(0, chain.data(), split);
    ASSERT_EQ(whole, Extend(head, chain.data() + split, chain.size() - split))
        << "split=" << split;
  }
}

TEST(Crc32c, Values) { ASSERT_NE(Value("a", 1), Value("foo", 3)); }

TEST(Crc32c, Extend) {
  ASSERT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

TEST(Crc32c, Mask) {
  uint32_t crc = Value("foo", 3);
  ASSERT_NE(crc, Mask(crc));
  ASSERT_NE(crc, Mask(Mask(crc)));
  ASSERT_EQ(crc, Unmask(Mask(crc)));
  ASSERT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

TEST(Crc32c, EmptyInput) { ASSERT_EQ(0u, Value("", 0)); }

}  // namespace crc32c
}  // namespace fcae
