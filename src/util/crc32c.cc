#include "util/crc32c.h"

#include <array>
#include <cstring>

#ifdef __x86_64__
#include <nmmintrin.h>
#endif

namespace fcae {
namespace crc32c {

namespace {

// CRC32C (Castagnoli) polynomial, reflected form.
constexpr uint32_t kPoly = 0x82f63b78u;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int j = 0; j < 8; j++) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

#ifdef __x86_64__
// The SSE4.2 CRC32 instruction computes exactly this polynomial. Only
// this function is compiled for SSE4.2, so the binary still runs on any
// x86-64 CPU; ChooseExtend() calls it only after the CPU reports support.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc,
                                                       const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  const char* p = data;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; p++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*p));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

ExtendFn ChooseExtend() {
#ifdef __x86_64__
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return ExtendSse42;
  }
#endif
  return ExtendPortable;
}

}  // namespace

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const std::array<uint32_t, 256>& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace fcae
