#ifndef FCAE_UTIL_CRC32C_H_
#define FCAE_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace fcae {
namespace crc32c {

/// Returns the CRC32C of concat(A, data[0, n)) where Extend(init_crc, ...)
/// is given the CRC32C of some prior byte string A. The kernel is picked
/// once per process from the CPU: the SSE4.2 CRC32 instruction on x86-64
/// CPUs that have it, ExtendPortable() everywhere else.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

/// The byte-at-a-time table loop: Extend() on CPUs without a CRC32C
/// instruction, and the reference the tests compare Extend() against.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

/// Returns the CRC32C of data[0, n).
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

constexpr uint32_t kMaskDelta = 0xa282ead8ul;

/// Returns a masked representation of `crc`. Storing raw CRCs of data that
/// itself contains embedded CRCs is error prone; masking breaks the
/// algebraic relationship.
inline uint32_t Mask(uint32_t crc) {
  // Rotate right by 15 bits and add a constant.
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

/// Inverse of Mask().
inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace fcae

#endif  // FCAE_UTIL_CRC32C_H_
