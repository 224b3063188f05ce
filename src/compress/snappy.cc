#include "compress/snappy.h"

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/coding.h"

namespace fcae {
namespace snappy {

namespace {

// Tag byte low 2 bits select the element type.
constexpr int kLiteral = 0;
constexpr int kCopy1ByteOffset = 1;  // 4..11 byte copies, 11-bit offset.
constexpr int kCopy2ByteOffset = 2;  // 1..64 byte copies, 16-bit offset.
constexpr int kCopy4ByteOffset = 3;  // 1..64 byte copies, 32-bit offset.

constexpr size_t kHashTableBits = 14;
constexpr size_t kHashTableSize = 1 << kHashTableBits;
constexpr size_t kInputMarginBytes = 15;

inline uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t HashBytes(uint32_t bytes) {
  return (bytes * 0x1e35a7bdu) >> (32 - kHashTableBits);
}

/// Emits a literal element covering [literal, literal + len).
char* EmitLiteral(char* op, const char* literal, size_t len) {
  size_t n = len - 1;  // Zero-length literals are disallowed.
  if (n < 60) {
    *op++ = static_cast<char>(kLiteral | (n << 2));
  } else {
    // Encode length as 1..4 trailing bytes.
    char* base = op;
    op++;
    int count = 0;
    while (n > 0) {
      *op++ = static_cast<char>(n & 0xff);
      n >>= 8;
      count++;
    }
    *base = static_cast<char>(kLiteral | ((59 + count) << 2));
  }
  std::memcpy(op, literal, len);
  return op + len;
}

/// Emits a copy of `len` (4..64) bytes from `offset` back.
char* EmitCopyUpTo64(char* op, size_t offset, size_t len) {
  if (len < 12 && offset < 2048) {
    *op++ = static_cast<char>(kCopy1ByteOffset | ((len - 4) << 2) |
                              ((offset >> 8) << 5));
    *op++ = static_cast<char>(offset & 0xff);
  } else {
    *op++ = static_cast<char>(kCopy2ByteOffset | ((len - 1) << 2));
    *op++ = static_cast<char>(offset & 0xff);
    *op++ = static_cast<char>((offset >> 8) & 0xff);
  }
  return op;
}

char* EmitCopy(char* op, size_t offset, size_t len) {
  // Long matches are split into <=64 byte chunks.
  while (len >= 68) {
    op = EmitCopyUpTo64(op, offset, 64);
    len -= 64;
  }
  if (len > 64) {
    op = EmitCopyUpTo64(op, offset, 60);
    len -= 60;
  }
  op = EmitCopyUpTo64(op, offset, len);
  return op;
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Returns how many bytes from s1 and s2 match, up to s2_limit; s1 lies
/// before s2, so every byte it reads is below s2_limit too. Compares
/// eight bytes at a time: the lowest differing byte of two words, in
/// memory order, is the first mismatch.
size_t MatchLength(const char* s1, const char* s2, const char* s2_limit) {
  size_t matched = 0;
  while (s2_limit - (s2 + matched) >= 8) {
    const uint64_t diff = Load64(s1 + matched) ^ Load64(s2 + matched);
    if (diff != 0) {
      const int bit = std::endian::native == std::endian::little
                          ? std::countr_zero(diff)
                          : std::countl_zero(diff);
      return matched + bit / 8;
    }
    matched += 8;
  }
  while (s2 + matched < s2_limit && s1[matched] == s2[matched]) {
    matched++;
  }
  return matched;
}

}  // namespace

size_t MaxCompressedLength(size_t n) { return 32 + n + n / 6; }

void Compress(const char* input, size_t n, std::string* output) {
  output->clear();
  output->resize(MaxCompressedLength(n));
  char* dst = output->data();
  char* op = EncodeVarint32(dst, static_cast<uint32_t>(n));

  if (n < kInputMarginBytes) {
    if (n > 0) {
      op = EmitLiteral(op, input, n);
    }
    output->resize(op - dst);
    return;
  }

  uint16_t table[kHashTableSize];
  std::memset(table, 0, sizeof(table));

  const char* ip = input;
  const char* ip_end = input + n;
  // Matches are only started while at least kInputMarginBytes remain, so
  // 4-byte loads below never run past the buffer.
  const char* ip_limit = input + n - kInputMarginBytes;
  const char* next_emit = input;  // Start of pending literal bytes.

  // The 16-bit table stores offsets from `base`; rebase for large inputs.
  const char* base = input;

  ip++;
  while (ip < ip_limit) {
    // Find a 4-byte match via the hash table.
    uint32_t hash = HashBytes(Load32(ip));
    const char* candidate = base + table[hash];
    table[hash] = static_cast<uint16_t>(ip - base);

    if (candidate < ip && Load32(candidate) == Load32(ip) &&
        static_cast<size_t>(ip - candidate) <= 65535) {
      // Emit pending literal, then the copy.
      if (ip > next_emit) {
        op = EmitLiteral(op, next_emit, ip - next_emit);
      }
      size_t matched = 4 + MatchLength(candidate + 4, ip + 4, ip_end);
      op = EmitCopy(op, ip - candidate, matched);
      ip += matched;
      next_emit = ip;
      if (ip >= ip_limit) {
        break;
      }
      // Re-seed the table at the new position.
      table[HashBytes(Load32(ip))] = static_cast<uint16_t>(ip - base);
      ip++;
    } else {
      ip++;
    }
    if (static_cast<size_t>(ip - base) >= 60000) {
      // Rebase so 16-bit table entries keep working; stale entries will
      // simply fail the Load32 equality check.
      base = ip - 1;
      std::memset(table, 0, sizeof(table));
    }
  }

  if (next_emit < ip_end) {
    op = EmitLiteral(op, next_emit, ip_end - next_emit);
  }
  output->resize(op - dst);
}

bool GetUncompressedLength(const char* input, size_t n, size_t* result) {
  uint32_t len;
  const char* p = GetVarint32Ptr(input, input + n, &len);
  if (p == nullptr) {
    return false;
  }
  *result = len;
  return true;
}

bool Uncompress(const char* input, size_t n, char* output) {
  uint32_t expected_len;
  const char* ip = GetVarint32Ptr(input, input + n, &expected_len);
  if (ip == nullptr) {
    return false;
  }
  const char* ip_end = input + n;
  char* op = output;
  char* op_end = output + expected_len;

  while (ip < ip_end) {
    const uint8_t tag = static_cast<uint8_t>(*ip++);
    switch (tag & 0x3) {
      case kLiteral: {
        size_t len = (tag >> 2) + 1;
        if (len > 60) {
          // Length is stored in the next (len - 60) bytes.
          size_t extra = len - 60;
          if (ip + extra > ip_end) return false;
          len = 0;
          for (size_t i = 0; i < extra; i++) {
            len |= static_cast<size_t>(static_cast<uint8_t>(ip[i])) << (8 * i);
          }
          len += 1;
          ip += extra;
        }
        if (ip + len > ip_end || op + len > op_end) return false;
        std::memcpy(op, ip, len);
        ip += len;
        op += len;
        break;
      }
      case kCopy1ByteOffset: {
        size_t len = ((tag >> 2) & 0x7) + 4;
        if (ip >= ip_end) return false;
        size_t offset = ((tag >> 5) << 8) | static_cast<uint8_t>(*ip++);
        if (offset == 0 || offset > static_cast<size_t>(op - output) ||
            op + len > op_end) {
          return false;
        }
        // Byte-by-byte copy: ranges may overlap (run-length encoding).
        const char* src = op - offset;
        for (size_t i = 0; i < len; i++) {
          op[i] = src[i];
        }
        op += len;
        break;
      }
      case kCopy2ByteOffset: {
        size_t len = (tag >> 2) + 1;
        if (ip + 2 > ip_end) return false;
        size_t offset = static_cast<uint8_t>(ip[0]) |
                        (static_cast<size_t>(static_cast<uint8_t>(ip[1])) << 8);
        ip += 2;
        if (offset == 0 || offset > static_cast<size_t>(op - output) ||
            op + len > op_end) {
          return false;
        }
        const char* src = op - offset;
        for (size_t i = 0; i < len; i++) {
          op[i] = src[i];
        }
        op += len;
        break;
      }
      case kCopy4ByteOffset: {
        size_t len = (tag >> 2) + 1;
        if (ip + 4 > ip_end) return false;
        size_t offset = static_cast<uint32_t>(DecodeFixed32(ip));
        ip += 4;
        if (offset == 0 || offset > static_cast<size_t>(op - output) ||
            op + len > op_end) {
          return false;
        }
        const char* src = op - offset;
        for (size_t i = 0; i < len; i++) {
          op[i] = src[i];
        }
        op += len;
        break;
      }
    }
  }
  return op == op_end;
}

bool Uncompress(const char* input, size_t n, std::string* output) {
  size_t ulen;
  if (!GetUncompressedLength(input, n, &ulen)) {
    return false;
  }
  output->resize(ulen);
  return Uncompress(input, n, output->data());
}

}  // namespace snappy
}  // namespace fcae
