#include "table/format.h"

#include "compress/snappy.h"
#include "obs/perf_context.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/env.h"

namespace fcae {

BlockHandle::BlockHandle() : offset_(~0ull), size_(~0ull) {}

void BlockHandle::EncodeTo(std::string* dst) const {
  // Sanity check that all fields have been set.
  assert(offset_ != ~0ull);
  assert(size_ != ~0ull);
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  metaindex_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // Padding
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
  assert(dst->size() == original_size + kEncodedLength);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("not an sstable (footer too short)");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic = ((static_cast<uint64_t>(magic_hi) << 32) |
                          (static_cast<uint64_t>(magic_lo)));
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }

  Status result = metaindex_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  if (result.ok()) {
    // Skip over any leftover data (just padding for now).
    const char* end = magic_ptr + 8;
    *input = Slice(end, input->data() + input->size() - end);
  }
  return result;
}

Slice CompressBlock(const Slice& raw, CompressionType* type,
                    std::string* scratch) {
  if (*type == kSnappyCompression) {
    snappy::Compress(raw.data(), raw.size(), scratch);
    if (scratch->size() < raw.size() - (raw.size() / 8u)) {
      return *scratch;
    }
  }
  *type = kNoCompression;
  return raw;
}

void EncodeBlockTrailer(const Slice& contents, CompressionType type,
                        char* trailer) {
  trailer[0] = static_cast<char>(type);
  uint32_t crc = crc32c::Value(contents.data(), contents.size());
  crc = crc32c::Extend(crc, trailer, 1);  // Extend crc to cover block type
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
}

void AppendStoredBlock(const Slice& contents, std::string* dst) {
  dst->append(contents.data(), contents.size());
  char trailer[kBlockTrailerSize];
  EncodeBlockTrailer(contents, kNoCompression, trailer);
  dst->append(trailer, kBlockTrailerSize);
}

bool BlockTrailerMatches(const char* data, size_t n) {
  return crc32c::Value(data, n + 1) ==
         crc32c::Unmask(DecodeFixed32(data + n + 1));
}

Status DecodeBlock(const Slice& stored, bool verify_checksum,
                   BlockContents* result) {
  result->data = Slice();
  result->cachable = false;
  result->heap_allocated = false;
  if (stored.size() < kBlockTrailerSize) {
    return Status::Corruption("stored block shorter than its trailer");
  }
  const char* data = stored.data();
  const size_t n = stored.size() - kBlockTrailerSize;
  if (verify_checksum && !BlockTrailerMatches(data, n)) {
    return Status::Corruption("block checksum mismatch");
  }

  switch (data[n]) {
    case kNoCompression:
      result->data = Slice(data, n);
      return Status::OK();
    case kSnappyCompression: {
      size_t ulength = 0;
      if (!snappy::GetUncompressedLength(data, n, &ulength)) {
        return Status::Corruption("corrupted compressed block contents");
      }
      char* ubuf = new char[ulength];
      if (!snappy::Uncompress(data, n, ubuf)) {
        delete[] ubuf;
        return Status::Corruption("corrupted compressed block contents");
      }
      result->data = Slice(ubuf, ulength);
      result->heap_allocated = true;
      result->cachable = true;
      return Status::OK();
    }
    default:
      return Status::Corruption("bad block type");
  }
}

Status ReadImageBlock(const Slice& image, const BlockHandle& handle,
                      BlockContents* result) {
  const uint64_t size = image.size();
  if (handle.offset() > size || size - handle.offset() < kBlockTrailerSize ||
      handle.size() > size - handle.offset() - kBlockTrailerSize) {
    return Status::Corruption("block handle out of bounds");
  }
  return DecodeBlock(Slice(image.data() + handle.offset(),
                           handle.size() + kBlockTrailerSize),
                     /*verify_checksum=*/true, result);
}

Status ReadBlock(RandomAccessFile* file, const ReadOptions& options,
                 const BlockHandle& handle, BlockContents* result) {
  result->data = Slice();
  result->cachable = false;
  result->heap_allocated = false;

  // Read the block contents as well as the type/crc trailer.
  size_t n = static_cast<size_t>(handle.size());
  char* buf = new char[n + kBlockTrailerSize];
  Slice contents;
  Status s;
  {
    FCAE_IOSTATS_TIMER_GUARD(read_timer, read_micros);
    s = file->Read(handle.offset(), n + kBlockTrailerSize, &contents, buf);
  }
  if (s.ok()) {
    FCAE_IOSTATS_COUNT(bytes_read, contents.size());
    if (contents.size() != n + kBlockTrailerSize) {
      s = Status::Corruption("truncated block read");
    }
  }
  if (s.ok()) {
    s = DecodeBlock(contents, options.verify_checksums, result);
  }
  if (s.ok() && result->data.data() == buf) {
    // An uncompressed block read into buf: the caller now owns buf.
    result->heap_allocated = true;
    result->cachable = true;
  } else {
    // Either the block was decompressed into its own buffer, or the
    // file handed back a pointer to its own data, which stays live
    // while the file is open (and must not be double-cached).
    delete[] buf;
  }
  return s;
}

}  // namespace fcae
