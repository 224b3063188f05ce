#ifndef FCAE_TABLE_FORMAT_H_
#define FCAE_TABLE_FORMAT_H_

#include <cstdint>
#include <string>

#include "util/options.h"
#include "util/slice.h"
#include "util/status.h"

namespace fcae {

class RandomAccessFile;

/// A BlockHandle is a pointer to the extent of a file that stores a data
/// or meta block: (offset, size), each varint64-encoded.
class BlockHandle {
 public:
  /// Maximum encoded length of a BlockHandle.
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle();

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }

  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

/// The Footer is the fixed-length tail of every SSTable: handles to the
/// metaindex and index blocks plus a magic number.
class Footer {
 public:
  /// Encoded length: two max-size handles (padded) + 8-byte magic.
  enum { kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8 };

  Footer() = default;

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }

  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

/// kTableMagicNumber identifies fcae SSTables ("fcaesst1" as hex-ish).
constexpr uint64_t kTableMagicNumber = 0xfcae57ab1e5eed01ull;

/// Each stored block is followed by a 5-byte trailer:
/// 1 byte CompressionType + 4 byte masked CRC32C of data+type.
constexpr size_t kBlockTrailerSize = 5;

/// Chooses how the raw block `raw` is stored. With *type
/// kSnappyCompression it compresses into *scratch and keeps the result
/// only if that saves at least 1/8 of `raw`; otherwise *type becomes
/// kNoCompression. Returns the bytes to store.
Slice CompressBlock(const Slice& raw, CompressionType* type,
                    std::string* scratch);

/// Writes the trailer of the stored block `contents` into
/// trailer[0, kBlockTrailerSize).
void EncodeBlockTrailer(const Slice& contents, CompressionType type,
                        char* trailer);

/// Appends `contents` to *dst as a stored uncompressed block: the bytes,
/// then their kNoCompression trailer.
void AppendStoredBlock(const Slice& contents, std::string* dst);

/// Returns true iff the trailer at data[n, n + kBlockTrailerSize) holds
/// the checksum of data[0, n) and the trailer's type byte.
bool BlockTrailerMatches(const char* data, size_t n);

/// The result of reading a block from a file.
struct BlockContents {
  Slice data;           // Actual contents of the (decompressed) block.
  bool cachable;        // True iff data can be cached.
  bool heap_allocated;  // True iff caller should delete[] data.data().
};

/// Decodes the stored block `stored` (contents, then a whole trailer):
/// checks the trailer checksum when `verify_checksum` is set and
/// decompresses if needed. An uncompressed block's result->data points
/// into `stored`.
Status DecodeBlock(const Slice& stored, bool verify_checksum,
                   BlockContents* result);

/// Decodes the stored block `handle` addresses inside `image`, an
/// in-memory copy of a table's blocks, with its trailer checked.
Status ReadImageBlock(const Slice& image, const BlockHandle& handle,
                      BlockContents* result);

/// Reads the block identified by `handle` from `file` and decodes it
/// with DecodeBlock, checking the trailer when options.verify_checksums
/// is set.
Status ReadBlock(RandomAccessFile* file, const ReadOptions& options,
                 const BlockHandle& handle, BlockContents* result);

}  // namespace fcae

#endif  // FCAE_TABLE_FORMAT_H_
