#include "fpga/block_parse.h"

#include "compress/snappy.h"
#include "table/format.h"
#include "util/coding.h"

namespace fcae {
namespace fpga {

Status DecodeStoredBlock(const Slice& stored_block, bool verify_checksum,
                         std::string* contents) {
  contents->clear();
  if (stored_block.size() < kBlockTrailerSize) {
    return Status::Corruption("stored block shorter than trailer");
  }
  const size_t n = stored_block.size() - kBlockTrailerSize;
  const char* data = stored_block.data();

  if (verify_checksum && !BlockTrailerMatches(data, n)) {
    return Status::Corruption("block checksum mismatch in engine");
  }

  switch (static_cast<CompressionType>(data[n])) {
    case kNoCompression:
      contents->assign(data, n);
      return Status::OK();
    case kSnappyCompression:
      if (!snappy::Uncompress(data, n, contents)) {
        return Status::Corruption("corrupted compressed block in engine");
      }
      return Status::OK();
    default:
      return Status::Corruption("bad block type in engine");
  }
}

Status ParseBlockEntries(const Slice& contents,
                         std::vector<ParsedEntry>* out) {
  if (contents.size() < sizeof(uint32_t)) {
    return Status::Corruption("block too small for restart count");
  }
  const uint32_t num_restarts =
      DecodeFixed32(contents.data() + contents.size() - sizeof(uint32_t));
  const size_t restart_bytes = (1 + num_restarts) * sizeof(uint32_t);
  if (restart_bytes > contents.size()) {
    return Status::Corruption("bad restart array");
  }
  const char* p = contents.data();
  const char* limit = contents.data() + contents.size() - restart_bytes;

  std::string last_key;
  while (p < limit) {
    uint32_t shared, non_shared, value_length;
    p = GetVarint32Ptr(p, limit, &shared);
    if (p == nullptr) return Status::Corruption("bad entry (shared)");
    p = GetVarint32Ptr(p, limit, &non_shared);
    if (p == nullptr) return Status::Corruption("bad entry (non_shared)");
    p = GetVarint32Ptr(p, limit, &value_length);
    if (p == nullptr) return Status::Corruption("bad entry (value_length)");
    if (static_cast<size_t>(limit - p) < non_shared + value_length ||
        shared > last_key.size()) {
      return Status::Corruption("bad entry (lengths)");
    }
    ParsedEntry entry;
    entry.key.assign(last_key.data(), shared);
    entry.key.append(p, non_shared);
    entry.value.assign(p + non_shared, value_length);
    last_key = entry.key;
    p += non_shared + value_length;
    out->push_back(std::move(entry));
  }
  return Status::OK();
}

}  // namespace fpga
}  // namespace fcae
