#include "fpga/device_memory.h"

#include "lsm/dbformat.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "util/coding.h"
#include "util/comparator.h"
#include "util/options.h"

namespace fcae {
namespace fpga {

void AppendIndexBlock(const std::vector<OutputIndexEntry>& entries,
                      std::string* dst) {
  // The comparator only checks the order of the added keys.
  static const InternalKeyComparator* icmp =
      new InternalKeyComparator(BytewiseComparator());
  Options options;
  options.comparator = icmp;
  options.block_restart_interval = 1;
  BlockBuilder block(&options);
  std::string handle_encoding;
  for (const OutputIndexEntry& e : entries) {
    BlockHandle handle;
    handle.set_offset(e.offset);
    handle.set_size(e.size);
    handle_encoding.clear();
    handle.EncodeTo(&handle_encoding);
    block.Add(e.last_key, handle_encoding);
  }
  AppendStoredBlock(block.Finish(), dst);
}

void EncodeMetaIn(const std::vector<SstableDescriptor>& sstables,
                  std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(sstables.size()));
  for (const SstableDescriptor& s : sstables) {
    PutVarint64(dst, s.index_offset);
    PutVarint64(dst, s.index_size);
    PutVarint64(dst, s.data_offset);
    PutVarint64(dst, s.data_size);
  }
}

Status DecodeMetaIn(const Slice& src, std::vector<SstableDescriptor>* out) {
  out->clear();
  Slice input = src;
  uint32_t count;
  if (!GetVarint32(&input, &count)) {
    return Status::Corruption("MetaIn: bad table count");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    SstableDescriptor s;
    if (!GetVarint64(&input, &s.index_offset) ||
        !GetVarint64(&input, &s.index_size) ||
        !GetVarint64(&input, &s.data_offset) ||
        !GetVarint64(&input, &s.data_size)) {
      return Status::Corruption("MetaIn: truncated descriptor");
    }
    out->push_back(s);
  }
  if (!input.empty()) {
    return Status::Corruption("MetaIn: trailing bytes");
  }
  return Status::OK();
}

void EncodeOutputIndex(const std::vector<OutputIndexEntry>& entries,
                       std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(entries.size()));
  for (const OutputIndexEntry& e : entries) {
    PutLengthPrefixedSlice(dst, e.last_key);
    PutVarint64(dst, e.offset);
    PutVarint64(dst, e.size);
  }
}

Status DecodeOutputIndex(const Slice& src,
                         std::vector<OutputIndexEntry>* out) {
  out->clear();
  Slice input = src;
  uint32_t count;
  if (!GetVarint32(&input, &count)) {
    return Status::Corruption("OutputIndex: bad entry count");
  }
  out->reserve(count);
  for (uint32_t i = 0; i < count; i++) {
    OutputIndexEntry e;
    Slice key;
    if (!GetLengthPrefixedSlice(&input, &key) ||
        !GetVarint64(&input, &e.offset) || !GetVarint64(&input, &e.size)) {
      return Status::Corruption("OutputIndex: truncated entry");
    }
    e.last_key = key.ToString();
    out->push_back(std::move(e));
  }
  if (!input.empty()) {
    return Status::Corruption("OutputIndex: trailing bytes");
  }
  return Status::OK();
}

}  // namespace fpga
}  // namespace fcae
