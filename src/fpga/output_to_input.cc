#include "fpga/output_to_input.h"

#include "lsm/dbformat.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "util/comparator.h"
#include "util/options.h"

namespace fcae {
namespace fpga {

Status ConvertOutputToInput(const DeviceOutput& output, DeviceInput* input) {
  static const InternalKeyComparator* icmp =
      new InternalKeyComparator(BytewiseComparator());
  Options block_options;
  block_options.comparator = icmp;
  block_options.block_restart_interval = 1;

  for (const DeviceOutputTable& table : output.tables) {
    if (table.index_entries.empty()) {
      continue;  // Empty table: nothing to decode.
    }

    SstableDescriptor desc;
    desc.data_offset = input->data_memory.size();
    desc.data_size = table.data_memory.size();
    input->data_memory.append(table.data_memory);

    // Rebuild the stored index block (uncompressed + trailer), exactly
    // as AssembleTableFile does on the host side.
    BlockBuilder index_block(&block_options);
    for (const OutputIndexEntry& e : table.index_entries) {
      BlockHandle handle;
      handle.set_offset(e.offset);
      handle.set_size(e.size);
      std::string handle_encoding;
      handle.EncodeTo(&handle_encoding);
      index_block.Add(e.last_key, handle_encoding);
    }
    Slice contents = index_block.Finish();

    desc.index_offset = input->index_memory.size();
    desc.index_size = contents.size() + kBlockTrailerSize;
    input->index_memory.append(contents.data(), contents.size());
    char trailer[kBlockTrailerSize];
    EncodeBlockTrailer(contents, kNoCompression, trailer);
    input->index_memory.append(trailer, kBlockTrailerSize);

    input->sstables.push_back(desc);
  }
  return Status::OK();
}

}  // namespace fpga
}  // namespace fcae
