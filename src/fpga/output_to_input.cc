#include "fpga/output_to_input.h"

namespace fcae {
namespace fpga {

Status ConvertOutputToInput(const DeviceOutput& output, DeviceInput* input) {
  for (const DeviceOutputTable& table : output.tables) {
    if (table.index_entries.empty()) {
      continue;  // Empty table: nothing to decode.
    }

    SstableDescriptor desc;
    desc.data_offset = input->data_memory.size();
    desc.data_size = table.data_memory.size();
    input->data_memory.append(table.data_memory);

    desc.index_offset = input->index_memory.size();
    AppendIndexBlock(table.index_entries, &input->index_memory);
    desc.index_size = input->index_memory.size() - desc.index_offset;

    input->sstables.push_back(desc);
  }
  return Status::OK();
}

}  // namespace fpga
}  // namespace fcae
