#include "host/output_verifier.h"

#include "table/table_verifier.h"

namespace fcae {
namespace host {

namespace {

Status VerifyDeviceOutputTable(const fpga::DeviceOutputTable& table,
                               const InternalKeyComparator& icmp,
                               OutputVerifyStats* stats) {
  if (table.index_entries.empty()) {
    return Status::Corruption("device output table has no index entries");
  }
  BlockWalker walker(Slice(table.data_memory), &icmp);
  uint64_t expected_offset = 0;
  for (const fpga::OutputIndexEntry& e : table.index_entries) {
    // Blocks must tile the returned data memory in order, without
    // overlap or gaps.
    if (e.offset != expected_offset) {
      return Status::Corruption("device output blocks overlap or leave gaps");
    }
    BlockHandle handle;
    handle.set_offset(e.offset);
    handle.set_size(e.size);
    Status s = walker.NextBlock(e.last_key, handle, nullptr);
    if (!s.ok()) return s;
    // The engine's separators are its blocks' exact last keys.
    if (walker.stats().largest != e.last_key) {
      return Status::Corruption("index separator disagrees with block");
    }
    expected_offset = e.offset + e.size + kBlockTrailerSize;
    stats->blocks++;
  }

  if (expected_offset != table.data_memory.size()) {
    return Status::Corruption("device output data has trailing garbage");
  }
  // The record count and first/last keys must equal MetaOut, which the
  // host installs in the version edit.
  const BlockWalkStats& walk = walker.stats();
  if (walk.entries != table.num_entries) {
    return Status::Corruption("device output entry count mismatch");
  }
  if (walk.smallest != table.smallest_key) {
    return Status::Corruption("device output smallest key mismatch");
  }
  if (walk.largest != table.largest_key) {
    return Status::Corruption("device output largest key mismatch");
  }
  stats->tables++;
  stats->entries += walk.entries;
  return Status::OK();
}

}  // namespace

Status VerifyDeviceOutput(const fpga::DeviceOutput& output,
                          const InternalKeyComparator& icmp,
                          OutputVerifyStats* stats) {
  std::string prev_largest;
  for (const fpga::DeviceOutputTable& table : output.tables) {
    Status s = VerifyDeviceOutputTable(table, icmp, stats);
    if (!s.ok()) return s;
    // Tables of one compaction form one sorted run.
    if (!prev_largest.empty() &&
        icmp.Compare(prev_largest, table.smallest_key) >= 0) {
      return Status::Corruption("device output tables overlap");
    }
    prev_largest = table.largest_key;
  }
  return Status::OK();
}

}  // namespace host
}  // namespace fcae
