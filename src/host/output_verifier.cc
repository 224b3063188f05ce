#include "host/output_verifier.h"

#include <memory>

#include "host/fork_join.h"
#include "table/filter_block.h"
#include "table/table_verifier.h"

namespace fcae {
namespace host {

namespace {

Status VerifyDeviceOutputTable(const fpga::DeviceOutputTable& table,
                               const InternalKeyComparator& icmp,
                               FilterBlockBuilder* filter,
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
    Status s = walker.NextBlock(e.last_key, handle, nullptr, filter);
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
                          OutputVerifyStats* stats,
                          const FilterPolicy* filter_policy,
                          std::vector<std::string>* filter_blocks) {
  const size_t n = output.tables.size();
  std::vector<Status> results(n);
  std::vector<OutputVerifyStats> table_stats(n);
  std::vector<std::string> filters(filter_policy != nullptr ? n : 0);
  ForkJoin(n, [&](size_t i) {
    std::unique_ptr<FilterBlockBuilder> filter;
    if (filter_policy != nullptr) {
      filter = std::make_unique<FilterBlockBuilder>(filter_policy);
    }
    results[i] = VerifyDeviceOutputTable(output.tables[i], icmp, filter.get(),
                                         &table_stats[i]);
    if (filter != nullptr && results[i].ok()) {
      filters[i] = filter->Finish().ToString();
    }
  });

  for (size_t i = 0; i < n; i++) {
    if (!results[i].ok()) return results[i];
    // Tables of one compaction form one sorted run.
    if (i > 0 && icmp.Compare(output.tables[i - 1].largest_key,
                              output.tables[i].smallest_key) >= 0) {
      return Status::Corruption("device output tables overlap");
    }
    stats->tables += table_stats[i].tables;
    stats->blocks += table_stats[i].blocks;
    stats->entries += table_stats[i].entries;
  }
  if (filter_blocks != nullptr) {
    filter_blocks->swap(filters);
  }
  return Status::OK();
}

}  // namespace host
}  // namespace fcae
