#include "host/cpu_compactor.h"

#include <algorithm>
#include <memory>

#include "fpga/encoder.h"
#include "lsm/dbformat.h"
#include "table/block.h"
#include "table/format.h"
#include "table/merger.h"
#include "table/two_level_iterator.h"
#include "util/comparator.h"
#include "util/env.h"

namespace fcae {
namespace host {

namespace {

// Opens the data block an index entry addresses; `arg` is the staged
// data region of the entry's table (a Slice).
Iterator* OpenDataBlock(void* arg, const ReadOptions& /*options*/,
                        const Slice& index_value) {
  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }
  return NewImageBlockIterator(*static_cast<const Slice*>(arg), handle,
                               BytewiseComparator());
}

/// One staged input as one merge child. Like the card's decoder lane, it
/// reads the input's tables in staged order, which need not be sorted
/// across tables, and each table's data blocks in index order. The merge
/// only moves forward, so that is all it supports.
class StagedInputIterator : public Iterator {
 public:
  explicit StagedInputIterator(const fpga::DeviceInput* input)
      : input_(input) {}

  bool Valid() const override { return table_ != nullptr && table_->Valid(); }
  Slice key() const override { return table_->key(); }
  Slice value() const override { return table_->value(); }
  Status status() const override {
    return table_ != nullptr ? table_->status() : status_;
  }

  void SeekToFirst() override {
    table_.reset();
    next_table_ = 0;
    status_ = Status::OK();
    SkipExhaustedTables();
  }
  void Next() override {
    table_->Next();
    SkipExhaustedTables();
  }
  void SeekToLast() override { Unsupported(); }
  void Seek(const Slice& /*target*/) override { Unsupported(); }
  void Prev() override { Unsupported(); }

 private:
  // Opens the next tables until one has a record, stopping at an error.
  void SkipExhaustedTables() {
    while (!Valid()) {
      if (table_ != nullptr) {
        status_ = table_->status();
        table_.reset();
      }
      if (!status_.ok() || next_table_ == input_->sstables.size()) {
        return;
      }
      const fpga::SstableDescriptor& desc = input_->sstables[next_table_++];
      BlockHandle index;
      index.set_offset(desc.index_offset);
      index.set_size(desc.index_size - kBlockTrailerSize);
      const std::string& data = input_->data_memory;
      const size_t base = std::min<uint64_t>(desc.data_offset, data.size());
      data_ = Slice(data.data() + base, data.size() - base);
      table_.reset(NewTwoLevelIterator(
          NewImageBlockIterator(input_->index_memory, index,
                                BytewiseComparator()),
          &OpenDataBlock, &data_, ReadOptions()));
      table_->SeekToFirst();
    }
  }

  void Unsupported() {
    table_.reset();
    status_ = Status::NotSupported("staged inputs are read forward only");
  }

  const fpga::DeviceInput* const input_;
  size_t next_table_ = 0;
  Slice data_;  // The current table's staged data region.
  std::unique_ptr<Iterator> table_;
  Status status_;
};

}  // namespace

Status CpuCompactImages(const std::vector<const fpga::DeviceInput*>& inputs,
                        const CpuCompactorOptions& options,
                        fpga::DeviceOutput* output, CpuCompactStats* stats) {
  Env* env = Env::Default();
  const uint64_t start_micros = env->NowMicros();

  std::vector<Iterator*> children;
  for (const fpga::DeviceInput* input : inputs) {
    stats->input_bytes += input->TotalBytes();
    children.push_back(new StagedInputIterator(input));
  }
  const InternalKeyComparator icmp(BytewiseComparator());
  std::unique_ptr<Iterator> merged(NewMergingIterator(
      &icmp, children.data(), static_cast<int>(children.size())));

  CompactionDropRule drop_rule(BytewiseComparator(),
                               options.smallest_snapshot,
                               options.drop_deletions);
  fpga::OutputTableWriter writer(options.data_block_threshold,
                                 options.sstable_threshold,
                                 options.compress_output, output);
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    stats->records_in++;
    if (drop_rule.ShouldDrop(merged->key())) {
      stats->records_dropped++;
    } else {
      writer.Add(merged->key(), merged->value());
      stats->records_out++;
    }
  }
  Status s = merged->status();
  if (!s.ok()) {
    return s;
  }
  writer.Finish();

  for (const fpga::DeviceOutputTable& t : output->tables) {
    stats->output_bytes += t.data_memory.size();
  }
  stats->micros = static_cast<double>(env->NowMicros() - start_micros);
  return Status::OK();
}

}  // namespace host
}  // namespace fcae
