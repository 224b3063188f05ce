#include "fpga/encoder.h"

#include <algorithm>

#include "compress/snappy.h"
#include "fpga/kv_transfer.h"
#include "table/format.h"

namespace fcae {
namespace fpga {

namespace {
uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }
}  // namespace

OutputEncoder::OutputEncoder(const EngineConfig& config,
                             const Options& table_options,
                             KeyValueTransfer* transfer, DeviceOutput* output)
    : config_(config),
      table_options_(table_options),
      transfer_(transfer),
      output_(output),
      block_builder_(new BlockBuilder(&table_options_)),
      write_queue_(4) {}

OutputEncoder::~OutputEncoder() = default;

void OutputEncoder::FlushBlock() {
  if (block_builder_->empty()) {
    return;
  }
  Slice raw = block_builder_->Finish();

  Slice block_contents;
  CompressionType type = kNoCompression;
  if (config_.compress_output) {
    snappy::Compress(raw.data(), raw.size(), &compression_scratch_);
    if (compression_scratch_.size() < raw.size() - (raw.size() / 8u)) {
      block_contents = compression_scratch_;
      type = kSnappyCompression;
    } else {
      block_contents = raw;
    }
  } else {
    block_contents = raw;
  }

  // Append stored block + trailer to the output table's data memory,
  // exactly as TableBuilder::WriteRawBlock does on the host.
  OutputIndexEntry entry;
  entry.last_key = block_last_key_;
  entry.offset = current_table_.data_memory.size();
  entry.size = block_contents.size();

  current_table_.data_memory.append(block_contents.data(),
                                    block_contents.size());
  char trailer[kBlockTrailerSize];
  EncodeBlockTrailer(block_contents, type, trailer);
  current_table_.data_memory.append(trailer, kBlockTrailerSize);

  current_table_.index_entries.push_back(std::move(entry));

  // Index Block Encoder: eager writeback when separated; BRAM
  // accumulation otherwise (paper Section V-B2).
  const size_t index_entry_bytes = block_last_key_.size() + 16;
  if (config_.BlocksSeparated()) {
    if (write_queue_.CanPush()) {
      write_queue_.Push(QueuedWrite{index_entry_bytes});
    } else {
      // Fold into the block's own write when the port queue is full.
    }
  } else {
    bram_index_bytes_ += index_entry_bytes;
    if (bram_index_bytes_ > bram_index_bytes_peak_) {
      bram_index_bytes_peak_ = bram_index_bytes_;
    }
  }

  // Queue the data block write (payload + trailer through the upsizer).
  const uint64_t stored = block_contents.size() + kBlockTrailerSize;
  bytes_written_ += stored;
  if (write_queue_.CanPush()) {
    write_queue_.Push(QueuedWrite{stored});
  } else {
    // The write port is saturated: the encoder stalls for the whole
    // transfer instead of queueing (models output buffer overflow).
    busy_ += config_.dram_read_latency +
             CeilDiv(stored, config_.EffectiveOutputWidth());
    write_stall_cycles_ += busy_;
  }
  blocks_emitted_++;

  block_builder_->Reset();
  block_first_key_.clear();
  block_last_key_.clear();
}

void OutputEncoder::FinishTable() {
  FlushBlock();
  if (!table_open_) {
    return;
  }
  if (!config_.BlocksSeparated() && bram_index_bytes_ > 0) {
    // Bulk index block writeback at table end; the encoder is stalled
    // for its duration (the basic design's extra transfer time).
    busy_ += config_.dram_read_latency +
             CeilDiv(bram_index_bytes_, config_.EffectiveOutputWidth());
    bram_index_bytes_ = 0;
  }
  output_->tables.push_back(std::move(current_table_));
  current_table_ = DeviceOutputTable();
  table_open_ = false;
}

void OutputEncoder::TickWriter() {
  if (write_busy_ > 0) {
    write_busy_--;
    return;
  }
  if (write_queue_.CanPop()) {
    QueuedWrite w = write_queue_.Pop();
    write_busy_ = config_.dram_read_latency +
                  CeilDiv(w.bytes, config_.EffectiveOutputWidth());
  }
}

void OutputEncoder::Tick() {
  TickWriter();

  if (busy_ > 0) {
    busy_--;
    busy_cycles_++;
    return;
  }

  if (transfer_->output().CanPop()) {
    KvRecord record = transfer_->output().Pop();

    if (!table_open_) {
      table_open_ = true;
      current_table_.smallest_key = record.internal_key;
    }
    if (block_builder_->empty()) {
      block_first_key_ = record.internal_key;
    }
    block_last_key_ = record.internal_key;
    current_table_.largest_key = record.internal_key;
    current_table_.num_entries++;

    block_builder_->Add(record.internal_key, record.value);
    records_encoded_++;

    uint64_t cycles = record.key_length();
    if (!config_.KeyValueSeparated()) {
      cycles += record.value_length();
    }
    busy_ = cycles == 0 ? 1 : cycles;

    if (block_builder_->CurrentSizeEstimate() >=
        config_.data_block_threshold) {
      FlushBlock();
      if (current_table_.data_memory.size() >= config_.sstable_threshold) {
        FinishTable();
      }
    }
    return;
  }

  if (upstream_done_ && !finalized_ && transfer_->Done() &&
      transfer_->output().Empty()) {
    FinishTable();
    finalized_ = true;
  }
}

uint64_t OutputEncoder::QuietCycles() const {
  // The write port pops the next queued write once write_busy_ drains.
  const uint64_t writer = write_queue_.Empty() ? kQuietForever : write_busy_;
  if (finalized_) {
    return std::min(writer, std::max(busy_, write_busy_));
  }
  const bool has_work = transfer_->output().CanPop() ||
                        (upstream_done_ && transfer_->Done());
  return std::min(writer, has_work ? busy_ : kQuietForever);
}

void OutputEncoder::SkipQuiet(uint64_t n) {
  write_busy_ -= std::min(n, write_busy_);
  const uint64_t busy = std::min(n, busy_);
  busy_ -= busy;
  busy_cycles_ += busy;
}

void OutputEncoder::NotifyUpstreamDone() { upstream_done_ = true; }

bool OutputEncoder::Done() const {
  return finalized_ && busy_ == 0 && write_busy_ == 0 &&
         write_queue_.Empty();
}

}  // namespace fpga
}  // namespace fcae
