#include "fpga/encoder.h"

#include <algorithm>

#include "fpga/kv_transfer.h"
#include "lsm/dbformat.h"
#include "table/format.h"
#include "util/comparator.h"

namespace fcae {
namespace fpga {

namespace {
uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }
}  // namespace

OutputTableWriter::OutputTableWriter(size_t data_block_threshold,
                                     size_t sstable_threshold, bool compress,
                                     DeviceOutput* output)
    : data_block_threshold_(data_block_threshold),
      sstable_threshold_(sstable_threshold),
      compress_(compress),
      output_(output),
      block_(&block_options_) {
  // Keys are internal keys.
  static const InternalKeyComparator* icmp =
      new InternalKeyComparator(BytewiseComparator());
  block_options_.comparator = icmp;
  block_options_.block_restart_interval = 16;
}

OutputTableWriter::Closed OutputTableWriter::Add(const Slice& key,
                                                 const Slice& value) {
  if (!table_open_) {
    table_open_ = true;
    table_.smallest_key.assign(key.data(), key.size());
  }
  table_.largest_key.assign(key.data(), key.size());
  table_.num_entries++;
  block_.Add(key, value);

  Closed closed;
  if (block_.CurrentSizeEstimate() >= data_block_threshold_) {
    FlushBlock(&closed);
    if (table_.data_memory.size() >= sstable_threshold_) {
      FinishTable(&closed);
    }
  }
  return closed;
}

OutputTableWriter::Closed OutputTableWriter::Finish() {
  Closed closed;
  FlushBlock(&closed);
  FinishTable(&closed);
  return closed;
}

void OutputTableWriter::FlushBlock(Closed* closed) {
  if (block_.empty()) {
    return;
  }
  CompressionType type = compress_ ? kSnappyCompression : kNoCompression;
  const Slice contents = CompressBlock(block_.Finish(), &type, &compressed_);

  // The stored block and its trailer, as TableBuilder writes them on the
  // host, and its index entry.
  OutputIndexEntry entry;
  entry.last_key = table_.largest_key;
  entry.offset = table_.data_memory.size();
  entry.size = contents.size();
  table_.data_memory.append(contents.data(), contents.size());
  char trailer[kBlockTrailerSize];
  EncodeBlockTrailer(contents, type, trailer);
  table_.data_memory.append(trailer, kBlockTrailerSize);
  closed->block_bytes = contents.size() + kBlockTrailerSize;
  closed->index_entry_bytes = entry.last_key.size() + 16;
  table_.index_entries.push_back(std::move(entry));
  block_.Reset();
}

void OutputTableWriter::FinishTable(Closed* closed) {
  if (!table_open_) {
    return;
  }
  output_->tables.push_back(std::move(table_));
  table_ = DeviceOutputTable();
  table_open_ = false;
  closed->table = true;
}

OutputEncoder::OutputEncoder(const EngineConfig& config,
                             KeyValueTransfer* transfer, DeviceOutput* output)
    : config_(config),
      transfer_(transfer),
      writer_(config.data_block_threshold, config.sstable_threshold,
              config.compress_output, output),
      write_queue_(4) {}

void OutputEncoder::Charge(const OutputTableWriter::Closed& closed) {
  if (closed.block_bytes > 0) {
    // Index Block Encoder: eager writeback when separated; BRAM
    // accumulation otherwise (paper Section V-B2).
    if (config_.BlocksSeparated()) {
      if (write_queue_.CanPush()) {
        write_queue_.Push(QueuedWrite{closed.index_entry_bytes});
      } else {
        // Fold into the block's own write when the port queue is full.
      }
    } else {
      bram_index_bytes_ += closed.index_entry_bytes;
      if (bram_index_bytes_ > bram_index_bytes_peak_) {
        bram_index_bytes_peak_ = bram_index_bytes_;
      }
    }

    // Queue the data block write (payload + trailer through the upsizer).
    bytes_written_ += closed.block_bytes;
    if (write_queue_.CanPush()) {
      write_queue_.Push(QueuedWrite{closed.block_bytes});
    } else {
      // The write port is saturated: the encoder stalls for the whole
      // transfer instead of queueing (models output buffer overflow).
      busy_ += config_.dram_read_latency +
               CeilDiv(closed.block_bytes, config_.EffectiveOutputWidth());
      write_stall_cycles_ += busy_;
    }
    blocks_emitted_++;
  }

  if (closed.table && !config_.BlocksSeparated() && bram_index_bytes_ > 0) {
    // Bulk index block writeback at table end; the encoder is stalled
    // for its duration (the basic design's extra transfer time).
    busy_ += config_.dram_read_latency +
             CeilDiv(bram_index_bytes_, config_.EffectiveOutputWidth());
    bram_index_bytes_ = 0;
  }
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
    records_encoded_++;
    uint64_t cycles = record.internal_key.size();
    if (!config_.KeyValueSeparated()) {
      cycles += record.value.size();
    }
    busy_ = cycles == 0 ? 1 : cycles;
    Charge(writer_.Add(record.internal_key, record.value));
    return;
  }

  if (upstream_done_ && !finalized_ && transfer_->Done() &&
      transfer_->output().Empty()) {
    Charge(writer_.Finish());
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
