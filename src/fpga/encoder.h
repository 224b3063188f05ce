#ifndef FCAE_FPGA_ENCODER_H_
#define FCAE_FPGA_ENCODER_H_

#include <cstdint>
#include <string>

#include "fpga/config.h"
#include "fpga/device_memory.h"
#include "fpga/kv_record.h"
#include "fpga/sim/fifo.h"
#include "table/block_builder.h"
#include "util/options.h"

namespace fcae {
namespace fpga {

class KeyValueTransfer;

/// The functional half of the Data and Index Block Encoders, shared with
/// the CPU reference merge so both emit the same bytes. Records arrive in
/// merge order and are encoded into standard SSTable data blocks
/// (restart-point prefix compression, Snappy when CompressBlock keeps
/// it). A block closes at `data_block_threshold` bytes, with an index
/// entry (its last key and handle), and the output table rolls over once
/// its data reaches `sstable_threshold`. Each table records its
/// smallest and largest key and entry count for MetaOut.
class OutputTableWriter {
 public:
  /// What one call closed, for the engine's timing model.
  struct Closed {
    uint64_t block_bytes = 0;        // Stored data block incl. trailer.
    uint64_t index_entry_bytes = 0;  // That block's index entry.
    bool table = false;              // An output table was closed.
  };

  OutputTableWriter(size_t data_block_threshold, size_t sstable_threshold,
                    bool compress, DeviceOutput* output);

  OutputTableWriter(const OutputTableWriter&) = delete;
  OutputTableWriter& operator=(const OutputTableWriter&) = delete;

  /// Appends one record, closing its block and table once they are full.
  Closed Add(const Slice& key, const Slice& value);

  /// Closes the tail block and table.
  Closed Finish();

 private:
  void FlushBlock(Closed* closed);
  void FinishTable(Closed* closed);

  const size_t data_block_threshold_;
  const size_t sstable_threshold_;
  const bool compress_;
  DeviceOutput* const output_;
  Options block_options_;
  BlockBuilder block_;
  DeviceOutputTable table_;
  bool table_open_ = false;
  std::string compressed_;
};

/// The encode side of the engine: Data Block Encoder, Index Block
/// Encoder and the output AXI path with its Stream Upsizer (paper
/// Figs. 3 and 5). An OutputTableWriter does the functional work; this
/// module adds the timing.
///
/// Timing:
///  - Record encode: L_key cycles (Table II "encoding key"); without
///    key-value separation the value also crosses the encoder
///    (L_key + L_value).
///  - Block writeback: blocks queue to the output writer which occupies
///    the AXI write port for ceil(bytes / W_out) cycles per block plus
///    the DRAM latency.
///  - Index entries: with block separation they are written back
///    eagerly (2 cycles each on the write port); the basic design
///    buffers the whole index block in BRAM and pays a bulk write when
///    the table completes, stalling the encoder.
class OutputEncoder {
 public:
  OutputEncoder(const EngineConfig& config, KeyValueTransfer* transfer,
                DeviceOutput* output);

  OutputEncoder(const OutputEncoder&) = delete;
  OutputEncoder& operator=(const OutputEncoder&) = delete;

  void Tick();

  /// Quiet-cycle fast-forward; see InputDecoder::QuietCycles(). Once
  /// finalized, stops where Done() turns true.
  uint64_t QuietCycles() const;
  void SkipQuiet(uint64_t n);

  /// True once all upstream records are consumed, the final table is
  /// finalized and the write port is idle. Finalization only happens
  /// after the upstream pipeline reports Done().
  bool Done() const;

  /// Signals that no further records will arrive so the tail block and
  /// table can be flushed.
  void NotifyUpstreamDone();

  uint64_t records_encoded() const { return records_encoded_; }
  uint64_t busy_cycles() const { return busy_cycles_; }
  uint64_t blocks_emitted() const { return blocks_emitted_; }
  uint64_t bytes_written() const { return bytes_written_; }
  uint64_t write_stall_cycles() const { return write_stall_cycles_; }
  size_t bram_index_bytes_peak() const { return bram_index_bytes_peak_; }
  size_t write_queue_high_water() const { return write_queue_.HighWater(); }

 private:
  struct QueuedWrite {
    uint64_t bytes = 0;  // Payload going through the upsizer.
  };

  /// Charges what the writer closed: the block's AXI write and index
  /// entry, and for the basic design the table's bulk index writeback.
  void Charge(const OutputTableWriter::Closed& closed);

  void TickWriter();

  const EngineConfig& config_;
  KeyValueTransfer* transfer_;
  OutputTableWriter writer_;

  size_t bram_index_bytes_ = 0;  // Basic design: buffered index block.
  size_t bram_index_bytes_peak_ = 0;

  uint64_t busy_ = 0;
  bool upstream_done_ = false;
  bool finalized_ = false;

  // Output AXI write port.
  Fifo<QueuedWrite> write_queue_;
  uint64_t write_busy_ = 0;

  uint64_t records_encoded_ = 0;
  uint64_t busy_cycles_ = 0;
  uint64_t blocks_emitted_ = 0;
  uint64_t bytes_written_ = 0;
  uint64_t write_stall_cycles_ = 0;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_ENCODER_H_
