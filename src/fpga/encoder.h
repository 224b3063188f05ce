#ifndef FCAE_FPGA_ENCODER_H_
#define FCAE_FPGA_ENCODER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fpga/config.h"
#include "fpga/device_memory.h"
#include "fpga/kv_record.h"
#include "fpga/sim/fifo.h"
#include "table/block_builder.h"
#include "util/options.h"

namespace fcae {
namespace fpga {

class KeyValueTransfer;

/// The encode side of the engine: Data Block Encoder, Index Block
/// Encoder and the output AXI path with its Stream Upsizer (paper
/// Figs. 3 and 5).
///
/// Functionally, records are re-encoded into standard SSTable data
/// blocks (restart-point prefix compression + optional Snappy), flushed
/// at the data-block threshold and rolled into a new output table at the
/// SSTable threshold; the Index Block Encoder records (last_key, handle)
/// per block and the smallest/largest key per table for MetaOut.
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
  OutputEncoder(const EngineConfig& config, const Options& table_options,
                KeyValueTransfer* transfer, DeviceOutput* output);

  OutputEncoder(const OutputEncoder&) = delete;
  OutputEncoder& operator=(const OutputEncoder&) = delete;

  ~OutputEncoder();

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

  /// Finishes the current data block: compress, append to the output
  /// table's data memory, emit the index entry, queue the AXI write.
  void FlushBlock();

  /// Finishes the current output table (index block writeback for the
  /// basic design, MetaOut bookkeeping) and opens a fresh one.
  void FinishTable();

  void TickWriter();

  const EngineConfig& config_;
  const Options& table_options_;
  KeyValueTransfer* transfer_;
  DeviceOutput* output_;

  std::unique_ptr<BlockBuilder> block_builder_;
  DeviceOutputTable current_table_;
  bool table_open_ = false;
  std::string block_first_key_;
  std::string block_last_key_;
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

  std::string compression_scratch_;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_ENCODER_H_
