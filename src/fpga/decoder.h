#ifndef FCAE_FPGA_DECODER_H_
#define FCAE_FPGA_DECODER_H_

#include <cstdint>
#include <vector>

#include "fpga/config.h"
#include "fpga/device_memory.h"
#include "fpga/kv_record.h"
#include "fpga/sim/fifo.h"

namespace fcae {
namespace fpga {

/// The decode side of one engine input, combining the three hardware
/// modules of Fig. 3: Index Block Decoder, the AXI fetch path with its
/// Stream Downsizer, and the Data Block Decoder.
///
/// Timing model (cycles at the engine clock):
///  - Index block load: dram_read_latency + ceil(index_bytes / 8); in the
///    block-separated designs this runs concurrently with data decoding
///    (prefetched), hiding its latency; in the basic design every data
///    block fetch first waits for its index entry round trip.
///  - Data block fetch: dram_read_latency + ceil(block_bytes / W_in).
///  - Record decode: key_len + ceil(value_len / V) per record
///    (Table II/III: "decoding key + value read"), where V = 1 below
///    OptLevel::kFullBandwidth.
///
/// Functionally the decoder performs the real work: trailer check,
/// Snappy decompression and restart-point expansion of every staged
/// block, yielding exact key-value records. Each fetched block is decoded
/// once, into one buffer that its records share (see KvRecord).
class InputDecoder {
 public:
  /// `input` must outlive the decoder.
  InputDecoder(const EngineConfig& config, const DeviceInput* input,
               int input_no);

  InputDecoder(const InputDecoder&) = delete;
  InputDecoder& operator=(const InputDecoder&) = delete;

  /// Advances one cycle.
  void Tick();

  /// Number of coming Tick()s that would only count down timers or
  /// count stalls, assuming no other module moves a FIFO entry; a lower
  /// bound (see CompactionEngine::Run).
  uint64_t QuietCycles() const;

  /// Applies `n` quiet Tick()s at once; `n` <= QuietCycles().
  void SkipQuiet(uint64_t n);

  /// True when every record of every staged SSTable has been pushed.
  bool Exhausted() const;

  /// Keys of decoded records waiting for the Comparer (key stream). The
  /// paper splits this into an original key stream and a copy; the copy
  /// travels with the value in records_for_transfer().
  Fifo<KeyRef>& key_stream() { return key_fifo_; }
  const Fifo<KeyRef>& key_stream() const { return key_fifo_; }

  /// Records (key copy + value) waiting for the Key-Value Transfer.
  Fifo<KvRecord>& records_for_transfer() { return transfer_fifo_; }
  const Fifo<KvRecord>& records_for_transfer() const { return transfer_fifo_; }

  /// Non-ok if staged data failed to parse (host-visible as an engine
  /// error interrupt).
  const Status& status() const { return status_; }

  uint64_t records_decoded() const { return records_decoded_; }
  uint64_t busy_cycles() const { return busy_cycles_; }
  uint64_t bytes_fetched() const { return bytes_fetched_; }
  uint64_t fetch_stall_cycles() const { return fetch_stall_cycles_; }
  uint64_t backpressure_cycles() const { return backpressure_cycles_; }

 private:
  struct PendingBlock {
    uint64_t stored_size = 0;        // Bytes incl. trailer (fetch cost).
    std::vector<KvRecord> records;  // Functional contents.
  };

  /// Loads the next SSTable's index block (functional part); returns
  /// false when no tables remain.
  bool LoadNextIndexBlock();

  /// Starts fetching the next data block if one is known and the block
  /// FIFO has room.
  void TickFetcher();

  /// Consumes fetched blocks and emits records.
  void TickDecoder();

  /// Pushes the decoded record to both output FIFOs.
  void Publish();

  const EngineConfig& config_;
  const DeviceInput* input_;
  const int input_no_;
  Status status_;

  // --- Index Block Decoder state ---
  size_t next_sstable_ = 0;
  std::vector<std::pair<uint64_t, uint64_t>> block_handles_;  // offset,size
  size_t next_handle_ = 0;
  uint64_t index_busy_ = 0;      // Cycles left loading an index block.
  uint64_t sstable_data_base_ = 0;  // Data offset of the current table.

  // --- Fetch path state ---
  Fifo<PendingBlock> block_fifo_;
  uint64_t fetch_busy_ = 0;      // Cycles left on the in-flight fetch.
  bool fetch_in_flight_ = false;
  PendingBlock fetching_block_;

  // --- Data Block Decoder state ---
  std::vector<KvRecord> current_records_;
  size_t next_record_ = 0;
  uint64_t decode_busy_ = 0;     // Cycles left on the current record.
  bool record_ready_ = false;    // Decoded record awaiting FIFO space.
  KvRecord pending_record_;

  // Statistics.
  uint64_t records_decoded_ = 0;
  uint64_t busy_cycles_ = 0;
  uint64_t bytes_fetched_ = 0;
  uint64_t fetch_stall_cycles_ = 0;
  uint64_t backpressure_cycles_ = 0;

  Fifo<KeyRef> key_fifo_;
  Fifo<KvRecord> transfer_fifo_;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_DECODER_H_
