#ifndef FCAE_FPGA_CONFIG_H_
#define FCAE_FPGA_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/slice.h"

namespace fcae {
namespace fpga {

/// Optional user-key range restriction for one kernel run, used when a
/// sharded compaction offloads its key-disjoint sub-compactions: the
/// shard owns the user-key range (lower, upper]. The host stager trims
/// whole data blocks outside the range (conservatively — boundary
/// blocks stay staged), and the Key-Value Transfer module drops any
/// surviving record whose user key falls outside, the on-chip
/// equivalent of the DB's bounded shard iterator. Comparisons are
/// bytewise, matching the engine's hard-coded BytewiseComparator.
struct KeyBounds {
  bool has_lower = false;  // Exclusive lower bound when set.
  bool has_upper = false;  // Inclusive upper bound when set.
  std::string lower;
  std::string upper;

  bool active() const { return has_lower || has_upper; }

  /// True iff `user_key` lies inside (lower, upper].
  bool Contains(const Slice& user_key) const {
    if (has_lower && user_key.Compare(Slice(lower)) <= 0) return false;
    if (has_upper && user_key.Compare(Slice(upper)) > 0) return false;
    return true;
  }
};

/// Progressive optimization levels of the compaction engine, matching the
/// paper's design narrative (Sections V-A .. V-D). Used for the ablation
/// study in bench_ablation_pipeline.
enum class OptLevel {
  /// Fig. 2: combined Decoder/Encoder, one read pointer per SSTable
  /// (decode pauses for each index-block round trip), key and value move
  /// through every module, 1 byte/cycle datapaths.
  kBasic = 0,
  /// Fig. 3: + index/data block separation. Two read pointers; data
  /// blocks are prefetched and streamed, index decode time hidden;
  /// index entries written back eagerly by the Index Block Encoder.
  kBlockSeparation = 1,
  /// Fig. 4: + key-value separation. The Comparer sees keys only;
  /// values bypass to the Key-Value Transfer / output buffer.
  kKeyValueSeparation = 2,
  /// Fig. 5: + data transmission bandwidth. Value datapath widened to V
  /// bytes/cycle; AXI input/output run at W_in/W_out bytes/cycle with
  /// stream downsizers/upsizers.
  kFullBandwidth = 3,
};

/// Static configuration of one engine instance. Defaults correspond to
/// the paper's 2-input configuration (Section VII-B).
struct EngineConfig {
  /// Number of inputs N the engine is synthesized for. 2 for ordinary
  /// leveled compaction, 9 for Level-0 / lazy-compaction support
  /// (Section VII-C).
  int num_inputs = 2;

  /// Value datapath width V in bytes/cycle (paper: 8..64). Only
  /// effective at OptLevel::kFullBandwidth; narrower levels use 1.
  int value_width = 16;

  /// AXI read width W_in in bytes/cycle for data block fetch (<= 64).
  int input_width = 64;

  /// AXI write width W_out in bytes/cycle for output blocks (<= 64).
  int output_width = 64;

  /// Engine clock. The KCU1500 design runs at 200 MHz.
  double clock_mhz = 200.0;

  /// Data block flush threshold (paper Section V-A: e.g. 4 KB).
  size_t data_block_threshold = 4 * 1024;

  /// SSTable rollover threshold (paper Section V-A: e.g. 2 MB).
  size_t sstable_threshold = 2 * 1024 * 1024;

  /// DRAM read latency in cycles (paper Section V-B: 7-8 cycles at
  /// 200-300 MHz).
  int dram_read_latency = 8;

  /// Per-input decoded-record FIFO depth (records buffered between the
  /// Data Block Decoder and the Comparer / Key-Value Transfer).
  int record_fifo_depth = 32;

  /// Number of data blocks the fetcher may prefetch ahead of the
  /// decoder (>= 2 enables streaming; 1 models the basic design's
  /// fetch-on-demand behaviour).
  int block_prefetch_depth = 4;

  /// Snappy-compress output data blocks (matches LevelDB's on-disk
  /// format; can be disabled for experiments).
  bool compress_output = true;

  /// Kernel watchdog: if a run exceeds this many simulated cycles the
  /// host declares a kernel timeout and kills the job (0 = no deadline).
  /// A fixed value of the card's configuration: nothing sizes it per
  /// job, and it is 0 unless the caller sets it. An injected hang with
  /// no deadline is charged twice its nominal run.
  uint64_t kernel_deadline_cycles = 0;

  OptLevel opt_level = OptLevel::kFullBandwidth;

  /// Returns the effective value datapath width for the configured
  /// optimization level.
  int EffectiveValueWidth() const {
    return opt_level == OptLevel::kFullBandwidth ? value_width : 1;
  }

  /// Returns the effective AXI input width (pre-bandwidth designs
  /// consumed the stream at datapath width).
  int EffectiveInputWidth() const {
    return opt_level == OptLevel::kFullBandwidth ? input_width : 8;
  }

  int EffectiveOutputWidth() const {
    return opt_level == OptLevel::kFullBandwidth ? output_width : 8;
  }

  bool KeyValueSeparated() const {
    return opt_level >= OptLevel::kKeyValueSeparation;
  }

  bool BlocksSeparated() const {
    return opt_level >= OptLevel::kBlockSeparation;
  }

  double CyclesToMicros(uint64_t cycles) const {
    return static_cast<double>(cycles) / clock_mhz;
  }
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_CONFIG_H_
