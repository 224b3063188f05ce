#ifndef FCAE_HOST_CPU_COMPACTOR_H_
#define FCAE_HOST_CPU_COMPACTOR_H_

#include <cstdint>
#include <vector>

#include "fpga/device_memory.h"
#include "util/status.h"

namespace fcae {
namespace host {

/// Kernel-time statistics of a software compaction over staged images.
struct CpuCompactStats {
  double micros = 0;  // Measured wall-clock kernel time.
  uint64_t records_in = 0;
  uint64_t records_out = 0;
  uint64_t records_dropped = 0;
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;

  /// Compaction speed as defined in Section VII-B1: input bytes /
  /// kernel time (MB/s).
  double SpeedMBps() const {
    if (micros <= 0) return 0;
    return (static_cast<double>(input_bytes) / (1024.0 * 1024.0)) /
           (micros / 1e6);
  }
};

/// Knobs shared with the engine so both sides produce identical tables.
struct CpuCompactorOptions {
  size_t data_block_threshold = 4 * 1024;
  size_t sstable_threshold = 2 * 1024 * 1024;
  bool compress_output = true;
  // Records shadowed by a newer version at or below this sequence are
  // dropped; the default drops none.
  uint64_t smallest_snapshot = 0;
  bool drop_deletions = false;
};

/// The paper's CPU baseline: a single-threaded sort-merge over the same
/// memory-resident input images the device consumes, doing the full
/// work — trailer checks, Snappy decode, prefix-decompression, N-way
/// merge, validity filtering, block re-encoding with Snappy, index
/// rebuild. Kernel time excludes staging and disk I/O, matching the
/// paper's measurement ("assuming that all input and output memory are
/// already set").
Status CpuCompactImages(const std::vector<const fpga::DeviceInput*>& inputs,
                        const CpuCompactorOptions& options,
                        fpga::DeviceOutput* output, CpuCompactStats* stats);

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_CPU_COMPACTOR_H_
