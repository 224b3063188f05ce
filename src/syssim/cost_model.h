#ifndef FCAE_SYSSIM_COST_MODEL_H_
#define FCAE_SYSSIM_COST_MODEL_H_

#include <cstdint>

#include "fpga/config.h"

namespace fcae {
namespace syssim {

/// CostModel supplies the rates the discrete-event system simulator
/// charges for each activity. Two presets:
///
///  - PaperCalibrated(): compaction kernel speeds follow the paper's
///    measurements (Table V for the 2-input engine and its CPU baseline,
///    Figs. 12/13 for the 9-input engine), and the host-side constants
///    (front-end ingest, flush, disk, PCIe) are fitted so the end-to-end
///    write throughput lands in the band of Table VI. This is the preset
///    the reproduction benches use: the paper's end-to-end results are a
///    function of the *ratios* between these rates on the authors'
///    testbed.
///
///  - Simulated(): compaction speeds come from this repository's own
///    cycle-level engine model (fpga::TimingModel) and a CPU speed
///    matching this host, for comparing the two worlds.
class CostModel {
 public:
  /// Single-thread software compaction speed in MB/s for records of the
  /// given shape, merging `num_inputs` runs (Table V "CPU" column; the
  /// deeper compare tree of a 9-input merge slows the CPU further).
  double CpuCompactionMBps(int num_inputs, uint64_t key_len,
                           uint64_t value_len) const;

  /// Engine kernel speed in MB/s (Table V / Fig. 12).
  double FpgaCompactionMBps(const fpga::EngineConfig& config,
                            uint64_t key_len, uint64_t value_len) const;

  /// Host ingest path: WAL append + memtable insert, MB/s of user data
  /// for the given value length (per-op fixed cost + byte cost).
  double FrontendMBps(uint64_t key_len, uint64_t value_len) const;

  /// Memtable -> level-0 SSTable build rate (encode + write), MB/s.
  double FlushMBps() const { return flush_mbps_; }

  double DiskReadMBps() const { return disk_read_mbps_; }
  double DiskWriteMBps() const { return disk_write_mbps_; }

  /// PCIe effective bandwidth (GB/s scale, in MB/s units here).
  double PcieMBps() const { return pcie_mbps_; }

  /// Fixed per-kernel invocation overhead (buffer setup, DMA descriptor
  /// programming, end-signal interrupt), microseconds.
  double KernelInvokeMicros() const { return kernel_invoke_micros_; }

  /// Host backoff before device retry `attempt` (1-based), microseconds.
  /// Mirrors the offload executor's exponential schedule from
  /// kBackoffBaseMicros (host/offload_compaction.cc) so simulated fault
  /// runs charge what the host path would.
  double RetryBackoffMicros(int attempt) const {
    int shift = attempt - 1;
    if (shift < 0) shift = 0;
    if (shift > 20) shift = 20;
    return retry_backoff_base_micros_ * static_cast<double>(1u << shift);
  }

  /// Point-read service times for the YCSB model (microseconds).
  double CacheHitMicros() const { return cache_hit_micros_; }
  double BlockMissMicros() const { return block_miss_micros_; }
  double ScanNextMicros() const { return scan_next_micros_; }
  /// Probability a zipfian/latest read is served from memory.
  double CacheHitRate(bool latest_distribution) const {
    return latest_distribution ? 0.92 : 0.80;
  }

  /// On-disk bytes per user byte after block compression (Snappy on
  /// db_bench-style half-compressible values).
  double CompressedFraction() const { return compressed_fraction_; }

  static CostModel PaperCalibrated();
  static CostModel Simulated();

 private:
  CostModel() = default;

  bool paper_speeds_ = true;
  double frontend_fixed_micros_ = 0;
  double frontend_byte_mbps_ = 0;
  double flush_mbps_ = 0;
  double disk_read_mbps_ = 0;
  double disk_write_mbps_ = 0;
  double pcie_mbps_ = 0;
  double kernel_invoke_micros_ = 0;
  double retry_backoff_base_micros_ = 100.0;
  double cache_hit_micros_ = 0;
  double block_miss_micros_ = 0;
  double scan_next_micros_ = 0;
  double compressed_fraction_ = 0.55;
  double simulated_cpu_mbps_ = 0;  // Simulated preset only.
};

}  // namespace syssim
}  // namespace fcae

#endif  // FCAE_SYSSIM_COST_MODEL_H_
