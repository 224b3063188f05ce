#ifndef FCAE_SYSSIM_SIMULATOR_H_
#define FCAE_SYSSIM_SIMULATOR_H_

#include <cstdint>
#include <string>

#include "fpga/config.h"
#include "lsm/dbformat.h"
#include "syssim/cost_model.h"
#include "syssim/lsm_state.h"
#include "workload/ycsb.h"

namespace fcae {

namespace obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace obs

namespace syssim {

/// Execution mode of the simulated system.
enum class ExecMode {
  /// Stock LevelDB: 2 CPU cores — the client runs on one, the single
  /// background thread (flush + compaction) on the other (the paper's
  /// baseline configuration, Section VII-A).
  kLevelDbCpu,
  /// LevelDB-FCAE: 1 CPU core + the FPGA card. Client and host-side
  /// background work share the core; compaction kernels run on the
  /// device, overlapping host flushes (Fig. 6's scheduling win).
  kLevelDbFcae,
};

/// Simulation parameters (defaults = paper Table IV + Section VII-A).
struct SimConfig {
  ExecMode mode = ExecMode::kLevelDbCpu;
  CostModel cost = CostModel::PaperCalibrated();
  fpga::EngineConfig engine;  // Used in kLevelDbFcae mode.

  // LevelDB settings.
  uint64_t key_length = 16;
  uint64_t value_length = 128;
  int leveling_ratio = 10;
  uint64_t block_size = 4096;
  uint64_t memtable_bytes = 4ull << 20;
  uint64_t file_size = 2ull << 20;

  /// Average next-level overlap per compacted file (see LsmState).
  /// LevelDB's compaction-pointer round-robin keeps the effective
  /// average well below the worst case (the full leveling ratio).
  double overlap_files = 7.0;

  /// Write-stall thresholds, defaulted from the engine's own constants
  /// (lsm/dbformat.h) so the simulator and the storage engine cannot
  /// silently disagree about when backpressure kicks in. The simulated
  /// client uses the same WriteController delay curve as DBImpl's
  /// MakeRoomForWrite (util/write_controller.h): delay ramps with L0
  /// debt from `l0_slowdown_trigger`, writes stop at `l0_stop_trigger`.
  int l0_slowdown_trigger = kL0SlowdownWritesTrigger;
  int l0_stop_trigger = kL0StopWritesTrigger;

  /// Paper Section VII-E future work: near-storage compaction. The
  /// engine sits inside the SSD as an embedded controller, so compaction
  /// inputs/outputs move over the drive's internal channels instead of
  /// host DMA: the host-side staging read/write phases and the PCIe
  /// round trip disappear (only control metadata crosses the bus). Only
  /// meaningful in kLevelDbFcae mode.
  bool near_storage = false;

  /// Host scheduler policy for jobs needing more inputs than the
  /// engine's N: true = decompose into a tournament of N-input merge
  /// passes on the card (intermediates stay in the 16 GB on-card DRAM);
  /// false = the strict Fig. 6 policy (complete software fallback).
  /// The paper's Table VI results with the 2-input engine are only
  /// reachable with the tournament scheduler (see DESIGN.md).
  bool multipass_offload = true;

  /// Fault-tolerant offload modeling (mirrors the host path's retry +
  /// CPU-fallback pipeline): probability an offloaded job's kernel run
  /// fails with a transient fault. Each failed attempt wastes its
  /// kernel time plus the host's exponential backoff; after
  /// `device_retry_limit` failed attempts the job falls back to the
  /// software path (reusing the already-staged inputs' read cost).
  double device_fault_rate = 0.0;
  int device_retry_limit = 3;
  uint32_t fault_seed = 1;

  /// Background compaction workers (mirrors Options::compaction_threads):
  /// up to this many compactions in flight at once, on disjoint level
  /// pairs. The single background core still runs host-side stages one
  /// at a time and each card runs one kernel at a time — the win is
  /// overlap: one job's kernel runs while another stages or writes back.
  int compaction_threads = 1;

  /// Offload cards (mirrors Options::num_offload_cards). A job arrives
  /// when its staging ends and is placed on the card whose last job
  /// leaves first (the host DeviceSet::PickCard policy). All cards run
  /// on one fpga::DmaTimeline, the model the host's cards run: each
  /// card chains transfer-in, kernel and transfer-out, and the cards
  /// share the PCIe bus, so a burst that starts while a sibling card's
  /// same-direction bursts are on it waits
  /// (SimResult::bus_contention_seconds).
  int num_cards = 1;

  /// Double-buffer each card's DMA (fpga::DmaTimeline): a job that
  /// arrives while its card is busy stages its transfer-in behind the
  /// predecessor's kernel, and its kernel hides the predecessor's
  /// transfer-out. False holds every job until its card's previous job
  /// left, the serial chain (bench_ablation_scheduler's pipelined-DMA
  /// column).
  bool pipelined_dma = true;

  /// Optional observability (obs/): when set, the simulator emits
  /// flush/compaction spans in *simulated* time (ts/dur are simulated
  /// microseconds, not wall time) and event counters (`syssim.*`).
  /// Borrowed, not owned.
  obs::MetricsRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
};

/// Results of one simulated run.
struct SimResult {
  double elapsed_seconds = 0;
  double throughput_mbps = 0;   // User bytes written / elapsed.
  double throughput_kops = 0;   // Operations / elapsed (YCSB runs).

  double stall_seconds = 0;     // Client fully stopped.
  double slowdown_seconds = 0;  // Client in the delayed-write regime.
  double pcie_seconds = 0;      // Total DMA time.
  double device_seconds = 0;    // Kernel-busy time on the card.
  double cpu_compaction_seconds = 0;  // SW merge time.
  double flush_seconds = 0;

  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t compactions_offloaded = 0;
  uint64_t compactions_sw = 0;
  uint64_t compactions_retried = 0;   // Offloads saved by a retry.
  uint64_t compactions_fallback = 0;  // Offloads rerun in software.
  double fault_backoff_seconds = 0;   // Host retry backoff time.
  double fault_wasted_device_seconds = 0;  // Kernel time of failed tries.
  /// From each job's staging end until its card's previous job left.
  double device_queue_seconds = 0;
  double pipeline_overlap_seconds = 0;  // DMA hidden behind kernels.
  double bus_contention_seconds = 0;    // Bursts waiting for other cards'.
  double bytes_compacted_in = 0;
  double bytes_compacted_out = 0;
  double user_bytes = 0;

  /// Compaction write amplification: on-disk bytes written (flush +
  /// compaction outputs) per user byte.
  double WriteAmplification() const {
    if (user_bytes <= 0) return 0;
    return bytes_compacted_out / user_bytes + 1.0;
  }

  /// Share of total run time spent in PCIe transfers (Table VIII).
  double PciePercent() const {
    if (elapsed_seconds <= 0) return 0;
    return 100.0 * pcie_seconds / elapsed_seconds;
  }
};

/// Discrete-event simulator of the whole write path: client ingest,
/// memtable rotation, flush, leveled compaction cascade, write stalls
/// (WriteController delay ramp from SimConfig::l0_slowdown_trigger,
/// stop at l0_stop_trigger), core contention and — in FCAE mode —
/// compaction offload with PCIe transfers and flush/kernel overlap.
/// Used to regenerate Figs. 10/14/15/16 and Tables VI/VIII.
class Simulator {
 public:
  explicit Simulator(const SimConfig& config);

  /// db_bench fillrandom: writes `total_user_bytes` of random-key
  /// records as fast as the system admits.
  SimResult RunFillRandom(double total_user_bytes);

  /// YCSB: loads `record_count` records (instantly, modeling a
  /// pre-loaded store of that size), then runs `op_count` operations of
  /// the given workload and reports kops/s.
  SimResult RunYcsb(workload::YcsbWorkload w, uint64_t record_count,
                    uint64_t op_count, uint32_t seed = 42);

 private:
  struct Engine;  // Internal event machinery.

  SimConfig config_;
};

}  // namespace syssim
}  // namespace fcae

#endif  // FCAE_SYSSIM_SIMULATOR_H_
