#ifndef FCAE_HOST_FCAE_DEVICE_H_
#define FCAE_HOST_FCAE_DEVICE_H_

#include <cstdint>
#include <vector>

#include "fpga/compaction_engine.h"
#include "fpga/config.h"
#include "fpga/device_memory.h"
#include "fpga/dma_timeline.h"
#include "fpga/fault_injector.h"
#include "fpga/pcie_model.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace fcae {
namespace host {

/// Timing of one offloaded kernel invocation.
struct DeviceRunStats {
  uint64_t kernel_cycles = 0;
  double kernel_micros = 0;   // cycles / clock
  double pcie_micros = 0;     // DMA in + out (modeled)
  uint64_t input_bytes = 0;
  uint64_t output_bytes = 0;
  uint64_t faults_injected = 0;     // Faults hit during this invocation.
  uint64_t dma_retransfers = 0;     // Link-CRC-detected DMA replays.
  /// Modeled micros of DMA hidden behind kernel compute by the
  /// double-buffered staging pipeline (zero unless the job was
  /// pipelined).
  double dma_overlap_micros = 0;
  /// Modeled micros this job's DMA bursts waited for a shared bus. A
  /// card's own timeline shares no bus, so a device call reads 0; the
  /// bus is modeled where arrivals are (fpga/dma_timeline.h).
  double bus_wait_micros = 0;
  /// Whether the job arrived on the card's modeled timeline before the
  /// previous job left (fpga::DmaSlot::pipelined).
  bool pipelined = false;
  /// Whether the job found earlier jobs queued or running on its card,
  /// and how long it waited for them to leave (Env clock, wall micros).
  bool queued = false;
  uint64_t queue_wait_micros = 0;
  fpga::EngineStats engine;
};

/// FcaeDevice stands in for the PCIe-attached KCU1500 card: it owns the
/// engine configuration, owns the card's one FIFO job queue (one
/// compaction engine instance on the chip runs one job at a time),
/// models the DMA transfers, and runs the cycle-level engine simulation
/// against the staged images.
///
/// A DeviceFaultInjector may be attached to model the failure modes of a
/// real card (see fpga/fault_injector.h). Faults surface as:
///  - Status::Busy         — device-busy, immediately retryable;
///  - Status::IOError      — kernel deadline exceeded (injected hang or
///                           a run past EngineConfig::kernel_deadline_cycles);
///  - Status::DeviceLost   — sticky card drop; no retry can succeed;
///  - silent DMA corruption — the call *succeeds* with flipped output
///                           bytes; only host-side verification catches it.
class FcaeDevice {
 public:
  /// `card_id` distinguishes cards in a DeviceSet; a standalone device
  /// driven directly (benches, kernel tests) keeps the default 0.
  explicit FcaeDevice(const fpga::EngineConfig& config,
                      const fpga::PcieModel& pcie = fpga::PcieModel(),
                      int card_id = 0);

  FcaeDevice(const FcaeDevice&) = delete;
  FcaeDevice& operator=(const FcaeDevice&) = delete;

  const fpga::EngineConfig& config() const { return config_; }
  const fpga::PcieModel& pcie() const { return pcie_; }

  int card_id() const { return card_id_; }

  /// Maximum number of compaction inputs the synthesized engine
  /// accepts (the N of the paper).
  int max_inputs() const { return config_.num_inputs; }

  /// Attaches a fault injector (borrowed; may be null to detach). The
  /// injector is consulted once per kernel launch.
  void set_fault_injector(fpga::DeviceFaultInjector* injector)
      EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    fault_injector_ = injector;
  }

  /// Runs one compaction kernel: DMA the inputs in, execute, DMA the
  /// outputs back. Every caller shares the card's FIFO job queue: the
  /// call blocks until each job that arrived before it has left the
  /// card, then while the (simulated) kernel runs. A job that had to
  /// wait arrived back-to-back, so its transfer-in was double-buffered
  /// behind the predecessor's kernel (stats->queued, queue_wait_micros,
  /// pipelined and dma_overlap_micros). On failure *output is cleared —
  /// a failed kernel never hands partial results to the host.
  /// `bounds`, when non-null and active, restricts the merge to user
  /// keys in (lower, upper] (sharded offload; the engine's Key-Value
  /// Transfer drops records outside). Borrowed for the duration.
  /// More than N inputs is InvalidArgument; see ExecuteTournament.
  Status ExecuteCompaction(const std::vector<const fpga::DeviceInput*>& inputs,
                           uint64_t smallest_snapshot, bool drop_deletions,
                           fpga::DeviceOutput* output, DeviceRunStats* stats,
                           const fpga::KeyBounds* bounds = nullptr)
      EXCLUDES(queue_mutex_, mutex_, stats_mutex_);

  /// ExecuteCompaction for any number of inputs: while more than N runs
  /// remain, merges them in rounds of N-input kernel passes whose
  /// intermediate runs are re-staged inside device DRAM
  /// (fpga::ConvertOutputToInput), so the PCIe cost covers only the
  /// initial inputs and the final outputs. Intermediate passes never
  /// drop deletion markers (a marker may shadow data in another group);
  /// only the final pass applies `drop_deletions`. Each pass is a
  /// separate kernel launch for fault purposes: a fault in any
  /// intermediate pass fails the whole job, frees all intermediate DRAM
  /// staging and clears *output. With at most N inputs it is exactly
  /// one ExecuteCompaction pass.
  Status ExecuteTournament(const std::vector<const fpga::DeviceInput*>& inputs,
                           uint64_t smallest_snapshot, bool drop_deletions,
                           fpga::DeviceOutput* output, DeviceRunStats* stats,
                           const fpga::KeyBounds* bounds = nullptr)
      EXCLUDES(queue_mutex_, mutex_, stats_mutex_);

  /// Jobs queued or running on this card right now.
  uint64_t queued_jobs() const EXCLUDES(queue_mutex_) {
    MutexLock lock(&queue_mutex_);
    return next_ticket_ - serving_;
  }

  /// Totals across the device lifetime.
  uint64_t total_kernel_cycles() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return total_kernel_cycles_;
  }
  double total_pcie_micros() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return total_pcie_micros_;
  }
  uint64_t kernels_launched() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return kernels_launched_;
  }

  /// Modeled micros of DMA hidden behind compute across the device
  /// lifetime (the pipelined double-buffering payoff).
  double total_dma_overlap_micros() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return total_dma_overlap_micros_;
  }

  /// Modeled micros of shared-bus delay across the lifetime: 0, since a
  /// card's own timeline shares no bus (see DeviceRunStats).
  double total_bus_wait_micros() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return total_bus_wait_micros_;
  }

  /// Jobs that arrived before the card's previous job left, and so
  /// were eligible for DMA/compute overlap (DeviceRunStats::pipelined).
  uint64_t pipelined_jobs() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return pipelined_jobs_;
  }

  /// Device DRAM currently held by tournament intermediates. Zero
  /// whenever no tournament is in flight — in particular after a failed
  /// one (no leaked staging).
  uint64_t intermediate_dram_bytes() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return intermediate_dram_bytes_;
  }
  uint64_t intermediate_dram_peak_bytes() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return intermediate_dram_peak_bytes_;
  }

  /// Kernel runs killed by the cycle-deadline watchdog (natural, i.e.
  /// not injected, timeouts included).
  uint64_t deadline_kills() const EXCLUDES(stats_mutex_) {
    MutexLock lock(&stats_mutex_);
    return deadline_kills_;
  }

 private:
  /// The one body of ExecuteCompaction and ExecuteTournament: waits for
  /// the job's turn in the queue, then runs tournament rounds while
  /// more than N runs remain and a final pass over the rest.
  Status Execute(const std::vector<const fpga::DeviceInput*>& inputs,
                 uint64_t smallest_snapshot, bool drop_deletions,
                 fpga::DeviceOutput* output, DeviceRunStats* stats,
                 const fpga::KeyBounds* bounds)
      EXCLUDES(queue_mutex_, mutex_, stats_mutex_);

  /// One kernel launch: consults the fault injector, runs the engine,
  /// enforces the cycle deadline and applies silent corruption.
  Status RunKernel(const std::vector<const fpga::DeviceInput*>& inputs,
                   uint64_t smallest_snapshot, bool drop_deletions,
                   fpga::DeviceOutput* output, DeviceRunStats* stats,
                   const fpga::KeyBounds* bounds) REQUIRES(mutex_);

  const fpga::EngineConfig config_;
  const fpga::PcieModel pcie_;
  const int card_id_;

  // The card's job queue: FIFO tickets, one job on the card at a time.
  // A leaf lock, taken before the run lock (to wait for a turn) and
  // again after it is released (to hand the card on), never while the
  // run lock is held.
  mutable Mutex queue_mutex_ ACQUIRED_BEFORE(mutex_);
  CondVar queue_cv_{&queue_mutex_};
  uint64_t next_ticket_ GUARDED_BY(queue_mutex_) = 0;
  uint64_t serving_ GUARDED_BY(queue_mutex_) = 0;

  // The run lock: held by the admitted job for its whole run.
  Mutex mutex_;
  fpga::DeviceFaultInjector* fault_injector_ GUARDED_BY(mutex_) = nullptr;

  // The card's modeled DMA timeline (modeled micros since the card
  // powered on), one card wide: the cards of a DB share no modeled
  // clock, so no job here waits for a bus.
  fpga::DmaTimeline timeline_ GUARDED_BY(mutex_){1};

  // Counters below are guarded by stats_mutex_ so readers (health
  // probes, tests) need not queue behind a running kernel. Lock order:
  // stats_mutex_ is a leaf taken while mutex_ is held, never the other
  // way around.
  mutable Mutex stats_mutex_ ACQUIRED_AFTER(mutex_);
  uint64_t total_kernel_cycles_ GUARDED_BY(stats_mutex_) = 0;
  double total_pcie_micros_ GUARDED_BY(stats_mutex_) = 0;
  uint64_t kernels_launched_ GUARDED_BY(stats_mutex_) = 0;
  uint64_t intermediate_dram_bytes_ GUARDED_BY(stats_mutex_) = 0;
  uint64_t intermediate_dram_peak_bytes_ GUARDED_BY(stats_mutex_) = 0;
  uint64_t deadline_kills_ GUARDED_BY(stats_mutex_) = 0;
  double total_dma_overlap_micros_ GUARDED_BY(stats_mutex_) = 0;
  double total_bus_wait_micros_ GUARDED_BY(stats_mutex_) = 0;
  uint64_t pipelined_jobs_ GUARDED_BY(stats_mutex_) = 0;
};

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_FCAE_DEVICE_H_
