#include "host/fcae_device.h"

#include <algorithm>
#include <memory>

#include "fpga/output_to_input.h"
#include "util/env.h"
#include "util/random.h"

namespace fcae {
namespace host {

namespace {

/// Applies a silent DMA corruption: flips a few bytes of one output
/// table, chosen deterministically from the decision's corruption seed.
/// The flips may land in block payloads, trailers or restart arrays —
/// exactly the reason host verification re-checks CRCs and key order.
void CorruptOutput(uint64_t seed, fpga::DeviceOutput* output) {
  if (output->tables.empty()) return;
  Random rng(static_cast<uint32_t>(seed ^ (seed >> 32)) | 1);
  fpga::DeviceOutputTable& table =
      output->tables[rng.Uniform(static_cast<int>(output->tables.size()))];
  if (table.data_memory.empty()) return;
  const int flips = 1 + static_cast<int>(rng.Uniform(8));
  for (int i = 0; i < flips; i++) {
    const size_t pos =
        static_cast<size_t>(rng.Next64() % table.data_memory.size());
    table.data_memory[pos] =
        static_cast<char>(table.data_memory[pos] ^ (1u << rng.Uniform(8)));
  }
}

}  // namespace

FcaeDevice::FcaeDevice(const fpga::EngineConfig& config,
                       const fpga::PcieModel& pcie, int card_id)
    : config_(config), pcie_(pcie), card_id_(card_id) {}

Status FcaeDevice::RunKernel(
    const std::vector<const fpga::DeviceInput*>& inputs,
    uint64_t smallest_snapshot, bool drop_deletions,
    fpga::DeviceOutput* output, DeviceRunStats* stats,
    const fpga::KeyBounds* bounds) {
  fpga::FaultDecision decision;
  if (fault_injector_ != nullptr) {
    decision = fault_injector_->NextLaunch();
  }
  {
    MutexLock lock(&stats_mutex_);
    kernels_launched_++;
  }

  switch (decision.cls) {
    case fpga::DeviceFaultClass::kCardDropped:
      stats->faults_injected++;
      return Status::DeviceLost("card dropped off the bus");
    case fpga::DeviceFaultClass::kDeviceBusy:
      stats->faults_injected++;
      return Status::Busy("device kernel queue refused the job");
    default:
      break;
  }

  fpga::CompactionEngine engine(config_, inputs, smallest_snapshot,
                                drop_deletions, output, bounds);
  Status s = engine.Run();
  if (!s.ok()) return s;

  uint64_t cycles = engine.stats().cycles;
  if (decision.cls == fpga::DeviceFaultClass::kKernelTimeout) {
    // The kernel hung: the host's watchdog burned the full deadline (or
    // twice the nominal run when no deadline is armed) before killing it.
    stats->faults_injected++;
    const uint64_t charged = config_.kernel_deadline_cycles > 0
                                 ? std::max(config_.kernel_deadline_cycles,
                                            cycles)
                                 : 2 * cycles;
    stats->kernel_cycles += charged;
    {
      MutexLock lock(&stats_mutex_);
      total_kernel_cycles_ += charged;
    }
    return Status::IOError("kernel deadline exceeded (device hang)");
  }
  if (config_.kernel_deadline_cycles > 0 &&
      cycles > config_.kernel_deadline_cycles) {
    // A genuine (non-injected) overrun of the watchdog deadline.
    stats->kernel_cycles += cycles;
    MutexLock lock(&stats_mutex_);
    total_kernel_cycles_ += cycles;
    deadline_kills_++;
    return Status::IOError("kernel deadline exceeded");
  }

  if (decision.cls == fpga::DeviceFaultClass::kDmaCorruption) {
    stats->faults_injected++;
    if (decision.silent) {
      CorruptOutput(decision.corruption_seed, output);
    } else {
      // Link CRC caught it; the DMA replays and the job succeeds.
      stats->dma_retransfers++;
      stats->pcie_micros += pcie_.RetransferMicros(output->TotalBytes());
    }
  }

  stats->kernel_cycles += cycles;
  stats->engine.records_in += engine.stats().records_in;
  stats->engine.records_dropped += engine.stats().records_dropped;
  stats->engine.records_bounds_dropped +=
      engine.stats().records_bounds_dropped;
  // Keep the full stats of the most recent pass; Execute fixes up the
  // accumulated fields afterwards.
  fpga::EngineStats merged = engine.stats();
  merged.records_in = stats->engine.records_in;
  merged.records_dropped = stats->engine.records_dropped;
  merged.records_bounds_dropped = stats->engine.records_bounds_dropped;
  merged.cycles = stats->kernel_cycles;
  stats->engine = merged;
  {
    MutexLock lock(&stats_mutex_);
    total_kernel_cycles_ += cycles;
  }
  return Status::OK();
}

Status FcaeDevice::ExecuteCompaction(
    const std::vector<const fpga::DeviceInput*>& inputs,
    uint64_t smallest_snapshot, bool drop_deletions,
    fpga::DeviceOutput* output, DeviceRunStats* stats,
    const fpga::KeyBounds* bounds) {
  if (static_cast<int>(inputs.size()) > config_.num_inputs) {
    return Status::InvalidArgument(
        "engine input count exceeds synthesized N");
  }
  return Execute(inputs, smallest_snapshot, drop_deletions, output, stats,
                 bounds);
}

Status FcaeDevice::ExecuteTournament(
    const std::vector<const fpga::DeviceInput*>& inputs,
    uint64_t smallest_snapshot, bool drop_deletions,
    fpga::DeviceOutput* output, DeviceRunStats* stats,
    const fpga::KeyBounds* bounds) {
  return Execute(inputs, smallest_snapshot, drop_deletions, output, stats,
                 bounds);
}

Status FcaeDevice::Execute(const std::vector<const fpga::DeviceInput*>& inputs,
                           uint64_t smallest_snapshot, bool drop_deletions,
                           fpga::DeviceOutput* output, DeviceRunStats* stats,
                           const fpga::KeyBounds* bounds) {
  *stats = DeviceRunStats();
  // Wait for this job's turn in the card's queue. A job that finds an
  // earlier one queued or running arrived back-to-back: its transfer-in
  // was double-buffered behind the predecessor's kernel, so the timeline
  // may credit overlap.
  {
    Env* clock = Env::Default();
    const uint64_t arrival_micros = clock->NowMicros();
    MutexLock queue_lock(&queue_mutex_);
    const uint64_t ticket = next_ticket_++;
    stats->queued = ticket != serving_;
    while (ticket != serving_) queue_cv_.Wait();
    if (stats->queued) {
      stats->queue_wait_micros = clock->NowMicros() - arrival_micros;
    }
  }
  // Hands the card to the next ticket once the run lock below is
  // released, on every exit path.
  struct QueueRelease {
    FcaeDevice* device;
    ~QueueRelease() {
      MutexLock queue_lock(&device->queue_mutex_);
      device->serving_++;
      device->queue_cv_.SignalAll();
    }
  } queue_release{this};

  MutexLock lock(&mutex_);
  // Only the initial inputs cross the link.
  for (const fpga::DeviceInput* input : inputs) {
    stats->input_bytes += input->TotalBytes();
  }

  // Rounds of up to N-input merges while more than N runs remain.
  // `owned` keeps intermediate images (the card DRAM) alive; `current`
  // always points at this round's runs. The DRAM gauge is zeroed on
  // every exit path: a failed job frees all its staging.
  std::vector<std::unique_ptr<fpga::DeviceInput>> owned;
  struct DramGuard {
    FcaeDevice* device;
    ~DramGuard() {
      MutexLock lock(&device->stats_mutex_);
      device->intermediate_dram_bytes_ = 0;
    }
  } dram_guard{this};
  std::vector<const fpga::DeviceInput*> current = inputs;

  const int n = config_.num_inputs;
  while (static_cast<int>(current.size()) > n) {
    std::vector<const fpga::DeviceInput*> next;
    for (size_t g = 0; g < current.size(); g += n) {
      const size_t end = std::min(current.size(), g + n);
      if (end - g == 1) {
        // Singleton group: carries over unmerged.
        next.push_back(current[g]);
        continue;
      }
      std::vector<const fpga::DeviceInput*> group(current.begin() + g,
                                                  current.begin() + end);
      fpga::DeviceOutput intermediate;
      // Intermediate passes must keep deletion markers: data for the
      // same user key may live in another group. Shard bounds apply
      // from the first pass — out-of-shard keys never reach card DRAM.
      Status s = RunKernel(group, smallest_snapshot,
                           /*drop_deletions=*/false, &intermediate, stats,
                           bounds);
      if (!s.ok()) {
        *output = fpga::DeviceOutput();
        return s;
      }

      auto restaged = std::make_unique<fpga::DeviceInput>();
      s = fpga::ConvertOutputToInput(intermediate, restaged.get());
      if (!s.ok()) {
        *output = fpga::DeviceOutput();
        return s;
      }
      {
        MutexLock stats_lock(&stats_mutex_);
        intermediate_dram_bytes_ += restaged->TotalBytes();
        intermediate_dram_peak_bytes_ =
            std::max(intermediate_dram_peak_bytes_, intermediate_dram_bytes_);
      }
      next.push_back(restaged.get());
      // Keep every intermediate alive until the merge completes: a
      // singleton group may carry a pointer from an earlier round.
      owned.push_back(std::move(restaged));
    }
    current = std::move(next);
  }

  // Final pass applies the real drop rule.
  Status s = RunKernel(current, smallest_snapshot, drop_deletions, output,
                       stats, bounds);
  if (!s.ok()) {
    *output = fpga::DeviceOutput();  // Never hand out partial results.
    return s;
  }

  stats->kernel_micros = config_.CyclesToMicros(stats->kernel_cycles);
  stats->output_bytes = output->TotalBytes();
  stats->pcie_micros +=
      pcie_.RoundTripMicros(stats->input_bytes, stats->output_bytes);
  // A queued job's transfer-in was issued as soon as the DMA-in engine
  // freed (the second staging slot holds its bytes); a job that found
  // the card empty arrives when the card goes idle.
  const double arrival = stats->queued ? timeline_.dma_in_free(0)
                                       : timeline_.idle_at(0);
  const fpga::DmaSlot slot = timeline_.Schedule(
      0, arrival, pcie_.TransferMicros(stats->input_bytes),
      stats->kernel_micros, pcie_.TransferMicros(stats->output_bytes));
  stats->dma_overlap_micros = slot.overlap;
  stats->bus_wait_micros = slot.bus_wait;
  stats->pipelined = slot.pipelined;

  MutexLock stats_lock(&stats_mutex_);
  total_pcie_micros_ += stats->pcie_micros;
  total_dma_overlap_micros_ += stats->dma_overlap_micros;
  total_bus_wait_micros_ += stats->bus_wait_micros;
  if (slot.pipelined) pipelined_jobs_++;
  return Status::OK();
}

}  // namespace host
}  // namespace fcae
