#ifndef FCAE_HOST_OFFLOAD_COMPACTION_H_
#define FCAE_HOST_OFFLOAD_COMPACTION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "host/device_set.h"
#include "lsm/compaction_executor.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fcae {
namespace host {

/// The FPGA offload path of the compaction thread (paper Fig. 6): stage
/// input SSTables into device memory images, DMA them to the card, run
/// the engine, fetch the outputs, and reassemble standard SSTable files
/// on disk. Plugged into the DB via Options::compaction_executor.
///
/// CanExecute() enforces the device's N-input limit, so the DB falls
/// back to software compaction exactly when the paper's scheduler does
/// ("when the input number is not larger than nine, the compaction
/// tasks would be pushed down to FPGA, otherwise it is handled by
/// CPU") — unless tournament scheduling is enabled below. Card health
/// is decided at placement time inside Execute(): DeviceSet::PickCard
/// skips quarantined cards, and when every card's breaker denies the
/// job Execute() returns Status::Busy so DBImpl reruns it on the CPU.
///
/// The executor is thread-safe: the DB's parallel compaction scheduler
/// may have several jobs inside Execute() at once. Kernel attempts are
/// admitted to each card through a FIFO ticket queue, so in-flight jobs
/// share a card fairly instead of serializing further up the stack.

/// Scheduler policy knobs for the offload executor.
struct FcaeExecutorOptions {
  /// false (default): the paper's strict Fig. 6 policy — a compaction
  /// needing more than N engine inputs runs completely in software.
  /// true: decompose such jobs into a tournament of N-input kernel
  /// passes whose intermediates stay in device DRAM (see
  /// FcaeDevice::ExecuteTournament and DESIGN.md item 6).
  bool tournament_scheduling = false;

  /// Kernel attempts per job (>= 1). Transient faults (device-busy,
  /// kernel timeout, corruption caught by verification) are retried up
  /// to this many total attempts with exponential backoff; sticky
  /// faults (card dropped) abort immediately.
  int max_attempts = 3;

  /// Backoff before retry attempt k (1-based) is
  /// `backoff_base_micros << (k - 1)`. 0 disables the sleep.
  uint64_t backoff_base_micros = 100;
};

class FcaeCompactionExecutor : public CompactionExecutor {
 public:
  /// `devices` is borrowed and may be shared by several DB instances; a
  /// single card is a one-card set. Jobs are spread over the set's
  /// cards by the least-queued-bytes placement policy
  /// (DeviceSet::PickCard), each card has its own FIFO ticket lane, and
  /// health is tracked by the set's per-card monitors.
  explicit FcaeCompactionExecutor(DeviceSet* devices,
                                  FcaeExecutorOptions options = {});

  const char* Name() const override { return "fcae"; }

  bool CanExecute(const CompactionJob& job) const override;

  Status Execute(const CompactionJob& job,
                 std::vector<CompactionOutput>* outputs,
                 CompactionExecStats* stats) override;

  /// One breaker dump per card. Attempt, retry and fault totals are
  /// the `host.*` instruments and the DB's `fcae.device-health` line.
  std::string HealthString() const override;

 private:
  /// Per-card device admission queue: one kernel runs at a time on each
  /// card; concurrent jobs line up here instead of serializing anywhere
  /// up the stack. Leaf lock, held only for ticket arithmetic — the
  /// device call itself runs outside it, guarded by the ticket order.
  struct CardLane {
    Mutex mutex;
    CondVar cv{&mutex};
    uint64_t next_ticket GUARDED_BY(mutex) = 0;
    uint64_t serving GUARDED_BY(mutex) = 0;
  };

  /// Blocks until it is this attempt's turn on card `card` (FIFO by
  /// arrival). Tickets are acquired per kernel attempt, never held
  /// across a backoff sleep, so with several compaction workers in
  /// flight a retrying job cannot hog the device and waiters make
  /// progress in arrival order.
  void AcquireDeviceTicket(int card, obs::MetricsRegistry* metrics);
  void ReleaseDeviceTicket(int card, obs::MetricsRegistry* metrics);

  DeviceSet* const devices_;  // Borrowed.
  const FcaeExecutorOptions options_;

  std::vector<std::unique_ptr<CardLane>> lanes_;  // 1 entry per card.
};

/// Returns the number of engine inputs a compaction needs: one per
/// level-0 file (their key ranges overlap) plus one per participating
/// sorted level (paper Section IV step 2).
int EngineInputsNeeded(const CompactionJob& job);

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_OFFLOAD_COMPACTION_H_
