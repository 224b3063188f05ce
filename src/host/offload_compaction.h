#ifndef FCAE_HOST_OFFLOAD_COMPACTION_H_
#define FCAE_HOST_OFFLOAD_COMPACTION_H_

#include <string>
#include <vector>

#include "host/device_set.h"
#include "lsm/compaction_executor.h"

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
/// may have several jobs inside Execute() at once. Each kernel attempt
/// waits in its card's own FIFO job queue (FcaeDevice), which every
/// caller of the card shares, so in-flight jobs take turns on a card in
/// arrival order instead of serializing further up the stack.

/// Scheduler policy knobs for the offload executor.
struct FcaeExecutorOptions {
  /// false (default): the paper's strict Fig. 6 policy — a compaction
  /// needing more than N engine inputs runs completely in software.
  /// true: decompose such jobs into a tournament of N-input kernel
  /// passes whose intermediates stay in device DRAM (see
  /// FcaeDevice::ExecuteTournament and DESIGN.md item 6).
  bool tournament_scheduling = false;
};

class FcaeCompactionExecutor : public CompactionExecutor {
 public:
  /// `devices` is borrowed and may be shared by several DB instances; a
  /// single card is a one-card set. Jobs are spread over the set's
  /// cards by the least-queued-bytes placement policy
  /// (DeviceSet::PickCard), and health is tracked by the set's per-card
  /// monitors.
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
  DeviceSet* const devices_;  // Borrowed.
  const FcaeExecutorOptions options_;
};

/// Returns the number of engine inputs a compaction needs: one per
/// level-0 file (their key ranges overlap) plus one per participating
/// sorted level (paper Section IV step 2).
int EngineInputsNeeded(const CompactionJob& job);

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_OFFLOAD_COMPACTION_H_
