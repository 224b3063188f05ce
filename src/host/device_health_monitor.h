#ifndef FCAE_HOST_DEVICE_HEALTH_MONITOR_H_
#define FCAE_HOST_DEVICE_HEALTH_MONITOR_H_

#include <cstdint>
#include <string>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fcae {

namespace obs {
struct CardInstruments;
class EventNotifier;
class MetricsRegistry;
class TraceRecorder;
}  // namespace obs

namespace host {

/// Circuit-breaker policy knobs.
struct DeviceHealthOptions {
  /// Consecutive failed jobs (after the executor's own retries) that
  /// quarantine the device. A sticky card-drop counts `sticky_weight`
  /// failures at once, so a dead card trips the breaker immediately.
  int quarantine_threshold = 3;
  int sticky_weight = 3;

  /// While quarantined, every `probe_interval`-th job the executor is
  /// asked about is admitted as a probe; its outcome decides whether the
  /// device is re-admitted. The jobs in between flow to the CPU path.
  int probe_interval = 8;
};

/// DeviceHealthMonitor is the circuit breaker of one card of a
/// DeviceSet. The offload executor reports per-job outcomes
/// (RecordJobSuccess / RecordJobFailure); DeviceSet::PickCard skips a
/// quarantined card and consults Admit() only when every card is out.
///
/// States: healthy -> (K consecutive failures) -> quarantined ->
/// (periodic probe job succeeds) -> healthy again. While quarantined,
/// Admit() denies all jobs except the periodic probe, so compactions
/// flow to the always-available CPU executor and the DB degrades
/// gracefully instead of stalling.
class DeviceHealthMonitor {
 public:
  /// `card_id` is the card's index in its DeviceSet: gauges publish in
  /// the registry's block for that card and OnDeviceHealthChange events
  /// carry the id, so per-card breakers never alias.
  DeviceHealthMonitor(DeviceHealthOptions options, int card_id);

  DeviceHealthMonitor(const DeviceHealthMonitor&) = delete;
  DeviceHealthMonitor& operator=(const DeviceHealthMonitor&) = delete;

  int card_id() const { return card_id_; }

  /// Should this job be sent to the device? Counts denials while
  /// quarantined and grants every probe_interval-th job as a probe.
  bool Admit() EXCLUDES(mutex_);

  /// One job completed on the device (possibly after internal retries).
  void RecordJobSuccess() EXCLUDES(mutex_);

  /// One job failed on the device after exhausting its retries.
  /// `sticky` marks a fault no retry can clear (card off the bus).
  void RecordJobFailure(bool sticky) EXCLUDES(mutex_);

  bool quarantined() const EXCLUDES(mutex_);

  struct Snapshot {
    bool quarantined = false;
    int consecutive_failures = 0;
    uint64_t jobs_succeeded = 0;
    uint64_t jobs_failed = 0;
    uint64_t sticky_failures = 0;
    uint64_t quarantines = 0;   // Times the breaker opened.
    uint64_t probes = 0;        // Probe jobs admitted while open.
    uint64_t readmissions = 0;  // Times a probe closed the breaker.
    uint64_t jobs_denied = 0;   // Jobs routed to CPU by the breaker.
  };
  Snapshot snapshot() const EXCLUDES(mutex_);

  /// One-line counter dump for DB::GetProperty("fcae.device-health").
  /// mutex_ is a leaf in the lock order (see DESIGN.md): it is safe to
  /// call this while holding DBImpl::mutex_ or the executor's mutex,
  /// which is what keeps the property readable mid-quarantine.
  std::string ToString() const EXCLUDES(mutex_);

  /// Publishes breaker state to obs: the health gauges of the card's
  /// block (MetricsRegistry::card) are set on every state change, and
  /// breaker transitions (quarantine/readmission) are recorded as trace
  /// instants. Either pointer may be null; both are borrowed and must
  /// stay valid until the next attach. Idempotent — the offload
  /// executor calls this once per job with the handles the DB put on
  /// the CompactionJob; each call fetches the card's block and
  /// republishes the gauges.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::TraceRecorder* trace) EXCLUDES(mutex_);

  /// Registers an event fan-out that receives OnDeviceHealthChange on
  /// every breaker transition (quarantine and readmission). Borrowed,
  /// may be null; idempotent like AttachObservability. Callbacks fire
  /// with mutex_ released, on the thread reporting the job outcome.
  void AttachNotifier(const obs::EventNotifier* notifier) EXCLUDES(mutex_);

 private:
  /// Pushes the current counters to the attached gauges. Caller holds
  /// mutex_.
  void PublishLocked() REQUIRES(mutex_);

  const DeviceHealthOptions options_;
  const int card_id_;

  mutable Mutex mutex_;
  bool quarantined_ GUARDED_BY(mutex_) = false;
  int consecutive_failures_ GUARDED_BY(mutex_) = 0;
  int denials_since_probe_ GUARDED_BY(mutex_) = 0;
  uint64_t jobs_succeeded_ GUARDED_BY(mutex_) = 0;
  uint64_t jobs_failed_ GUARDED_BY(mutex_) = 0;
  uint64_t sticky_failures_ GUARDED_BY(mutex_) = 0;
  uint64_t quarantines_ GUARDED_BY(mutex_) = 0;
  uint64_t probes_ GUARDED_BY(mutex_) = 0;
  uint64_t readmissions_ GUARDED_BY(mutex_) = 0;
  uint64_t jobs_denied_ GUARDED_BY(mutex_) = 0;

  obs::CardInstruments* gauges_ GUARDED_BY(mutex_) = nullptr;
  obs::TraceRecorder* trace_ GUARDED_BY(mutex_) = nullptr;
  const obs::EventNotifier* notifier_ GUARDED_BY(mutex_) = nullptr;
};

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_DEVICE_HEALTH_MONITOR_H_
