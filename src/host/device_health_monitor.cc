#include "host/device_health_monitor.h"

#include <algorithm>
#include <cstdio>

#include "obs/event_listener.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fcae {
namespace host {

DeviceHealthMonitor::DeviceHealthMonitor(DeviceHealthOptions options,
                                         int card_id)
    : options_(options), card_id_(card_id) {}

void DeviceHealthMonitor::AttachObservability(obs::MetricsRegistry* metrics,
                                              obs::TraceRecorder* trace) {
  MutexLock lock(&mutex_);
  // Fetched on every attach, never cached across attaches: a set that
  // outlives one DB may next serve a registry built at the same address.
  // The registry's lock is a leaf below mutex_.
  gauges_ = metrics != nullptr ? metrics->card(card_id_) : nullptr;
  trace_ = trace;
  PublishLocked();
}

void DeviceHealthMonitor::AttachNotifier(const obs::EventNotifier* notifier) {
  MutexLock lock(&mutex_);
  notifier_ = notifier;
}

void DeviceHealthMonitor::PublishLocked() {
  if (gauges_ == nullptr) return;
  // Gauges mirror the snapshot so one fcae.metrics read shows breaker
  // state without a second property. The card's own block keeps the M
  // breakers of a DeviceSet from aliasing in the registry.
  gauges_->quarantined.Set(quarantined_ ? 1 : 0);
  gauges_->consecutive_failures.Set(consecutive_failures_);
  gauges_->jobs_succeeded.Set(static_cast<int64_t>(jobs_succeeded_));
  gauges_->jobs_failed.Set(static_cast<int64_t>(jobs_failed_));
  gauges_->sticky_failures.Set(static_cast<int64_t>(sticky_failures_));
  gauges_->quarantines.Set(static_cast<int64_t>(quarantines_));
  gauges_->probes.Set(static_cast<int64_t>(probes_));
  gauges_->readmissions.Set(static_cast<int64_t>(readmissions_));
  gauges_->jobs_denied.Set(static_cast<int64_t>(jobs_denied_));
}

bool DeviceHealthMonitor::Admit() {
  MutexLock lock(&mutex_);
  if (!quarantined_) return true;
  denials_since_probe_++;
  if (denials_since_probe_ >= options_.probe_interval) {
    denials_since_probe_ = 0;
    probes_++;
    PublishLocked();
    return true;  // Probe job: outcome decides re-admission.
  }
  jobs_denied_++;
  PublishLocked();
  return false;
}

void DeviceHealthMonitor::RecordJobSuccess() {
  obs::TraceRecorder* trace = nullptr;
  const obs::EventNotifier* notifier = nullptr;
  {
    MutexLock lock(&mutex_);
    jobs_succeeded_++;
    consecutive_failures_ = 0;
    if (quarantined_) {
      quarantined_ = false;
      denials_since_probe_ = 0;
      readmissions_++;
      trace = trace_;  // Breaker closed: worth a trace instant.
      notifier = notifier_;
    }
    PublishLocked();
  }
  // Instants and listener callbacks run outside mutex_ so a slow sink
  // never extends the breaker's critical section.
  if (trace != nullptr) {
    trace->RecordInstant("device_readmitted", "health",
                         obs::TraceNowMicros(), 0,
                         {{"card", std::to_string(card_id_)}});
  }
  if (notifier != nullptr && notifier->active()) {
    obs::DeviceHealthChangeInfo info;
    info.card_id = card_id_;
    info.quarantined = false;
    info.consecutive_failures = 0;
    notifier->NotifyDeviceHealthChange(info);
  }
}

void DeviceHealthMonitor::RecordJobFailure(bool sticky) {
  obs::TraceRecorder* trace = nullptr;
  const obs::EventNotifier* notifier = nullptr;
  int failures = 0;
  {
    MutexLock lock(&mutex_);
    jobs_failed_++;
    if (sticky) {
      sticky_failures_++;
      consecutive_failures_ += std::max(1, options_.sticky_weight);
    } else {
      consecutive_failures_++;
    }
    if (!quarantined_ &&
        consecutive_failures_ >= options_.quarantine_threshold) {
      quarantined_ = true;
      denials_since_probe_ = 0;
      quarantines_++;
      trace = trace_;  // Breaker opened.
      notifier = notifier_;
      failures = consecutive_failures_;
    }
    PublishLocked();
  }
  if (trace != nullptr) {
    trace->RecordInstant("device_quarantined", "health",
                         obs::TraceNowMicros(), 0,
                         {{"sticky", sticky ? "true" : "false"},
                          {"card", std::to_string(card_id_)}});
  }
  if (notifier != nullptr && notifier->active()) {
    obs::DeviceHealthChangeInfo info;
    info.card_id = card_id_;
    info.quarantined = true;
    info.consecutive_failures = failures;
    notifier->NotifyDeviceHealthChange(info);
  }
}

bool DeviceHealthMonitor::quarantined() const {
  MutexLock lock(&mutex_);
  return quarantined_;
}

DeviceHealthMonitor::Snapshot DeviceHealthMonitor::snapshot() const {
  MutexLock lock(&mutex_);
  Snapshot snap;
  snap.quarantined = quarantined_;
  snap.consecutive_failures = consecutive_failures_;
  snap.jobs_succeeded = jobs_succeeded_;
  snap.jobs_failed = jobs_failed_;
  snap.sticky_failures = sticky_failures_;
  snap.quarantines = quarantines_;
  snap.probes = probes_;
  snap.readmissions = readmissions_;
  snap.jobs_denied = jobs_denied_;
  return snap;
}

std::string DeviceHealthMonitor::ToString() const {
  Snapshot snap = snapshot();
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "card%d quarantined=%d consecutive-failures=%d jobs{ok=%llu "
      "failed=%llu sticky=%llu denied=%llu} breaker{opened=%llu "
      "probes=%llu readmitted=%llu}",
      card_id_, snap.quarantined ? 1 : 0, snap.consecutive_failures,
      (unsigned long long)snap.jobs_succeeded,
      (unsigned long long)snap.jobs_failed,
      (unsigned long long)snap.sticky_failures,
      (unsigned long long)snap.jobs_denied,
      (unsigned long long)snap.quarantines, (unsigned long long)snap.probes,
      (unsigned long long)snap.readmissions);
  return std::string(buf);
}

}  // namespace host
}  // namespace fcae
