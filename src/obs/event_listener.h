#ifndef FCAE_OBS_EVENT_LISTENER_H_
#define FCAE_OBS_EVENT_LISTENER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace fcae {
namespace obs {

/// Event payloads. Every struct is a value snapshot taken while the DB
/// mutex was held; by the time a listener sees it the DB may have
/// moved on, so fields are facts about the event, not live state.

struct FlushJobInfo {
  std::string db_name;
  uint64_t output_file_number = 0;  // 0 until the table is built.
  uint64_t output_bytes = 0;
  uint64_t micros = 0;  // Completed only.
  Status status;        // Completed only; begin events carry OK.
};

struct CompactionJobInfo {
  std::string db_name;
  int base_level = 0;    // Inputs come from base_level and base_level+1.
  int output_level = 0;  // base_level + 1.
  int input_files = 0;
  int shards = 1;         // Key-range shards the job was split into.
  bool offloaded = false;  // At least one shard completed on the device.
  bool fell_back = false;  // A device attempt failed; CPU rerun happened.
  uint64_t input_bytes = 0;   // Completed only.
  uint64_t output_bytes = 0;  // Completed only.
  uint64_t micros = 0;        // Completed only.
  Status status;              // Completed only.
};

struct OffloadRetryInfo {
  int attempt = 0;  // 1-based attempt that just failed.
  std::string reason;
};

struct OffloadFallbackInfo {
  bool sticky = false;  // Device fault no retry can clear.
  std::string reason;
};

enum class WriteStallCause : unsigned char {
  kCompactionDebt = 0,  // Slowdown: L0 near trigger or controller delay.
  kMemtableFull = 1,    // Stop: both memtables full, flush pending.
  kL0Stop = 2,          // Stop: L0 file count at the hard limit.
};

const char* WriteStallCauseName(WriteStallCause cause);

struct WriteStallInfo {
  WriteStallCause cause = WriteStallCause::kCompactionDebt;
  uint64_t micros = 0;  // End only: how long this pass blocked.
};

struct BackgroundErrorInfo {
  Status status;
  bool hard = false;  // Hard errors do not auto-resume.
};

struct DeviceHealthChangeInfo {
  /// Which card of the DeviceSet changed breaker state.
  int card_id = 0;
  bool quarantined = false;  // New breaker state.
  int consecutive_failures = 0;
};

/// A table failed an integrity check (DESIGN.md §14) — raised by the
/// background scrubber, a compaction that tripped over a bad input, or
/// any other detector, always before the file is quarantined.
struct CorruptionInfo {
  uint64_t file_number = 0;
  int level = -1;
  uint64_t file_size = 0;
  /// Which detector found it: "scrub", "compaction", ...
  std::string source;
  Status status;  // The corruption status with the stage detail.
};

/// A corrupt table was quarantined: reads now route around it and a
/// repair job owns it until the repair edit lands.
struct FileQuarantineInfo {
  uint64_t file_number = 0;
  int level = -1;
};

/// One full scrub cycle finished examining every live table it set out
/// to check.
struct ScrubCycleInfo {
  uint64_t files_scanned = 0;
  uint64_t bytes_scanned = 0;
  uint64_t corruptions_found = 0;
  uint64_t micros = 0;
};

/// User callback interface, registered via Options::listeners.
///
/// Threading contract: callbacks fire on DB background or writer
/// threads with NO DB lock held. They may read event fields and record
/// them anywhere, but must not call back into the emitting DB (the
/// write path is blocked behind some of these events) and should
/// return quickly — a slow listener delays flushes, compactions, and
/// stalled writers. Default implementations are no-ops so subclasses
/// override only what they watch.
class EventListener {
 public:
  virtual ~EventListener() = default;

  virtual void OnFlushBegin(const FlushJobInfo& info) {}
  virtual void OnFlushCompleted(const FlushJobInfo& info) {}
  virtual void OnCompactionBegin(const CompactionJobInfo& info) {}
  virtual void OnCompactionCompleted(const CompactionJobInfo& info) {}
  virtual void OnOffloadRetry(const OffloadRetryInfo& info) {}
  virtual void OnOffloadFallback(const OffloadFallbackInfo& info) {}
  virtual void OnWriteStallBegin(const WriteStallInfo& info) {}
  virtual void OnWriteStallEnd(const WriteStallInfo& info) {}
  virtual void OnBackgroundError(const BackgroundErrorInfo& info) {}
  virtual void OnBackgroundErrorResumed() {}
  virtual void OnDeviceHealthChange(const DeviceHealthChangeInfo& info) {}
  virtual void OnCorruptionDetected(const CorruptionInfo& info) {}
  virtual void OnFileQuarantined(const FileQuarantineInfo& info) {}
  virtual void OnScrubCompleted(const ScrubCycleInfo& info) {}
};

/// Fan-out helper the DB and executor share. Holds borrowed listener
/// pointers (null entries dropped at construction); immutable after
/// construction, so it is safe to call from any thread without a lock.
class EventNotifier {
 public:
  EventNotifier() = default;
  explicit EventNotifier(const std::vector<EventListener*>& listeners);

  /// False when no listeners are registered — callers skip building
  /// the info struct (and any mutex juggling) entirely.
  bool active() const { return !listeners_.empty(); }

  void NotifyFlushBegin(const FlushJobInfo& info) const;
  void NotifyFlushCompleted(const FlushJobInfo& info) const;
  void NotifyCompactionBegin(const CompactionJobInfo& info) const;
  void NotifyCompactionCompleted(const CompactionJobInfo& info) const;
  void NotifyOffloadRetry(const OffloadRetryInfo& info) const;
  void NotifyOffloadFallback(const OffloadFallbackInfo& info) const;
  void NotifyWriteStallBegin(const WriteStallInfo& info) const;
  void NotifyWriteStallEnd(const WriteStallInfo& info) const;
  void NotifyBackgroundError(const BackgroundErrorInfo& info) const;
  void NotifyBackgroundErrorResumed() const;
  void NotifyDeviceHealthChange(const DeviceHealthChangeInfo& info) const;
  void NotifyCorruptionDetected(const CorruptionInfo& info) const;
  void NotifyFileQuarantined(const FileQuarantineInfo& info) const;
  void NotifyScrubCompleted(const ScrubCycleInfo& info) const;

 private:
  std::vector<EventListener*> listeners_;
};

}  // namespace obs
}  // namespace fcae

#endif  // FCAE_OBS_EVENT_LISTENER_H_
