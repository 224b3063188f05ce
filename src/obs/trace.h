#ifndef FCAE_OBS_TRACE_H_
#define FCAE_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fcae {
namespace obs {

/// One structured trace event in the chrome://tracing event model.
/// phase 'X' is a complete span (ts + dur), phase 'i' an instant
/// annotation (retry, fallback, quarantine, ...).
struct TraceEvent {
  std::string name;  ///< e.g. "compaction", "merge", "dma_in"
  std::string cat;   ///< layer tag: "db", "host", "fpga", "syssim"
  char phase = 'X';  ///< 'X' = complete span, 'i' = instant
  uint64_t ts_micros = 0;
  uint64_t dur_micros = 0;  ///< 0 for instants
  uint64_t tid = 0;         ///< logical track (e.g. compaction sequence)
  /// Free-form key/value annotations, emitted under "args". Values are
  /// raw JSON fragments: pass "3" for a number, "\"cpu\"" for a string
  /// (see TraceRecorder::Quote).
  std::vector<std::pair<std::string, std::string>> args;
};

/// Receives every event as it is recorded, in addition to (not instead
/// of) the ring buffer. Implementations must be thread-safe; they are
/// invoked outside the recorder's lock, so they may re-enter the
/// recorder (though there is rarely a reason to).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void Append(const TraceEvent& event) = 0;
};

class Counter;

/// A bounded in-memory ring of trace events, exportable as
/// chrome://tracing JSON (load via chrome://tracing or Perfetto).
/// When the ring is full the oldest events are overwritten, so a
/// long-running DB keeps the most recent window rather than failing or
/// growing without bound.
class TraceRecorder {
 public:
  /// `capacity` is the max retained events; 4096 spans comfortably
  /// cover thousands of compactions between exports. Each overwritten
  /// event increments `dropped` (borrowed; it must outlive the
  /// recorder), the one count of evictions: a DB passes its registry's
  /// obs.trace.dropped_events, so the registry is current at every
  /// eviction, and ToJson's "eventsDropped" prints the same counter.
  TraceRecorder(size_t capacity, Counter* dropped);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Installs a sink that observes every subsequent event. Pass
  /// nullptr to detach. The sink must outlive the recorder or be
  /// detached first.
  void set_sink(TraceSink* sink) EXCLUDES(mutex_);

  void Record(TraceEvent event) EXCLUDES(mutex_);

  /// Convenience: record a complete span.
  void RecordSpan(std::string name, std::string cat, uint64_t ts_micros,
                  uint64_t dur_micros, uint64_t tid,
                  std::vector<std::pair<std::string, std::string>> args = {})
      EXCLUDES(mutex_);

  /// Convenience: record an instant annotation.
  void RecordInstant(std::string name, std::string cat, uint64_t ts_micros,
                     uint64_t tid,
                     std::vector<std::pair<std::string, std::string>> args = {})
      EXCLUDES(mutex_);

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with events in
  /// recording order (oldest retained first).
  std::string ToJson() const EXCLUDES(mutex_);

  /// Events currently retained in the ring.
  size_t size() const EXCLUDES(mutex_);

  /// Wraps a string value as a JSON string literal for TraceEvent::args.
  static std::string Quote(const std::string& value);

 private:
  mutable Mutex mutex_;
  const size_t capacity_;
  Counter* const dropped_;
  std::vector<TraceEvent> ring_ GUARDED_BY(mutex_);
  size_t next_ GUARDED_BY(mutex_) = 0;  ///< ring write index once full
  TraceSink* sink_ GUARDED_BY(mutex_) = nullptr;
};

/// Monotonic wall clock for span timestamps, microseconds. Distinct
/// from env time so obs stays usable without an Env (e.g. in the FPGA
/// simulator and unit tests).
uint64_t TraceNowMicros();

/// RAII helper: measures from construction to Finish()/destruction and
/// records one complete span. Annotations added via AddArg() between
/// construction and finish are attached to the span.
class SpanTimer {
 public:
  /// `recorder` may be null, making the timer a no-op.
  SpanTimer(TraceRecorder* recorder, std::string name, std::string cat,
            uint64_t tid);
  ~SpanTimer();

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  void AddArg(std::string key, std::string raw_json_value);

  /// Records the span now (idempotent); the destructor becomes a no-op.
  void Finish();

  uint64_t start_micros() const { return start_micros_; }

 private:
  TraceRecorder* recorder_;
  std::string name_;
  std::string cat_;
  uint64_t tid_;
  uint64_t start_micros_;
  std::vector<std::pair<std::string, std::string>> args_;
  bool finished_ = false;
};

}  // namespace obs
}  // namespace fcae

#endif  // FCAE_OBS_TRACE_H_
