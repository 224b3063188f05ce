#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Spans and counters recorded by the benchmark's own code around calls
// into the engine. Each thread keeps a stack of open spans: a client op
// (put, get, scan, job) is the root and the decorator calls it makes
// nest under it, so every span knows its op and its parent. A span's
// self time is its duration minus the time its children cover.
//
// Counters are always on. Spans are recorded only while tracing is
// enabled; untraced passes pay one relaxed load per decorator call.

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// A layer boundary timed from outside. The first entry doubles as the
/// context of work done on a thread with no open span.
enum Layer : int {
  kBackground = 0,
  kPut,
  kGet,
  kScan,
  kJob,
  kWalAppend,
  kTableAppend,
  kManifestAppend,
  kFileSync,
  kFileRead,
  kCacheLookup,
  kCacheInsert,
  kFilterProbe,
  kCompactionExec,
  kStage,
  kDevice,
  kVerify,
  kAssemble,
  kCpuMerge,
  kFlushJob,
  kCompactionJob,
  kNumLayers
};

const char* LayerName(int layer);

enum Counter : int {
  kCacheHits = 0,
  kCacheMisses,
  kFilterProbes,
  kFilterNegatives,
  kFileReads,
  kFileReadBytes,
  kTableOpens,
  kLogBytes,
  kTableBytes,
  kManifestBytes,
  kSyncs,
  kNumCounters
};

struct LayerTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
};

/// Clears every counter and span; enables span recording if `tracing`.
/// Call only while no engine thread is inside a decorator.
void ResetRecorder(bool tracing);
bool Tracing();

/// Adds `n` to counter `c` in the calling thread's op context (the root
/// span's layer, or kBackground).
void Count(Counter c, uint64_t n);
uint64_t CountIn(int context, Counter c);
uint64_t CountAll(Counter c);

/// Span totals of `layer` recorded under root `context`, or anywhere.
LayerTotals TotalsIn(int context, int layer);
LayerTotals TotalsAll(int layer);

/// Records a span whose bounds arrive after the fact (listener payloads).
void RecordSpan(int layer, uint64_t start_ns, uint64_t end_ns);

/// chrome://tracing JSON of the recorded spans (the first ones, up to a
/// fixed cap; totals always cover every span).
bool WriteChromeTrace(const std::string& path);
uint64_t DroppedSpans();

/// One line per (context, layer) pair seen: count, total and self time.
std::string SelfTimeTable();

class Span {
 public:
  explicit Span(int layer);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
