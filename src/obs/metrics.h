#ifndef FCAE_OBS_METRICS_H_
#define FCAE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fcae {
namespace obs {

/// A monotonically increasing counter. Increment is a relaxed atomic
/// add — safe from any thread, cheap enough for hot paths (single
/// uncontended RMW). Instances are owned by a MetricsRegistry and live
/// as long as it does; the pointer returned by registration is stable.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

/// A gauge: a value that can go up and down (queue depth, breaker
/// state). Last write wins.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

/// A log-bucketed histogram (util/histogram) behind its own leaf mutex.
/// Observe() is meant for per-event measurements (compaction, flush,
/// stall durations) — rare relative to the write path, so a brief
/// uncontended lock is acceptable.
class HistogramMetric {
 public:
  void Observe(double value) EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    histogram_.Add(value);
  }

  /// A consistent copy for percentile queries and export.
  Histogram snapshot() const EXCLUDES(mutex_) {
    MutexLock lock(&mutex_);
    return histogram_;
  }

 private:
  friend class MetricsRegistry;
  HistogramMetric() = default;
  mutable Mutex mutex_;
  Histogram histogram_ GUARDED_BY(mutex_);
};

/// A thread-safe registry of named metrics.
///
/// Naming scheme (see DESIGN.md §7): dotted lowercase
/// `<layer>.<subsystem>.<measure>[_<unit>]`, e.g.
/// `db.compaction.micros`, `fpga.decoder.fetch_stalls`,
/// `health.card0.quarantines`. Registration (`counter()` / `gauge()` /
/// `histogram()`) takes the registry mutex once; callers on hot paths
/// should cache the returned pointer, which stays valid for the
/// registry's lifetime. Re-registering a name returns the existing
/// instrument, so independent components can share one time series.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name) EXCLUDES(mutex_);
  Gauge* gauge(const std::string& name) EXCLUDES(mutex_);
  HistogramMetric* histogram(const std::string& name) EXCLUDES(mutex_);

  /// One JSON object with every registered metric:
  ///   {"counters": {name: n, ...},
  ///    "gauges": {name: n, ...},
  ///    "histograms": {name: {"count": n, "min": x, "max": x,
  ///                          "mean": x, "p50": x, "p90": x, "p99": x},
  ///                   ...}}
  /// Names are emitted in sorted order so snapshots diff cleanly.
  std::string ToJson() const EXCLUDES(mutex_);

  /// A point-in-time copy of every instrument. Subtracting an earlier
  /// snapshot from current values yields the interval (windowed) view
  /// the stats dumper and GetProperty("fcae.stats") report.
  struct Snapshot {
    std::map<std::string, uint64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, Histogram> histograms;

    /// Value this snapshot holds for a counter, 0 when it had not been
    /// registered yet — the right baseline for a delta.
    uint64_t CounterValue(const std::string& name) const;
  };
  Snapshot TakeSnapshot() const EXCLUDES(mutex_);

  /// Same JSON shape as ToJson(), but counters and histograms report
  /// the interval since `since`. Gauges are point-in-time by nature
  /// and are emitted unchanged. Instruments registered after the
  /// snapshot report their full value (baseline 0).
  std::string ToJsonSince(const Snapshot& since) const EXCLUDES(mutex_);

  /// Prometheus text exposition (format 0.0.4). Dotted names are
  /// mangled to `fcae_<name with non-alphanumerics as '_'>`; counters
  /// and gauges are plain samples with a `# TYPE` header, histograms
  /// are exposed as summaries (quantile="0.5|0.9|0.99" plus _sum and
  /// _count series). See DESIGN.md §12.
  std::string ExportPrometheus() const EXCLUDES(mutex_);

 private:
  mutable Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<HistogramMetric>> histograms_
      GUARDED_BY(mutex_);
};

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by metrics and trace
/// emitters.
std::string JsonEscape(const std::string& in);

}  // namespace obs
}  // namespace fcae

#endif  // FCAE_OBS_METRICS_H_
