#ifndef FCAE_OBS_METRICS_H_
#define FCAE_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/histogram.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fcae {
namespace obs {

/// A monotonically increasing counter. Increment is a relaxed atomic
/// add — safe from any thread, cheap enough for hot paths (single
/// uncontended RMW). The registry's counters are its members
/// (obs/instruments.def); a standalone Counter works the same way.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A gauge: a value that can go up and down (queue depth, breaker
/// state). Last write wins.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  /// Raises the gauge to `value` if that is higher. A compare-exchange
  /// loop, so concurrent peaks never lower each other.
  void UpdateMax(int64_t value) {
    int64_t seen = value_.load(std::memory_order_relaxed);
    while (value > seen &&
           !value_.compare_exchange_weak(seen, value,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
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
  mutable Mutex mutex_;
  Histogram histogram_ GUARDED_BY(mutex_);
};

/// One offload card's instruments, exported as `<layer>.card<n>.<member>`.
struct CardInstruments {
#define FCAE_CARD_COUNTER(member, layer) Counter member;
#define FCAE_CARD_GAUGE(member, layer) Gauge member;
#include "obs/instruments.def"
};

/// The engine's metrics: one member per instrument declared in
/// obs/instruments.def, each at zero from construction, plus one
/// CardInstruments block per offload card. Call sites update a member
/// directly (`metrics->db_flush_count.Increment()`); no call creates an
/// instrument from a name. Members are safe to update from any thread;
/// exports and card() take the registry mutex.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

#define FCAE_COUNTER(member, name) Counter member;
#define FCAE_GAUGE(member, name) Gauge member;
#define FCAE_HISTOGRAM(member, name) HistogramMetric member;
#include "obs/instruments.def"

  /// Card `n`'s block, created at zero on first use. The pointer stays
  /// valid for the registry's lifetime.
  CardInstruments* card(int n) EXCLUDES(mutex_);

  /// One JSON object with every instrument:
  ///   {"counters": {name: n, ...},
  ///    "gauges": {name: n, ...},
  ///    "histograms": {name: {"count": n, "min": x, "max": x,
  ///                          "mean": x, "p50": x, "p90": x, "p99": x},
  ///                   ...}}
  /// Names are emitted in sorted order so snapshots diff cleanly.
  std::string ToJson() const EXCLUDES(mutex_);

  /// A point-in-time copy of every instrument, one field per declared
  /// instrument plus the card counters. Subtracting an earlier snapshot
  /// from current values yields the interval (windowed) view the stats
  /// dumper and GetProperty("fcae.stats") report.
  struct Snapshot {
#define FCAE_COUNTER(member, name) uint64_t member = 0;
#define FCAE_GAUGE(member, name) int64_t member = 0;
#define FCAE_HISTOGRAM(member, name) Histogram member;
#include "obs/instruments.def"
    struct CardCounters {
#define FCAE_CARD_COUNTER(member, layer) uint64_t member = 0;
#include "obs/instruments.def"
    };
    std::map<int, CardCounters> cards;  // By card index.
  };
  Snapshot TakeSnapshot() const EXCLUDES(mutex_);

  /// Same JSON shape as ToJson(), but counters and histograms report
  /// the interval since `since`. Gauges are point-in-time by nature
  /// and are emitted unchanged. A card created after the snapshot
  /// reports its full value (baseline 0).
  std::string ToJsonSince(const Snapshot& since) const EXCLUDES(mutex_);

  /// Prometheus text exposition (format 0.0.4). Dotted names are
  /// mangled to `fcae_<name with non-alphanumerics as '_'>`; counters
  /// and gauges are plain samples with a `# TYPE` header, histograms
  /// are exposed as summaries (quantile="0.5|0.9|0.99" plus _sum and
  /// _count series). See DESIGN.md §12.
  std::string ExportPrometheus() const EXCLUDES(mutex_);

 private:
  /// One export's values, each section sorted by name.
  struct Rows {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, int64_t>> gauges;
    std::vector<std::pair<std::string, Histogram>> histograms;
  };
  Rows Collect(const Snapshot& since) const EXCLUDES(mutex_);

  mutable Mutex mutex_;
  std::map<int, std::unique_ptr<CardInstruments>> cards_ GUARDED_BY(mutex_);
};

/// Escapes a string for embedding in a JSON string literal (quotes,
/// backslashes, control characters). Shared by metrics and trace
/// emitters.
std::string JsonEscape(const std::string& in);

}  // namespace obs
}  // namespace fcae

#endif  // FCAE_OBS_METRICS_H_
