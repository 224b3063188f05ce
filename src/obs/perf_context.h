#ifndef FCAE_OBS_PERF_CONTEXT_H_
#define FCAE_OBS_PERF_CONTEXT_H_

#include <cstdint>
#include <string>

namespace fcae {
namespace obs {

/// How much per-operation accounting the calling thread pays for.
/// kDisable reduces every tick site to a single thread-local load and
/// branch; kEnableCount adds counter increments; kEnableTime adds
/// clock reads around the timed sections (WAL appends and syncs, block
/// reads, write-stall passes), which is the only level that makes
/// *_micros fields nonzero.
enum class PerfLevel : unsigned char {
  kDisable = 0,
  kEnableCount = 1,
  kEnableTime = 2,
};

/// Per-operation counters for the calling thread. Reset() before an
/// operation, read the fields after; nothing here is shared between
/// threads, so no synchronisation is needed (or provided).
///
/// Field names are part of the observability contract: ToString()
/// prints them, and bench_micro and the tests read them by field.
struct PerfContext {
  // Read path.
  uint64_t bloom_filter_hits = 0;       // Filter said "maybe present".
  uint64_t bloom_filter_negatives = 0;  // Filter proved absence; no block read.
  uint64_t block_cache_hits = 0;
  uint64_t block_cache_misses = 0;
  uint64_t block_read_count = 0;  // Data blocks fetched from a table file.
  uint64_t block_read_bytes = 0;
  uint64_t block_read_micros = 0;
  uint64_t memtable_probes = 0;
  uint64_t immutable_memtable_probes = 0;
  uint64_t sst_probes = 0;  // Table files consulted by Version::Get.
  uint64_t table_cache_hits = 0;
  uint64_t table_cache_misses = 0;
  uint64_t internal_keys_skipped = 0;  // Hidden entries stepped over by DBIter.
  uint64_t merge_iterator_seeks = 0;

  // Write path.
  uint64_t wal_appends = 0;
  uint64_t wal_append_micros = 0;
  uint64_t wal_syncs = 0;
  uint64_t wal_sync_micros = 0;
  uint64_t write_delays = 0;  // MakeRoomForWrite slowdown passes.
  uint64_t write_delay_micros = 0;
  uint64_t write_stops = 0;  // Full stalls (memtable limit or L0 stop).
  uint64_t write_stop_micros = 0;

  void Reset();

  /// "name=value" pairs for every nonzero field, space-separated, in
  /// declaration order. Empty string when everything is zero.
  std::string ToString() const;
};

/// Per-thread file I/O accounting, ticked at the Env boundary users of
/// this layer care about (table block reads, WAL writes and syncs).
struct IOStatsContext {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_micros = 0;
  uint64_t write_micros = 0;
  uint64_t sync_micros = 0;

  void Reset();
  std::string ToString() const;
};

namespace perf_internal {
// Exposed so the tick macros compile to a TLS load + branch with no
// function call; treat as private to this header. Defined inline here
// rather than declared extern: GCC 12's UBSan reports every load of an
// extern thread_local as a load of a null pointer.
inline thread_local PerfLevel tls_perf_level = PerfLevel::kDisable;
inline thread_local PerfContext tls_perf_context;
inline thread_local IOStatsContext tls_io_stats;
}  // namespace perf_internal

inline PerfLevel GetPerfLevel() { return perf_internal::tls_perf_level; }
void SetPerfLevel(PerfLevel level);

inline PerfContext* GetPerfContext() {
  return &perf_internal::tls_perf_context;
}
inline IOStatsContext* GetIOStats() { return &perf_internal::tls_io_stats; }

/// Monotonic clock for perf timing. Same source as trace timestamps;
/// display/attribution only, never fed back into the crash model.
uint64_t PerfNowMicros();

/// Clock read gated on kEnableTime: returns 0 (and skips the clock)
/// unless the calling thread is timing. For tick sites that bracket a
/// call they cannot wrap in a PerfTimer scope.
inline uint64_t PerfNowMicrosIfEnabled() {
  return GetPerfLevel() >= PerfLevel::kEnableTime ? PerfNowMicros() : 0;
}

/// RAII timer charging wall micros to a PerfContext/IOStatsContext
/// field. Reads the clock only when the thread's level is kEnableTime,
/// so a disabled or count-only thread pays one branch per scope.
class PerfTimer {
 public:
  explicit PerfTimer(uint64_t* field)
      : field_(GetPerfLevel() >= PerfLevel::kEnableTime ? field : nullptr),
        start_(field_ == nullptr ? 0 : PerfNowMicros()) {}

  PerfTimer(const PerfTimer&) = delete;
  PerfTimer& operator=(const PerfTimer&) = delete;

  ~PerfTimer() {
    if (field_ != nullptr) {
      *field_ += PerfNowMicros() - start_;
    }
  }

 private:
  uint64_t* field_;
  uint64_t start_;
};

}  // namespace obs
}  // namespace fcae

/// Tick-site macros. Each expands to one TLS load + branch when the
/// calling thread's perf level is kDisable.
#define FCAE_PERF_COUNT(field, amount)                                  \
  do {                                                                  \
    if (::fcae::obs::GetPerfLevel() >=                                  \
        ::fcae::obs::PerfLevel::kEnableCount) {                         \
      ::fcae::obs::GetPerfContext()->field +=                           \
          static_cast<uint64_t>(amount);                                \
    }                                                                   \
  } while (0)

/// Adds externally measured wall micros (e.g. a duration the caller
/// already computed for its own metrics) to a *_micros field.
#define FCAE_PERF_TIME(field, micros)                                   \
  do {                                                                  \
    if (::fcae::obs::GetPerfLevel() >=                                  \
        ::fcae::obs::PerfLevel::kEnableTime) {                          \
      ::fcae::obs::GetPerfContext()->field +=                           \
          static_cast<uint64_t>(micros);                                \
    }                                                                   \
  } while (0)

/// Scoped timer charging the enclosing block's wall time to `field`.
#define FCAE_PERF_TIMER_GUARD(var, field)                               \
  ::fcae::obs::PerfTimer var(&::fcae::obs::GetPerfContext()->field)

#define FCAE_IOSTATS_COUNT(field, amount)                               \
  do {                                                                  \
    if (::fcae::obs::GetPerfLevel() >=                                  \
        ::fcae::obs::PerfLevel::kEnableCount) {                         \
      ::fcae::obs::GetIOStats()->field += static_cast<uint64_t>(amount); \
    }                                                                   \
  } while (0)

#define FCAE_IOSTATS_TIMER_GUARD(var, field)                            \
  ::fcae::obs::PerfTimer var(&::fcae::obs::GetIOStats()->field)

#endif  // FCAE_OBS_PERF_CONTEXT_H_
