#ifndef FCAE_UTIL_OPTIONS_H_
#define FCAE_UTIL_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcae {

class Cache;
class Comparator;
class CompactionExecutor;
class Env;
class FilterPolicy;
class RateLimiter;

namespace obs {
class EventListener;
class Logger;
class MetricsRegistry;
class TraceSink;
}  // namespace obs

/// Block contents compression. Stored per block, so files mixing settings
/// remain readable.
enum CompressionType : uint8_t {
  kNoCompression = 0x0,
  kSnappyCompression = 0x1,
};

/// Options controlling database behaviour. Field defaults mirror LevelDB
/// and the paper's Table IV settings.
struct Options {
  Options();

  /// Comparator defining key order; must outlive the DB and stay
  /// consistent across opens. Default: bytewise.
  const Comparator* comparator;

  /// If true, Open() creates a missing database.
  bool create_if_missing = false;

  /// If true, Open() errors if the database already exists.
  bool error_if_exists = false;

  /// If true, the implementation aggressively checks invariants and
  /// fails early on internal corruption.
  bool paranoid_checks = false;

  /// Environment for file/thread access. Default: Env::Default().
  Env* env;

  /// Memtable size before a flush is triggered (bytes). LevelDB: 4 MB.
  size_t write_buffer_size = 4 * 1024 * 1024;

  /// Global memory budget across the live and the immutable memtable
  /// (bytes). When the pair's footprint reaches this while a flush is
  /// in flight, writers block until the flush installs — overload turns
  /// into backpressure instead of unbounded memory growth. 0 disables
  /// the budget (classic per-memtable behaviour); nonzero values are
  /// clipped to at least 2x write_buffer_size so one rotation always
  /// fits.
  size_t total_write_buffer_size = 0;

  /// Write-stall triggers for the WriteController (DESIGN.md §10):
  /// writes are smoothly delayed from `l0_slowdown_writes_trigger` L0
  /// files and stopped at `l0_stop_writes_trigger`. 0 means the engine
  /// default (8 / 12, the classic LevelDB triggers in lsm/dbformat.h).
  int l0_slowdown_writes_trigger = 0;
  int l0_stop_writes_trigger = 0;

  /// Caps background (flush + compaction) file-write bandwidth, in
  /// bytes per second, through a shared token bucket with two priority
  /// lanes — flushes high, compactions low — so a capped disk budget
  /// still never lets compactions starve the flush that writers wait
  /// on. 0 = unlimited. Ignored when `rate_limiter` is set.
  uint64_t rate_limit_bytes_per_sec = 0;

  /// Optional externally owned RateLimiter (util/rate_limiter.h) to
  /// share one background-I/O budget across several DBs. Borrowed, not
  /// owned; must outlive the DB. When nullptr and
  /// rate_limit_bytes_per_sec > 0, the DB creates and owns one.
  RateLimiter* rate_limiter = nullptr;

  /// Approximate uncompressed size of an SSTable data block. Table IV
  /// default: 4 KB (varied 2 KB..1 MB in Fig. 15c).
  size_t block_size = 4 * 1024;

  /// Number of keys between restart points in a block.
  int block_restart_interval = 16;

  /// Optional cache for uncompressed data blocks (NewLRUCache).
  /// Borrowed, not owned; nullptr means blocks are re-read and
  /// re-decompressed on every access (plus whatever the OS page cache
  /// does). LevelDB defaults to an 8 MB internal cache; pass your own
  /// to control memory.
  Cache* block_cache = nullptr;

  /// Target SSTable file size. Paper: 2 MB per SSTable.
  size_t max_file_size = 2 * 1024 * 1024;

  /// Size(Level i+1) / Size(Level i). Table IV default 10, range [4, 16].
  int leveling_ratio = 10;

  /// MANIFEST rollover threshold. When the descriptor log grows past
  /// this size, the next version edit is installed atomically into a
  /// fresh manifest (write-new, sync, switch CURRENT, sync dir, delete
  /// old) instead of appending forever. Clipped to a 4 KB floor so
  /// tests can force frequent rollovers; 0 disables rollover.
  size_t max_manifest_file_size = 64 * 1024 * 1024;

  /// Per-block compression. Default snappy, as in the paper.
  CompressionType compression = kSnappyCompression;

  /// Optional filter policy (e.g. NewBloomFilterPolicy) for reads;
  /// borrowed, not owned. Default: none, as in stock LevelDB.
  const FilterPolicy* filter_policy = nullptr;

  /// Max open SSTables cached by the table cache.
  int max_open_files = 1000;

  /// Compaction execution engine (paper Fig. 6): nullptr means the
  /// built-in single-threaded CPU merge. Point this at an
  /// FcaeCompactionExecutor (host/offload_compaction.h) to offload
  /// table-merging compactions to the simulated FPGA card. Borrowed,
  /// not owned; must outlive the DB.
  CompactionExecutor* compaction_executor = nullptr;

  /// Number of background compaction workers (DESIGN.md §8). Flushes
  /// always get their own dedicated thread; this bounds how many
  /// table-merging compactions on disjoint level pairs may run
  /// concurrently. 1 reproduces the classic LevelDB single-background-
  /// thread behaviour. Clipped to [1, 16].
  int compaction_threads = 2;

  /// Maximum key-range shards a single large L0->L1 compaction may be
  /// split into (RocksDB-style sub-compactions). Each shard merges an
  /// independent key range through the configured executor; all shard
  /// outputs are installed atomically in one VersionEdit. 1 disables
  /// sharding. Clipped to [1, 16].
  int max_subcompactions = 1;

  /// Number of offload cards behind `compaction_executor` (a
  /// host::FcaeCompactionExecutor over a DeviceSet). A scheduler knob
  /// only — the DB never creates devices: > 1 makes key-bounded
  /// sub-compaction shards device-eligible (the executor trims staged
  /// blocks to each shard's range) and raises the L0 shard target to at
  /// least this many shards so every card gets work. Must match the
  /// executor's DeviceSet card count. 1 reproduces the single-card
  /// behaviour (shards run on the CPU). Clipped to [1, 16].
  int num_offload_cards = 1;

  /// Optional shared metrics registry (obs/metrics.h). When set, the DB
  /// publishes its counters/histograms here so several components (DB,
  /// executor, benchmarks) can share one snapshot; when nullptr the DB
  /// owns a private registry. Either way the result is readable via
  /// DB::GetProperty("fcae.metrics"). Borrowed, not owned; must outlive
  /// the DB.
  obs::MetricsRegistry* metrics_registry = nullptr;

  /// Optional live trace consumer (obs/trace.h). Every span/instant the
  /// DB records (compactions, flushes, stalls, device retries) is also
  /// forwarded here as it happens, in addition to the in-memory ring
  /// readable via DB::GetProperty("fcae.trace"). Borrowed, not owned;
  /// must outlive the DB and be thread-safe.
  obs::TraceSink* trace_sink = nullptr;

  /// Capacity of the in-memory trace ring readable via
  /// DB::GetProperty("fcae.trace"). Span floods (many small
  /// compactions) evict older events once the ring is full; eviction
  /// is counted by MetricsRegistry::obs_trace_dropped_events. Clipped
  /// to at least 16.
  size_t trace_ring_size = 4096;

  /// Event callbacks (obs/event_listener.h) fired on flush, compaction,
  /// offload retry/fallback, write stall, and background-error
  /// transitions. Invoked from DB background/writer threads with no DB
  /// lock held; see the EventListener threading contract. Pointers are
  /// borrowed, not owned, and must outlive the DB; null entries are
  /// ignored.
  std::vector<obs::EventListener*> listeners;

  /// Seconds between continuous stats dumps (obs/stats_dumper.h). When
  /// nonzero, a background task periodically emits the
  /// GetProperty("fcae.stats") text — cumulative plus interval
  /// figures — as a structured "fcae.stats" record through `info_log`.
  /// 0 disables the dumper. Clipped to at most 86400.
  unsigned stats_dump_period_sec = 0;

  /// Structured log sink (obs/logger.h) for background records such as
  /// the periodic stats dump. Borrowed, not owned; must outlive the DB
  /// and be thread-safe. When nullptr, periodic dumps still tick
  /// MetricsRegistry::obs_stats_dump_count but emit nothing.
  obs::Logger* info_log = nullptr;

  /// Seconds between background integrity-scrub cycles (DESIGN.md §14).
  /// Each cycle walks every live table on the scrub lane — whole-file
  /// checksum vs the manifest, per-block CRCs, key order, and manifest
  /// bounds — quarantining and repairing anything that fails. Scrub
  /// reads ride the RateLimiter's low-priority lane, so a capped disk
  /// budget gives scrubbing only leftover bandwidth. 0 disables the
  /// periodic scrubber (DB::ScrubNow() still works). Clipped to at
  /// least 60 when nonzero.
  unsigned scrub_interval_seconds = 3600;
};

/// Options controlling read operations.
struct ReadOptions {
  /// Verify block checksums on every read.
  bool verify_checksums = false;

  /// If true, blocks read are not retained in internal caches.
  bool fill_cache = true;

  /// Opaque snapshot sequence number; 0 means "latest state".
  uint64_t snapshot_sequence = 0;
};

/// Options controlling write operations.
struct WriteOptions {
  /// If true, the write is flushed to stable storage (fsync'd WAL)
  /// before returning.
  bool sync = false;
};

}  // namespace fcae

#endif  // FCAE_UTIL_OPTIONS_H_
