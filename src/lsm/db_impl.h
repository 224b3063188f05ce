#ifndef FCAE_LSM_DB_IMPL_H_
#define FCAE_LSM_DB_IMPL_H_

#include <atomic>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "lsm/compaction_executor.h"
#include "lsm/compaction_scheduler.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/log_writer.h"
#include "lsm/snapshot.h"
#include "obs/event_listener.h"
#include "obs/metrics.h"
#include "obs/stats_dumper.h"
#include "obs/trace.h"
#include "util/env.h"
#include "util/mutex.h"
#include "util/rate_limiter.h"
#include "util/thread_annotations.h"
#include "util/write_controller.h"

namespace fcae {

class MemTable;
class TableCache;
class Version;
class VersionEdit;
class VersionSet;

class DBImpl : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  ~DBImpl() override;

  // Implementations of the DB interface.
  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void GetApproximateSizes(const Range* range, int n, uint64_t* sizes) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  Status Resume() override;
  Status ScrubNow() override;

  // Extra methods (for testing and benchmarking).

  /// Compacts any files in the named level that overlap [*begin,*end].
  void TEST_CompactRange(int level, const Slice* begin, const Slice* end);

  /// Forces current memtable contents to be flushed.
  Status TEST_CompactMemTable();

  /// Runs one obsolete-file collection pass (crash-recovery tests use
  /// this to check that nothing unreferenced lingers once version pins
  /// from background work have drained).
  void TEST_RemoveObsoleteFiles();

  /// Returns an internal iterator over the current state of the
  /// database.
  Iterator* TEST_NewInternalIterator();

  /// Directly quarantines / unquarantines a table file, bypassing
  /// detection. Containment-window tests use this to pin a file in the
  /// quarantined state (no repair runs) and observe read routing.
  void TEST_QuarantineFile(uint64_t number);
  void TEST_UnquarantineFile(uint64_t number);

  /// Samples a key read at `key` (an internal key); may schedule a
  /// seek-triggered compaction.
  void RecordReadSample(Slice key);

  /// Aggregate offload statistics (device path).
  CompactionExecStats OffloadStats();

  /// Compactions the primary (device) executor failed and the CPU
  /// executor completed instead (graceful degradation): the registry's
  /// db_compaction_fallbacks.
  int64_t FallbackCompactions();

 private:
  friend class DB;
  struct Writer;

  Iterator* NewInternalIterator(const ReadOptions&,
                                SequenceNumber* latest_snapshot,
                                uint32_t* seed);

  Status NewDB();

  /// Recovers the descriptor from persistent storage. May do a
  /// significant amount of work to recover recently logged updates.
  Status Recover(VersionEdit* edit, bool* save_manifest) REQUIRES(mutex_);

  void MaybeIgnoreError(Status* s) const;

  /// Deletes any unneeded files and stale in-memory entries.
  void RemoveObsoleteFiles() REQUIRES(mutex_);

  /// Compacts the in-memory write buffer to disk; switches to a new
  /// log-file/memtable and writes a new descriptor iff successful.
  void CompactMemTable() REQUIRES(mutex_);

  Status RecoverLogFile(uint64_t log_number, bool last_log,
                        bool* save_manifest, VersionEdit* edit,
                        SequenceNumber* max_sequence) REQUIRES(mutex_);

  /// Builds an SSTable from `mem` and records it in *edit. When
  /// `pending_file`/`reserved_level` are non-null (the live flush path)
  /// the new file number stays in pending_outputs_ and the target level
  /// stays reserved in the scheduler until the caller installs the edit
  /// and clears both — otherwise a concurrent worker could delete the
  /// not-yet-live table or install an overlapping file into the level.
  /// Null pointers (recovery path, no background threads) restore the
  /// classic immediate-release behaviour.
  /// When `flush_info` is non-null it is filled with the built table's
  /// number, size, and build duration for the OnFlushCompleted event.
  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit, Version* base,
                          uint64_t* pending_file, int* reserved_level,
                          obs::FlushJobInfo* flush_info = nullptr)
      REQUIRES(mutex_);

  Status MakeRoomForWrite(bool force /* compact even if there is room? */)
      REQUIRES(mutex_);
  WriteBatch* BuildBatchGroup(Writer** last_writer) REQUIRES(mutex_);

  /// Samples the compaction-debt signals the WriteController prices:
  /// L0 file count, pending compaction bytes, and the live+immutable
  /// memtable footprint (DESIGN.md §10).
  WriteStallConditions SampleWriteStallConditions() REQUIRES(mutex_);

  /// Bridges the shared RateLimiter's monotonic statistics into the
  /// `ratelimiter.*` obs counters (delta-based, so external limiters
  /// shared across DBs still export sane per-registry values).
  void PumpRateLimiterMetrics() REQUIRES(mutex_);

  /// One periodic stats dump (the StatsDumper callback): renders
  /// GetProperty("fcae.stats") — cumulative plus interval — and emits
  /// it as a structured "fcae.stats" record through options_.info_log.
  void DumpStats(uint64_t seq) EXCLUDES(mutex_);

  // Listener notification helpers. Each snapshots its payload, drops
  // mutex_ for the callbacks (the listener contract forbids holding
  // the DB lock), and reacquires before returning. No-ops — without
  // touching the lock — when no listeners are registered. Callers must
  // tolerate the mutex release, i.e. re-validate any cached state.
  void NotifyFlushEvent(bool begin, const obs::FlushJobInfo& info)
      REQUIRES(mutex_);
  void NotifyWriteStall(bool begin, obs::WriteStallCause cause,
                        uint64_t micros) REQUIRES(mutex_);
  void NotifyBackgroundErrorEvent(const Status& s, bool hard)
      REQUIRES(mutex_);
  void NotifyResumeEvent() REQUIRES(mutex_);

  // Background-error state machine (DESIGN.md §9): OK -> SoftError
  // (retryable I/O; auto-resume with bounded backoff, or DB::Resume())
  // -> HardError (corruption-class; sticky until reopen). A soft error
  // may escalate to hard; never the reverse.
  enum class BgErrorSeverity { kNone, kSoft, kHard };
  static BgErrorSeverity ClassifyBackgroundError(const Status& s);

  /// Records `s` as the background error unless it is a transient
  /// device condition (Busy/DeviceLost) that the offload path's CPU
  /// fallback already owns — those must never wedge writers. Soft
  /// errors schedule an auto-resume attempt.
  void RecordBackgroundError(const Status& s) REQUIRES(mutex_);

  /// Queues one auto-resume attempt on the "fcae-resume" pool if the
  /// current error is soft and the attempt budget is not exhausted.
  void ScheduleAutoResume() REQUIRES(mutex_);
  static void BGResumeWork(void* db);
  void BackgroundResumeCall();

  /// One resume attempt: durably installs a fresh manifest (the failed
  /// descriptor's tail is not trusted), rotates the WAL when safe,
  /// clears the soft error, reclaims orphaned outputs, and restarts
  /// background work. On failure the soft error stays set.
  Status ResumeLocked() REQUIRES(mutex_);

  void MaybeScheduleCompaction() REQUIRES(mutex_);
  static void BGFlushWork(void* db);
  static void BGCompactionWork(void* db);
  static void BGScrubWork(void* db);
  void BackgroundFlushCall();
  void BackgroundCompactionCall();
  void BackgroundScrubCall();
  void BackgroundCompaction() REQUIRES(mutex_);

  // --- Integrity scrubbing and corruption containment (DESIGN.md §14).

  /// One full scrub cycle: repairs any leftover quarantined files, then
  /// verifies every live table (whole-file checksum vs the manifest,
  /// block CRCs, key order, bounds), quarantining and repairing
  /// failures as it finds them. Drops mutex_ around all file I/O; the
  /// scrub_cycle_active_ flag keeps cycles from interleaving. Returns
  /// the first environmental (non-corruption) error, or OK — corruption
  /// found and healed is still OK.
  Status RunScrubCycle() REQUIRES(mutex_);

  /// True iff `number` is a table in the current version.
  bool TableIsLive(uint64_t number) REQUIRES(mutex_);

  /// Adds `number` to (or removes it from) the quarantine set; the one
  /// site that updates the quarantined-files gauge.
  void SetQuarantined(uint64_t number, bool quarantined) REQUIRES(mutex_);

  /// Contains a detected-corrupt table: quarantines it (reads route
  /// around it from here on), evicts its cached handle, and emits the
  /// corruption/quarantine events and metrics. `source` names the
  /// detector ("scrub", "compaction"). Returns true iff the file was
  /// live and newly quarantined — the caller then owes it a
  /// RepairQuarantinedFile call. Drops mutex_ for listener callbacks.
  bool HandleCorruptTable(uint64_t number, const char* source,
                          const Status& s) REQUIRES(mutex_);

  /// Repairs one quarantined table: claims its level, salvages the
  /// clean blocks into a fresh table (dropping the damaged ones),
  /// installs the swap in one version edit, and lifts the quarantine.
  /// On salvage failure the file stays quarantined for a later cycle;
  /// the DB keeps running either way. Drops mutex_ during salvage I/O.
  void RepairQuarantinedFile(uint64_t number) REQUIRES(mutex_);

  /// Corruption containment for a failed compaction: re-verifies every
  /// input file, quarantines the damaged ones (appending them to
  /// *to_repair for the caller to repair once the compaction's level
  /// claim is released), and only falls back to a sticky background
  /// error when no input actually fails verification.
  void ContainCompactionCorruption(Compaction* c, const Status& s,
                                   std::vector<uint64_t>* to_repair)
      REQUIRES(mutex_);

  /// Serialized VersionSet::LogAndApply: brackets the call with the
  /// scheduler's manifest lock so concurrent jobs cannot interleave
  /// MANIFEST records while the mutex is dropped for the file write.
  Status LogAndApplyLocked(VersionEdit* edit) REQUIRES(mutex_);

  /// Runs one table-merging compaction through the configured executor
  /// (device if eligible, CPU fallback otherwise), sharding large
  /// L0->L1 jobs into key-disjoint sub-compactions when enabled, and
  /// installs all results atomically in one version edit.
  Status DoCompactionWork(Compaction* c) REQUIRES(mutex_);

  struct CompactionShard;

  /// Thread trampoline for parallel shards: runs one shard and signals
  /// the driving job's latch.
  static void ShardThreadMain(void* arg);

  /// Executes one shard without the mutex: runs its executor, and on a
  /// device failure scrubs the shard's partial outputs and reruns it on
  /// the CPU executor.
  void RunCompactionShard(CompactionShard* shard) EXCLUDES(mutex_);

  Status InstallCompactionResults(Compaction* c,
                                  const std::vector<CompactionOutput>& outputs)
      REQUIRES(mutex_);

  const Comparator* user_comparator() const {
    return internal_comparator_.user_comparator();
  }

  // Constant after construction.
  Env* const env_;
  const InternalKeyComparator internal_comparator_;
  const InternalFilterPolicy internal_filter_policy_;
  const Options options_;  // options_.comparator == &internal_comparator_
  const std::string dbname_;

  // table_cache_ provides its own synchronization.
  std::unique_ptr<TableCache> table_cache_;

  // Executors: `executor_` is the configured primary (may be an FPGA
  // offload engine); `cpu_executor_` is the always-available fallback.
  std::unique_ptr<CompactionExecutor> owned_cpu_executor_;
  CompactionExecutor* primary_executor_;  // Borrowed from options, or CPU.

  // Observability (obs/): metrics_ is options_.metrics_registry when the
  // caller supplied a shared registry, else owned_metrics_. trace_ is
  // always DB-owned (a bounded ring readable via "fcae.trace") and
  // counts its evictions into metrics_; options_.trace_sink, when set,
  // additionally sees each event live.
  // Both are internally synchronized (leaf locks under mutex_).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* const metrics_;
  obs::TraceRecorder trace_;
  // Fan-out for Options::listeners; immutable after construction, so
  // safe to notify from any thread without a lock. All notifications
  // are issued with mutex_ released (see the Notify* helpers).
  const obs::EventNotifier notifier_;
  // Continuous stats export (Options::stats_dump_period_sec). Started
  // by DB::Open after recovery, stopped at the top of the destructor
  // before background work drains.
  std::unique_ptr<obs::StatsDumper> stats_dumper_;
  // Logical chrome://tracing track per compaction so concurrent or
  // interleaved compactions do not share a row. Track 0 is reserved for
  // the scheduler (pick) and memtable flushes.
  std::atomic<uint64_t> next_trace_tid_{1};

  // Lock over the database directory (released in the destructor).
  FileLock* db_lock_ = nullptr;

  // State below is protected by mutex_. Members without a GUARDED_BY
  // are the deliberate exceptions, each protected by a documented
  // protocol instead of the lock itself:
  //  - mem_ is written into without the mutex by the writer at the
  //    front of writers_ (the front-writer role is the exclusion);
  //  - logfile_/log_ are appended to under the same front-writer role;
  //  - shutting_down_/has_imm_ are atomics read by unlocked fast paths.
  Mutex mutex_;
  std::atomic<bool> shutting_down_;
  CondVar background_work_finished_signal_;
  MemTable* mem_;
  MemTable* imm_ GUARDED_BY(mutex_);  // Memtable being compacted.
  std::atomic<bool> has_imm_;         // So bg thread can detect non-null imm_.
  WritableFile* logfile_;
  uint64_t logfile_number_ GUARDED_BY(mutex_);
  log::Writer* log_;
  uint32_t seed_ GUARDED_BY(mutex_);  // For sampling.

  // Queue of writers.
  std::deque<Writer*> writers_ GUARDED_BY(mutex_);
  WriteBatch* tmp_batch_ GUARDED_BY(mutex_);

  SnapshotList snapshots_ GUARDED_BY(mutex_);

  // Set of table files to protect from deletion because they are part
  // of ongoing compactions.
  std::set<uint64_t> pending_outputs_ GUARDED_BY(mutex_);

  // Parallel background-work bookkeeping: flush lane, worker slots,
  // busy-level claims, manifest serialization (DESIGN.md §8). The
  // scheduler itself follows the VersionSet discipline: every call is
  // made with mutex_ held.
  std::unique_ptr<CompactionScheduler> scheduler_ GUARDED_BY(mutex_);

  // Information for a manual compaction.
  struct ManualCompaction {
    int level;
    bool done;
    bool in_progress;          // A worker has claimed this pass.
    const InternalKey* begin;  // null means beginning of key range
    const InternalKey* end;    // null means end of key range
    InternalKey tmp_storage;   // Used to keep track of compaction progress
  };
  ManualCompaction* manual_compaction_ GUARDED_BY(mutex_);

  VersionSet* const versions_ GUARDED_BY(mutex_);

  // Background-error state (see ClassifyBackgroundError): the error, its
  // severity, and auto-resume bookkeeping. resume_scheduled_ is also the
  // destructor's drain condition for the resume worker.
  // Integrity-scrub state (DESIGN.md §14): at most one cycle runs at a
  // time — scrub_cycle_active_ serializes the background scrub lane
  // against DB::ScrubNow() callers (both drop mutex_ mid-cycle).
  bool scrub_cycle_active_ GUARDED_BY(mutex_) = false;
  uint64_t last_scrub_micros_ GUARDED_BY(mutex_) = 0;

  Status bg_error_ GUARDED_BY(mutex_);
  BgErrorSeverity bg_error_severity_ GUARDED_BY(mutex_) = BgErrorSeverity::kNone;
  int resume_attempts_ GUARDED_BY(mutex_) = 0;
  bool resume_scheduled_ GUARDED_BY(mutex_) = false;

  // Per-level compaction stats.
  struct CompactionStats {
    CompactionStats() : micros(0), bytes_read(0), bytes_written(0) {}

    void Add(const CompactionStats& c) {
      this->micros += c.micros;
      this->bytes_read += c.bytes_read;
      this->bytes_written += c.bytes_written;
    }

    int64_t micros;
    int64_t bytes_read;
    int64_t bytes_written;
  };
  CompactionStats stats_[kNumLevels] GUARDED_BY(mutex_);

  // The sum of every compaction job's record. It keeps the device, PCIe
  // and verify times, which no instrument records; job counts by route
  // and device attempt counts are the registry's counters, published
  // from each job's record.
  CompactionExecStats exec_stats_ GUARDED_BY(mutex_);

  // Overload protection (DESIGN.md §10): the WriteController prices
  // compaction debt into per-write delays and stop states; the
  // RateLimiter in options_ (owned iff SanitizeOptions created it)
  // throttles background file writes underneath it.
  WriteController write_controller_ GUARDED_BY(mutex_);
  const bool owns_rate_limiter_;
  // High-water marks already exported into the ratelimiter.* counters
  // (the limiter keeps its own monotonic totals; see
  // PumpRateLimiterMetrics).
  uint64_t rl_exported_bytes_through_ GUARDED_BY(mutex_) = 0;
  uint64_t rl_exported_throttled_bytes_ GUARDED_BY(mutex_) = 0;
  uint64_t rl_exported_wait_micros_ GUARDED_BY(mutex_) = 0;
  uint64_t rl_exported_requests_ GUARDED_BY(mutex_) = 0;

  // Baseline for the interval section of GetProperty("fcae.stats"):
  // refreshed on every "stats" read, so each read reports activity
  // since the previous one (the windowed view the stats dumper emits).
  obs::MetricsRegistry::Snapshot stats_window_ GUARDED_BY(mutex_);
};

/// Sanitizes db options: clips user-supplied values to reasonable ranges
/// and fills in defaults.
Options SanitizeOptions(const std::string& db,
                        const InternalKeyComparator* icmp,
                        const InternalFilterPolicy* ipolicy,
                        const Options& src);

}  // namespace fcae

#endif  // FCAE_LSM_DB_IMPL_H_
