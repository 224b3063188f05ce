#ifndef FCAE_LSM_COMPACTION_SCHEDULER_H_
#define FCAE_LSM_COMPACTION_SCHEDULER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "lsm/dbformat.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace fcae {

class Env;
struct FileMetaData;

namespace obs {
class MetricsRegistry;
}

/// Bookkeeping for the DB's parallel background work (DESIGN.md §8):
/// a dedicated flush lane plus a pool of up to `max_workers` compaction
/// workers running concurrently on disjoint level pairs.
///
/// Job states: a compaction worker is *scheduled* from dispatch until it
/// returns; it is *running* while it owns a claimed level pair (between
/// BeginCompaction and EndCompaction). A claimed compaction at level L
/// occupies levels {L, L+1}; a flush installing above L0 reserves just
/// its target level. The busy-level bitmask is what keeps concurrent
/// jobs disjoint.
///
/// Like VersionSet, the scheduler is not internally synchronized: every
/// non-static method must be called with the DB mutex held (the mutex
/// the wake-up CondVar passed to the constructor is bound to). Dispatch
/// via Env::SchedulePool only enqueues, so it is safe under the mutex.
class CompactionScheduler {
 public:
  /// `wakeup` is the DB's background-work CondVar; UnlockManifest()
  /// signals it so manifest waiters recheck. `metrics` (borrowed,
  /// required) holds every count the scheduler publishes: its job
  /// counters and its state gauges. `env` may be null if Schedule* is
  /// never called.
  CompactionScheduler(Env* env, CondVar* wakeup, int max_workers,
                      obs::MetricsRegistry* metrics);

  CompactionScheduler(const CompactionScheduler&) = delete;
  CompactionScheduler& operator=(const CompactionScheduler&) = delete;

  int max_workers() const { return max_workers_; }

  // --- Flush lane (one dedicated thread) ---

  bool flush_scheduled() const { return flush_scheduled_; }

  /// Marks the flush slot taken and enqueues fn(arg) on the flush pool.
  void ScheduleFlush(void (*fn)(void*), void* arg);

  /// Called by the flush worker when it returns.
  void FlushFinished();

  // --- Scrub lane (one dedicated low-priority thread) ---

  bool scrub_scheduled() const { return scrub_scheduled_; }

  /// Marks the scrub slot taken and enqueues fn(arg) on the scrub pool.
  /// The integrity scrubber (DESIGN.md §14) runs here: one thread, and
  /// its I/O rides the RateLimiter's low lane, so scrubbing never
  /// competes with flushes or compactions for more than leftover
  /// bandwidth.
  void ScheduleScrub(void (*fn)(void*), void* arg);

  /// Called by the scrub worker when it returns.
  void ScrubFinished();

  // --- Compaction worker pool ---

  /// True if another worker may be dispatched (scheduled < max).
  bool CanScheduleCompaction() const {
    return scheduled_workers_ < max_workers_;
  }

  /// Takes a worker slot and enqueues fn(arg) on the compaction pool.
  void ScheduleCompaction(void (*fn)(void*), void* arg);

  /// Called by a compaction worker when it returns (whether or not it
  /// found work).
  void WorkerFinished();

  /// Workers dispatched but not yet holding a level claim. Used to
  /// decide how many more workers to dispatch for pending work.
  int idle_scheduled_workers() const {
    return scheduled_workers_ - running_compactions_;
  }

  int scheduled_workers() const { return scheduled_workers_; }
  int running_compactions() const { return running_compactions_; }

  // --- Level claims (disjointness) ---

  uint32_t busy_levels() const { return busy_levels_; }

  /// True iff a compaction merging level -> level+1 may start now.
  bool LevelsFree(int level) const {
    return (busy_levels_ & LevelPairMask(level)) == 0;
  }

  /// Claims {level, level+1} for a compaction. Requires LevelsFree().
  void BeginCompaction(int level);
  void EndCompaction(int level);

  /// True iff a memtable flush may target `level` (> 0) without landing
  /// inside an in-flight compaction's level pair.
  bool FlushLevelFree(int level) const {
    return (busy_levels_ & (1u << level)) == 0;
  }

  /// Reserves `level` (> 0) for a flush install; released after the
  /// version edit lands.
  void ReserveFlushLevel(int level);
  void ReleaseFlushLevel(int level);

  /// True iff no in-flight job occupies `level` itself (a compaction at
  /// level-1 or level, a flush targeting level, or another repair). A
  /// corruption repair replaces one file within `level`, so a
  /// single-level claim is enough to keep its install edit from racing
  /// a job that adds or removes files there (DESIGN.md §14).
  bool RepairLevelFree(int level) const {
    return (busy_levels_ & (1u << level)) == 0;
  }

  /// Claims `level` for a repair install; requires RepairLevelFree().
  void BeginRepair(int level);
  void EndRepair(int level);

  // --- Manifest serialization ---

  /// VersionSet::LogAndApply drops the DB mutex during the MANIFEST
  /// write, so concurrent calls would interleave records. Every caller
  /// brackets LogAndApply with Lock/UnlockManifest; LockManifest waits
  /// on the wake-up CondVar while another job holds the manifest.
  void LockManifest();
  void UnlockManifest();

  // --- Shutdown / introspection ---

  /// True while any dispatched background work (flush, compaction
  /// worker, or scrub pass) has not finished; ~DBImpl drains on this.
  bool HasBackgroundWork() const {
    return flush_scheduled_ || scrub_scheduled_ || scheduled_workers_ > 0;
  }

  /// Accounting for a job split into `shards` sub-compactions.
  void RecordShardedJob(int shards);

  /// One line for DB::GetProperty("fcae.scheduler"): the live state,
  /// then the registry's job counters (with a registry shared by
  /// several DBs, their totals).
  std::string DebugString() const;

  /// Plans user-key shard boundaries for splitting a compaction whose
  /// level+1 inputs are `parents` into at most `max_shards` key-disjoint
  /// sub-compactions. Boundaries are drawn from the largest user keys
  /// of the level+1 input files (so each shard reads a contiguous file
  /// run); shard i covers user keys (boundary[i-1], boundary[i]], with
  /// the first/last shard unbounded below/above. Returns an empty
  /// vector (no sharding) when the job is too small to split. Pure
  /// function; needs no lock.
  static std::vector<std::string> PlanShardBoundaries(
      const std::vector<FileMetaData*>& parents,
      const InternalKeyComparator& icmp, int max_shards);

 private:
  Env* const env_;
  CondVar* const wakeup_;
  const int max_workers_;

  // All mutable state below is guarded by the DB mutex (see class
  // comment); annotations cannot name a caller-owned lock.
  bool flush_scheduled_ = false;
  bool scrub_scheduled_ = false;
  int scheduled_workers_ = 0;
  int running_compactions_ = 0;
  uint32_t busy_levels_ = 0;
  bool manifest_busy_ = false;

  obs::MetricsRegistry* const metrics_;

  void UpdateGauges();
};

}  // namespace fcae

#endif  // FCAE_LSM_COMPACTION_SCHEDULER_H_
