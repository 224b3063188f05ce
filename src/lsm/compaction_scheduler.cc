#include "lsm/compaction_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "lsm/version_set.h"
#include "obs/metrics.h"
#include "util/crash_env.h"
#include "util/env.h"

namespace fcae {

namespace {
const char* kFlushPool = "fcae-flush";
const char* kCompactPool = "fcae-compact";
const char* kScrubPool = "fcae-scrub";
}  // namespace

CompactionScheduler::CompactionScheduler(Env* env, CondVar* wakeup,
                                         int max_workers,
                                         obs::MetricsRegistry* metrics)
    : env_(env),
      wakeup_(wakeup),
      max_workers_(std::max(1, max_workers)),
      metrics_(metrics) {
  UpdateGauges();
}

void CompactionScheduler::ScheduleFlush(void (*fn)(void*), void* arg) {
  assert(!flush_scheduled_);
  flush_scheduled_ = true;
  metrics_->scheduler_flushes_started.Increment();
  UpdateGauges();
  env_->SchedulePool(kFlushPool, 1, fn, arg);
}

void CompactionScheduler::FlushFinished() {
  assert(flush_scheduled_);
  flush_scheduled_ = false;
  UpdateGauges();
}

void CompactionScheduler::ScheduleScrub(void (*fn)(void*), void* arg) {
  assert(!scrub_scheduled_);
  scrub_scheduled_ = true;
  metrics_->scheduler_scrubs_started.Increment();
  UpdateGauges();
  env_->SchedulePool(kScrubPool, 1, fn, arg);
}

void CompactionScheduler::ScrubFinished() {
  assert(scrub_scheduled_);
  scrub_scheduled_ = false;
  UpdateGauges();
}

void CompactionScheduler::ScheduleCompaction(void (*fn)(void*), void* arg) {
  assert(scheduled_workers_ < max_workers_);
  scheduled_workers_++;
  UpdateGauges();
  env_->SchedulePool(kCompactPool, max_workers_, fn, arg);
}

void CompactionScheduler::WorkerFinished() {
  assert(scheduled_workers_ > 0);
  scheduled_workers_--;
  UpdateGauges();
}

void CompactionScheduler::BeginCompaction(int level) {
  assert(LevelsFree(level));
  busy_levels_ |= LevelPairMask(level);
  running_compactions_++;
  metrics_->scheduler_compactions_started.Increment();
  UpdateGauges();
}

void CompactionScheduler::EndCompaction(int level) {
  assert((busy_levels_ & LevelPairMask(level)) == LevelPairMask(level));
  assert(running_compactions_ > 0);
  busy_levels_ &= ~LevelPairMask(level);
  running_compactions_--;
  UpdateGauges();
}

void CompactionScheduler::ReserveFlushLevel(int level) {
  assert(level > 0);
  assert(FlushLevelFree(level));
  busy_levels_ |= (1u << level);
  UpdateGauges();
}

void CompactionScheduler::ReleaseFlushLevel(int level) {
  assert(level > 0);
  assert((busy_levels_ & (1u << level)) != 0);
  busy_levels_ &= ~(1u << level);
  UpdateGauges();
}

void CompactionScheduler::BeginRepair(int level) {
  assert(RepairLevelFree(level));
  busy_levels_ |= (1u << level);
  UpdateGauges();
}

void CompactionScheduler::EndRepair(int level) {
  assert((busy_levels_ & (1u << level)) != 0);
  busy_levels_ &= ~(1u << level);
  UpdateGauges();
}

void CompactionScheduler::LockManifest() {
  while (manifest_busy_) {
    metrics_->scheduler_manifest_waits.Increment();
    wakeup_->Wait();
  }
  manifest_busy_ = true;
  // Holding the manifest lock means a version install is imminent; a
  // crash here must leave the previous manifest as the durable truth.
  FCAE_CRASH_POINT("scheduler:manifest_locked");
}

void CompactionScheduler::UnlockManifest() {
  assert(manifest_busy_);
  manifest_busy_ = false;
  wakeup_->SignalAll();
}

void CompactionScheduler::RecordShardedJob(int shards) {
  metrics_->scheduler_sharded_jobs.Increment();
  metrics_->scheduler_shards_run.Increment(static_cast<uint64_t>(shards));
}

void CompactionScheduler::UpdateGauges() {
  metrics_->scheduler_workers_scheduled.Set(scheduled_workers_);
  metrics_->scheduler_workers_running.Set(running_compactions_);
  metrics_->scheduler_busy_levels.Set(static_cast<int64_t>(busy_levels_));
  metrics_->scheduler_flush_scheduled.Set(flush_scheduled_ ? 1 : 0);
  metrics_->scheduler_scrub_scheduled.Set(scrub_scheduled_ ? 1 : 0);
}

std::string CompactionScheduler::DebugString() const {
  const auto count = [](const obs::Counter& c) {
    return static_cast<unsigned long long>(c.value());
  };
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "scheduler{workers=%d/%d running=%d busy-levels=0x%x flush=%d "
      "scrub=%d scrubs=%llu "
      "flushes=%llu compactions=%llu sharded-jobs=%llu shards=%llu "
      "manifest-waits=%llu}",
      scheduled_workers_, max_workers_, running_compactions_, busy_levels_,
      flush_scheduled_ ? 1 : 0, scrub_scheduled_ ? 1 : 0,
      count(metrics_->scheduler_scrubs_started),
      count(metrics_->scheduler_flushes_started),
      count(metrics_->scheduler_compactions_started),
      count(metrics_->scheduler_sharded_jobs),
      count(metrics_->scheduler_shards_run),
      count(metrics_->scheduler_manifest_waits));
  return std::string(buf);
}

std::vector<std::string> CompactionScheduler::PlanShardBoundaries(
    const std::vector<FileMetaData*>& parents,
    const InternalKeyComparator& icmp, int max_shards) {
  std::vector<std::string> boundaries;
  if (max_shards <= 1) return boundaries;
  // Boundaries come from the level+1 file grid: each candidate is the
  // largest user key of one file, so every shard reads a contiguous,
  // roughly equal run of level+1 files. Fewer than two files means
  // there is nothing to split.
  const int n = static_cast<int>(parents.size());
  if (n < 2) return boundaries;

  const int shards = std::min(max_shards, n);
  const Comparator* ucmp = icmp.user_comparator();
  for (int s = 1; s < shards; s++) {
    // Last file of shard s-1: evenly split the parent file run.
    const int file_index = (s * n) / shards - 1;
    Slice key = parents[file_index]->largest.user_key();
    // Boundaries must be strictly increasing; duplicates can appear
    // when many parents share a largest user key.
    if (!boundaries.empty() &&
        ucmp->Compare(key, Slice(boundaries.back())) <= 0) {
      continue;
    }
    boundaries.emplace_back(key.data(), key.size());
  }
  return boundaries;
}

}  // namespace fcae
