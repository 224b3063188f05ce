// Unit tests for the parallel compaction scheduler's bookkeeping:
// shard-boundary planning, level-claim disjointness, worker-cap
// enforcement, manifest serialization, and shutdown drain. The
// scheduler expects the DB mutex held around every call; these tests
// are single-threaded (or hold the mutex explicitly), which satisfies
// the same protocol.

#include "lsm/compaction_scheduler.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "lsm/dbformat.h"
#include "lsm/version_edit.h"
#include "obs/metrics.h"
#include "util/comparator.h"
#include "util/env.h"
#include "util/mutex.h"

namespace fcae {

namespace {

/// Records pool dispatches instead of running them, so scheduled-worker
/// accounting can be asserted deterministically with no real threads.
class RecordingEnv : public Env {
 public:
  struct Dispatch {
    std::string pool;
    int max_threads;
  };
  std::vector<Dispatch> dispatches;

  Status NewSequentialFile(const std::string& fname,
                           SequentialFile** result) override {
    return Status::NotSupported(fname);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             RandomAccessFile** result) override {
    return Status::NotSupported(fname);
  }
  Status NewWritableFile(const std::string& fname,
                         WritableFile** result) override {
    return Status::NotSupported(fname);
  }
  Status NewAppendableFile(const std::string& fname,
                           WritableFile** result) override {
    return Status::NotSupported(fname);
  }
  bool FileExists(const std::string& fname) override { return false; }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return Status::NotSupported(dir);
  }
  Status RemoveFile(const std::string& fname) override {
    return Status::NotSupported(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return Status::NotSupported(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return Status::NotSupported(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return Status::NotSupported(fname);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return Status::NotSupported(src);
  }
  Status LockFile(const std::string& fname, FileLock** lock) override {
    return Status::NotSupported(fname);
  }
  Status UnlockFile(FileLock* lock) override {
    return Status::NotSupported("unlock");
  }
  void Schedule(void (*function)(void*), void* arg) override {
    SchedulePool("default", 1, function, arg);
  }
  void SchedulePool(const char* pool, int max_threads, void (*function)(void*),
                    void* arg) override {
    dispatches.push_back({pool, max_threads});
  }
  void StartThread(void (*function)(void*), void* arg) override {}
  uint64_t NowMicros() override { return 0; }
  void SleepForMicroseconds(int micros) override {}
};

void NoopWork(void*) {}

FileMetaData MakeFile(uint64_t number, const std::string& smallest,
                      const std::string& largest) {
  FileMetaData f;
  f.number = number;
  f.file_size = 1 << 20;
  f.smallest = InternalKey(smallest, 100, kTypeValue);
  f.largest = InternalKey(largest, 100, kTypeValue);
  return f;
}

std::vector<FileMetaData*> Pointers(std::vector<FileMetaData>& files) {
  std::vector<FileMetaData*> out;
  for (FileMetaData& f : files) out.push_back(&f);
  return out;
}

}  // namespace

class CompactionSchedulerTest : public testing::Test {
 protected:
  CompactionSchedulerTest() : cv_(&mu_), icmp_(BytewiseComparator()) {}

  RecordingEnv env_;
  Mutex mu_;
  CondVar cv_;
  InternalKeyComparator icmp_;
  obs::MetricsRegistry metrics_;
};

TEST_F(CompactionSchedulerTest, PlanShardBoundariesSplitsParentRun) {
  // Four parent files split across the file grid: boundaries are the
  // largest user keys of the last file in each shard's run.
  std::vector<FileMetaData> files = {MakeFile(1, "a", "b"), MakeFile(2, "c", "d"),
                                     MakeFile(3, "e", "f"),
                                     MakeFile(4, "g", "h")};
  std::vector<FileMetaData*> parents = Pointers(files);

  std::vector<std::string> two =
      CompactionScheduler::PlanShardBoundaries(parents, icmp_, 2);
  ASSERT_EQ(two.size(), 1u);
  EXPECT_EQ(two[0], "d");

  std::vector<std::string> four =
      CompactionScheduler::PlanShardBoundaries(parents, icmp_, 4);
  ASSERT_EQ(four.size(), 3u);
  EXPECT_EQ(four[0], "b");
  EXPECT_EQ(four[1], "d");
  EXPECT_EQ(four[2], "f");
}

TEST_F(CompactionSchedulerTest, PlanShardBoundariesTooSmallToSplit) {
  std::vector<FileMetaData> one = {MakeFile(1, "a", "m")};
  std::vector<FileMetaData*> parents = Pointers(one);
  EXPECT_TRUE(CompactionScheduler::PlanShardBoundaries(parents, icmp_, 4).empty());

  std::vector<FileMetaData*> none;
  EXPECT_TRUE(CompactionScheduler::PlanShardBoundaries(none, icmp_, 4).empty());

  // max_shards <= 1 disables sharding regardless of input size.
  std::vector<FileMetaData> many = {MakeFile(1, "a", "b"), MakeFile(2, "c", "d"),
                                    MakeFile(3, "e", "f")};
  std::vector<FileMetaData*> parents3 = Pointers(many);
  EXPECT_TRUE(CompactionScheduler::PlanShardBoundaries(parents3, icmp_, 1).empty());
}

TEST_F(CompactionSchedulerTest, PlanShardBoundariesClampedByFileCount) {
  // Two files can produce at most two shards (one boundary), no matter
  // how many sub-compactions the options ask for.
  std::vector<FileMetaData> files = {MakeFile(1, "a", "f"),
                                     MakeFile(2, "g", "p")};
  std::vector<FileMetaData*> parents = Pointers(files);
  std::vector<std::string> b =
      CompactionScheduler::PlanShardBoundaries(parents, icmp_, 8);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], "f");
}

TEST_F(CompactionSchedulerTest, PlanShardBoundariesDedupsEqualUserKeys) {
  // Many parents ending at the same user key must not produce equal
  // boundaries: shards cover (lower, upper] user-key ranges, so a
  // repeated boundary would make an empty shard.
  std::vector<FileMetaData> files = {MakeFile(1, "a", "c"), MakeFile(2, "c", "c"),
                                     MakeFile(3, "c", "c"),
                                     MakeFile(4, "d", "z")};
  std::vector<FileMetaData*> parents = Pointers(files);
  std::vector<std::string> b =
      CompactionScheduler::PlanShardBoundaries(parents, icmp_, 4);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b[0], "c");
}

TEST_F(CompactionSchedulerTest, LevelClaimsAreDisjoint) {
  CompactionScheduler s(&env_, &cv_, 4, &metrics_);

  EXPECT_TRUE(s.LevelsFree(0));
  s.BeginCompaction(0);  // Claims {0, 1}.
  EXPECT_FALSE(s.LevelsFree(0));
  EXPECT_FALSE(s.LevelsFree(1));  // Would touch level 1.
  EXPECT_TRUE(s.LevelsFree(2));
  EXPECT_EQ(s.running_compactions(), 1);

  s.BeginCompaction(2);  // Claims {2, 3}; disjoint from {0, 1}.
  EXPECT_FALSE(s.LevelsFree(2));
  EXPECT_FALSE(s.LevelsFree(3));
  EXPECT_TRUE(s.LevelsFree(4));
  EXPECT_EQ(s.running_compactions(), 2);

  // A flush may not install into a level inside a claimed pair.
  EXPECT_FALSE(s.FlushLevelFree(1));
  EXPECT_FALSE(s.FlushLevelFree(3));
  EXPECT_TRUE(s.FlushLevelFree(4));
  s.ReserveFlushLevel(4);
  EXPECT_FALSE(s.FlushLevelFree(4));
  EXPECT_FALSE(s.LevelsFree(4));  // Compaction 4->5 would hit the flush.
  EXPECT_FALSE(s.LevelsFree(3));

  s.EndCompaction(0);
  EXPECT_TRUE(s.LevelsFree(0));
  EXPECT_EQ(s.running_compactions(), 1);
  s.EndCompaction(2);
  s.ReleaseFlushLevel(4);
  EXPECT_EQ(s.busy_levels(), 0u);
  EXPECT_EQ(s.running_compactions(), 0);
}

TEST_F(CompactionSchedulerTest, WorkerCapEnforced) {
  CompactionScheduler s(&env_, &cv_, 2, &metrics_);
  EXPECT_EQ(s.max_workers(), 2);

  EXPECT_TRUE(s.CanScheduleCompaction());
  s.ScheduleCompaction(&NoopWork, nullptr);
  EXPECT_TRUE(s.CanScheduleCompaction());
  s.ScheduleCompaction(&NoopWork, nullptr);
  EXPECT_FALSE(s.CanScheduleCompaction());
  EXPECT_EQ(s.scheduled_workers(), 2);
  EXPECT_EQ(s.idle_scheduled_workers(), 2);

  // Dispatches land on the named compaction pool sized to the cap.
  ASSERT_EQ(env_.dispatches.size(), 2u);
  EXPECT_EQ(env_.dispatches[0].pool, "fcae-compact");
  EXPECT_EQ(env_.dispatches[0].max_threads, 2);

  // A worker that claims a level pair is no longer idle; dispatch logic
  // uses idle_scheduled_workers() to avoid over-scheduling.
  s.BeginCompaction(0);
  EXPECT_EQ(s.idle_scheduled_workers(), 1);
  s.EndCompaction(0);

  s.WorkerFinished();
  EXPECT_TRUE(s.CanScheduleCompaction());
  s.WorkerFinished();
  EXPECT_EQ(s.scheduled_workers(), 0);
}

TEST_F(CompactionSchedulerTest, FlushLaneIsSeparateFromWorkers) {
  CompactionScheduler s(&env_, &cv_, 1, &metrics_);
  EXPECT_FALSE(s.flush_scheduled());
  s.ScheduleFlush(&NoopWork, nullptr);
  EXPECT_TRUE(s.flush_scheduled());
  // The flush does not consume a compaction worker slot.
  EXPECT_TRUE(s.CanScheduleCompaction());
  ASSERT_EQ(env_.dispatches.size(), 1u);
  EXPECT_EQ(env_.dispatches[0].pool, "fcae-flush");
  EXPECT_EQ(env_.dispatches[0].max_threads, 1);
  s.FlushFinished();
  EXPECT_FALSE(s.flush_scheduled());
}

TEST_F(CompactionSchedulerTest, ShutdownDrainTracksAllLanes) {
  CompactionScheduler s(&env_, &cv_, 2, &metrics_);
  EXPECT_FALSE(s.HasBackgroundWork());

  s.ScheduleFlush(&NoopWork, nullptr);
  EXPECT_TRUE(s.HasBackgroundWork());
  s.ScheduleCompaction(&NoopWork, nullptr);
  EXPECT_TRUE(s.HasBackgroundWork());

  s.FlushFinished();
  EXPECT_TRUE(s.HasBackgroundWork());  // Worker still out.
  s.WorkerFinished();
  EXPECT_FALSE(s.HasBackgroundWork());
}

TEST_F(CompactionSchedulerTest, ManifestLockSerializesWriters) {
  CompactionScheduler s(&env_, &cv_, 2, &metrics_);

  mu_.Lock();
  s.LockManifest();
  mu_.Unlock();

  std::atomic<bool> second_entered{false};
  std::thread contender([&]() {
    mu_.Lock();
    s.LockManifest();  // Blocks until the holder unlocks.
    second_entered.store(true);
    s.UnlockManifest();
    mu_.Unlock();
  });

  // The contender must be parked, not inside the critical section.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_entered.load());

  mu_.Lock();
  s.UnlockManifest();  // SignalAll wakes the contender.
  mu_.Unlock();
  contender.join();
  EXPECT_TRUE(second_entered.load());
}

TEST_F(CompactionSchedulerTest, DebugStringReportsCounts) {
  CompactionScheduler s(&env_, &cv_, 3, &metrics_);
  s.ScheduleCompaction(&NoopWork, nullptr);
  s.BeginCompaction(1);
  s.RecordShardedJob(4);
  std::string d = s.DebugString();
  EXPECT_NE(d.find("workers=1/3"), std::string::npos) << d;
  EXPECT_NE(d.find("running=1"), std::string::npos) << d;
  EXPECT_NE(d.find("compactions=1"), std::string::npos) << d;
  EXPECT_NE(d.find("sharded-jobs=1"), std::string::npos) << d;
  EXPECT_NE(d.find("shards=4"), std::string::npos) << d;
  s.EndCompaction(1);
  s.WorkerFinished();
}

// The job counts live in the registry alone, so a second scheduler on
// the same registry (a second DB) adds to them, and each scheduler's
// line prints the registry's totals beside its own live state.
TEST_F(CompactionSchedulerTest, CountsAreTheRegistrys) {
  CompactionScheduler a(&env_, &cv_, 2, &metrics_);
  CompactionScheduler b(&env_, &cv_, 2, &metrics_);
  a.ScheduleFlush(&NoopWork, nullptr);
  b.ScheduleFlush(&NoopWork, nullptr);
  a.BeginCompaction(0);
  b.BeginCompaction(2);
  b.RecordShardedJob(3);
  EXPECT_EQ(2u, metrics_.scheduler_flushes_started.value());
  EXPECT_EQ(2u, metrics_.scheduler_compactions_started.value());
  EXPECT_EQ(1u, metrics_.scheduler_sharded_jobs.value());
  EXPECT_EQ(3u, metrics_.scheduler_shards_run.value());
  for (const CompactionScheduler* s : {&a, &b}) {
    const std::string d = s->DebugString();
    EXPECT_NE(d.find("flushes=2 compactions=2 sharded-jobs=1 shards=3"),
              std::string::npos)
        << d;
  }
  EXPECT_NE(a.DebugString().find("busy-levels=0x3"), std::string::npos);
  EXPECT_NE(b.DebugString().find("busy-levels=0xc"), std::string::npos);
  a.EndCompaction(0);
  b.EndCompaction(2);
  a.FlushFinished();
  b.FlushFinished();
}

}  // namespace fcae
