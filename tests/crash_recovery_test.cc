// Crash-consistency matrix: a CrashInjectionEnv wraps the in-memory Env
// and models strict POSIX durability (file data survives only up to the
// last Sync(); directory entries survive only once the parent dir was
// SyncDir'd). Named crash points inside the write/flush/compaction/
// manifest paths freeze the env mid-operation; the test then drops all
// unsynced state and reopens the DB on the crash image.
//
// Invariants checked after every simulated crash:
//   1. Every write acknowledged with sync=true is present.
//   2. The DB opens without repair and without error.
//   3. No temp files survive; a reopen reclaims orphan tables.
//   4. The reopened DB is writable and a further reopen is stable.
//
// The full randomized sweep (every known crash point x {sync,nosync} x
// {1,4} writer threads) runs when FCAE_CRASH_MATRIX_FULL=1 (the nightly
// job and the "stress" ctest configuration); a bounded single-threaded
// pass over every point runs in tier 1. FCAE_CRASH_SEED pins the seed.

#include "util/crash_env.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/filename.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {
namespace {

std::string MatrixKey(int thread, int i) {
  // Scatter the key space (multiplier coprime with 10^6, so i -> key is
  // a bijection): sequential inserts would produce non-overlapping L0
  // tables and every compaction would degenerate into a trivial move,
  // never exercising the merge/install/offload crash points.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "t%02d-k%06d", thread,
                static_cast<int>((static_cast<uint64_t>(i) * 40503u) %
                                 1000000u));
  return buf;
}

std::string MatrixValue(int thread, int i) {
  std::string v = MatrixKey(thread, i) + "=";
  v.append(80, static_cast<char>('a' + (i % 26)));
  return v;
}

uint32_t MatrixSeed() {
  const char* s = std::getenv("FCAE_CRASH_SEED");
  if (s != nullptr && s[0] != '\0') {
    return static_cast<uint32_t>(std::strtoul(s, nullptr, 10));
  }
  return 0x5eedu;
}

bool FullMatrix() {
  const char* s = std::getenv("FCAE_CRASH_MATRIX_FULL");
  return s != nullptr && s[0] == '1';
}

}  // namespace

// ---------------------------------------------------------------------------
// CrashPointRegistry unit tests
// ---------------------------------------------------------------------------

TEST(CrashPointRegistryTest, ArmedPointFiresOnceAndSelfDisarms) {
  CrashPointRegistry* reg = CrashPointRegistry::Instance();
  reg->DisarmAll();

  int fired = 0;
  reg->Arm("test:point", 1, [&](const char*) { fired++; });
  ASSERT_TRUE(reg->IsArmed("test:point"));

  FCAE_CRASH_POINT("test:point");
  EXPECT_EQ(1, fired);
  EXPECT_FALSE(reg->IsArmed("test:point"));
  FCAE_CRASH_POINT("test:point");  // disarmed: no double fire
  EXPECT_EQ(1, fired);
}

TEST(CrashPointRegistryTest, HitCountArmsNthOccurrence) {
  CrashPointRegistry* reg = CrashPointRegistry::Instance();
  reg->DisarmAll();

  int fired = 0;
  reg->Arm("test:nth", 3, [&](const char*) { fired++; });
  FCAE_CRASH_POINT("test:nth");
  FCAE_CRASH_POINT("test:nth");
  EXPECT_EQ(0, fired);
  FCAE_CRASH_POINT("test:nth");
  EXPECT_EQ(1, fired);
}

TEST(CrashPointRegistryTest, HitCountingObservesUnarmedPoints) {
  CrashPointRegistry* reg = CrashPointRegistry::Instance();
  reg->DisarmAll();
  reg->ResetHitCounts();
  reg->EnableHitCounting(true);

  FCAE_CRASH_POINT("test:counted");
  FCAE_CRASH_POINT("test:counted");
  EXPECT_EQ(2u, reg->HitCount("test:counted"));
  EXPECT_EQ(0u, reg->HitCount("test:never"));

  reg->EnableHitCounting(false);
  reg->ResetHitCounts();
}

// ---------------------------------------------------------------------------
// CrashInjectionEnv unit tests
// ---------------------------------------------------------------------------

class CrashEnvTest : public testing::Test {
 public:
  CrashEnvTest()
      : base_(NewMemEnv(Env::Default())), env_(base_.get()), dir_("/crash") {
    EXPECT_TRUE(env_.CreateDir(dir_).ok());
  }

  Status WriteAndSync(const std::string& fname, const std::string& data) {
    WritableFile* f = nullptr;
    Status s = env_.NewWritableFile(fname, &f);
    if (!s.ok()) return s;
    s = f->Append(data);
    if (s.ok()) s = f->Sync();
    Status c = f->Close();
    delete f;
    return s.ok() ? c : s;
  }

  std::unique_ptr<Env> base_;
  CrashInjectionEnv env_;
  std::string dir_;
};

TEST_F(CrashEnvTest, UnsyncedFileIsLostSyncedFileSurvives) {
  ASSERT_TRUE(WriteAndSync(dir_ + "/synced", "payload").ok());
  ASSERT_TRUE(env_.SyncDir(dir_).ok());

  WritableFile* f = nullptr;
  ASSERT_TRUE(env_.NewWritableFile(dir_ + "/unsynced", &f).ok());
  ASSERT_TRUE(f->Append("lost").ok());
  ASSERT_TRUE(f->Close().ok());
  delete f;

  env_.Crash();
  env_.ResetToDurableState();

  EXPECT_TRUE(env_.FileExists(dir_ + "/synced"));
  EXPECT_FALSE(env_.FileExists(dir_ + "/unsynced"));
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, dir_ + "/synced", &data).ok());
  EXPECT_EQ("payload", data);
}

TEST_F(CrashEnvTest, DataPastLastSyncIsTruncated) {
  WritableFile* f = nullptr;
  ASSERT_TRUE(env_.NewWritableFile(dir_ + "/partial", &f).ok());
  ASSERT_TRUE(f->Append("durable-").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Append("volatile").ok());
  ASSERT_TRUE(f->Close().ok());
  delete f;
  ASSERT_TRUE(env_.SyncDir(dir_).ok());

  env_.Crash();
  env_.ResetToDurableState();

  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, dir_ + "/partial", &data).ok());
  EXPECT_EQ("durable-", data);
}

TEST_F(CrashEnvTest, UnsyncedDirectoryEntryLosesFileDespiteDataSync) {
  // File data fsync'd, but the dirent never was: POSIX loses the file.
  ASSERT_TRUE(WriteAndSync(dir_ + "/no_dirent", "data").ok());
  env_.Crash();
  env_.ResetToDurableState();
  EXPECT_FALSE(env_.FileExists(dir_ + "/no_dirent"));
}

TEST_F(CrashEnvTest, UnsyncedRenameRollsBack) {
  ASSERT_TRUE(WriteAndSync(dir_ + "/a", "v1").ok());
  ASSERT_TRUE(env_.SyncDir(dir_).ok());

  ASSERT_TRUE(env_.RenameFile(dir_ + "/a", dir_ + "/b").ok());
  EXPECT_TRUE(env_.FileExists(dir_ + "/b"));  // live view follows the op

  env_.Crash();
  env_.ResetToDurableState();

  // The rename never became durable: the old name is back.
  EXPECT_TRUE(env_.FileExists(dir_ + "/a"));
  EXPECT_FALSE(env_.FileExists(dir_ + "/b"));
}

TEST_F(CrashEnvTest, SyncedRenameSurvives) {
  ASSERT_TRUE(WriteAndSync(dir_ + "/a", "v1").ok());
  ASSERT_TRUE(env_.SyncDir(dir_).ok());
  ASSERT_TRUE(env_.RenameFile(dir_ + "/a", dir_ + "/b").ok());
  ASSERT_TRUE(env_.SyncDir(dir_).ok());

  env_.Crash();
  env_.ResetToDurableState();

  EXPECT_FALSE(env_.FileExists(dir_ + "/a"));
  EXPECT_TRUE(env_.FileExists(dir_ + "/b"));
}

TEST_F(CrashEnvTest, UnsyncedRemoveResurrectsFile) {
  ASSERT_TRUE(WriteAndSync(dir_ + "/zombie", "braaains").ok());
  ASSERT_TRUE(env_.SyncDir(dir_).ok());

  ASSERT_TRUE(env_.RemoveFile(dir_ + "/zombie").ok());
  EXPECT_FALSE(env_.FileExists(dir_ + "/zombie"));

  env_.Crash();
  env_.ResetToDurableState();

  // The unlink was never committed: the file is back. This is exactly
  // how orphan tables appear after a crash.
  EXPECT_TRUE(env_.FileExists(dir_ + "/zombie"));
  std::string data;
  ASSERT_TRUE(ReadFileToString(&env_, dir_ + "/zombie", &data).ok());
  EXPECT_EQ("braaains", data);
}

TEST_F(CrashEnvTest, FrozenEnvFailsMutationsAndStaleHandles) {
  WritableFile* f = nullptr;
  ASSERT_TRUE(env_.NewWritableFile(dir_ + "/f", &f).ok());
  env_.Crash();

  EXPECT_TRUE(f->Append("x").IsIOError());
  EXPECT_TRUE(f->Sync().IsIOError());
  delete f;

  WritableFile* g = nullptr;
  EXPECT_TRUE(env_.NewWritableFile(dir_ + "/g", &g).IsIOError());
  EXPECT_TRUE(env_.RemoveFile(dir_ + "/f").IsIOError());
  EXPECT_TRUE(env_.RenameFile(dir_ + "/f", dir_ + "/h").IsIOError());
  EXPECT_TRUE(env_.SyncDir(dir_).IsIOError());

  env_.ResetToDurableState();

  // Pre-crash handles stay dead even after the "reboot".
  ASSERT_TRUE(env_.NewWritableFile(dir_ + "/f2", &f).ok());
  ASSERT_TRUE(f->Append("ok").ok());
  ASSERT_TRUE(f->Sync().ok());
  delete f;
}

TEST_F(CrashEnvTest, SetWritesFailInjectsErrorsWithoutFreezing) {
  env_.SetWritesFail(true);
  WritableFile* f = nullptr;
  EXPECT_TRUE(env_.NewWritableFile(dir_ + "/nope", &f).IsIOError());
  env_.SetWritesFail(false);
  ASSERT_TRUE(env_.NewWritableFile(dir_ + "/yes", &f).ok());
  ASSERT_TRUE(f->Sync().ok());
  delete f;
}

// ---------------------------------------------------------------------------
// Crash matrix over the whole DB
// ---------------------------------------------------------------------------

namespace {

struct MatrixCase {
  std::string point;
  bool sync;
  int threads;
  bool offload;
};

// One crash round: open a DB on a fresh CrashInjectionEnv, arm a single
// point, write until the crash fires (or a generous bound), then drop
// unsynced state, reopen, and check every recovery invariant.
void RunCrashRound(const MatrixCase& c, uint32_t seed) {
  SCOPED_TRACE("point=" + c.point + " sync=" + (c.sync ? "1" : "0") +
               " threads=" + std::to_string(c.threads) +
               " offload=" + (c.offload ? "1" : "0") +
               " seed=" + std::to_string(seed));

  std::unique_ptr<Env> base(NewMemEnv(Env::Default()));
  CrashInjectionEnv env(base.get());
  const std::string dbname = "/crashdb";

  std::unique_ptr<host::DeviceSet> devices;
  std::unique_ptr<host::FcaeCompactionExecutor> executor;
  if (c.offload) {
    fpga::EngineConfig config;
    config.num_inputs = 9;
    devices = std::make_unique<host::DeviceSet>(config, /*num_cards=*/1);
    host::FcaeExecutorOptions exec_options;
    exec_options.tournament_scheduling = true;  // accept any input count
    executor = std::make_unique<host::FcaeCompactionExecutor>(devices.get(),
                                                              exec_options);
  }

  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.write_buffer_size = 16 * 1024;      // frequent flushes
  options.max_manifest_file_size = 4 * 1024;  // frequent rollovers
  options.compaction_threads = 2;
  options.max_subcompactions = 4;
  options.compaction_executor = executor.get();

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, dbname, &raw).ok());
  std::unique_ptr<DB> db(raw);

  Random rnd(seed);
  // CURRENT switches only happen on manifest rollover — once or twice
  // per round (write_buffer_size is floored at 64 KB by the DB, so
  // flushes, and with them manifest appends, are less frequent than the
  // workload suggests). Always take their first occurrence; randomize
  // the hit for the frequently-hit points.
  const bool rare = c.point == "current:after_tmp_write" ||
                    c.point == "current:after_rename";
  const int arm_hit = rare ? 1 : 1 + static_cast<int>(rnd.Uniform(3));
  env.ArmCrashPoint(c.point, arm_hit);

  // Each thread records the keys whose sync=true Put was acknowledged;
  // only those are guaranteed to survive the crash.
  std::vector<std::vector<int>> acked(c.threads);
  std::vector<std::thread> writers;
  constexpr int kMaxWritesPerThread = 60000;
  for (int t = 0; t < c.threads; t++) {
    writers.emplace_back([&, t]() {
      WriteOptions wo;
      wo.sync = c.sync;
      for (int i = 0; i < kMaxWritesPerThread && !env.crashed(); i++) {
        Status s = db->Put(wo, MatrixKey(t, i), MatrixValue(t, i));
        if (!s.ok()) break;  // env frozen or writes wedged: stop
        if (c.sync) acked[t].push_back(i);
      }
    });
  }
  for (auto& th : writers) th.join();

  const bool crashed = env.crashed();
  db.reset();  // close on the frozen env; background work drains
  CrashPointRegistry::Instance()->DisarmAll();

  // Every point in the matrix must actually be reachable in the round
  // configured for it, or the matrix silently tests nothing.
  size_t total_acked = 0;
  for (const auto& a : acked) total_acked += a.size();
  EXPECT_TRUE(crashed) << "crash point never fired: " << c.point
                       << " (acked=" << total_acked << ")";
  if (crashed) {
    env.ResetToDurableState();
  }

  // Reopen on the crash image: recovery only, no repair, no executor.
  options.compaction_executor = nullptr;
  raw = nullptr;
  ASSERT_TRUE(DB::Open(options, dbname, &raw).ok());
  db.reset(raw);

  // 1. Every acknowledged synced write survived.
  for (int t = 0; t < c.threads; t++) {
    for (int i : acked[t]) {
      std::string value;
      Status s = db->Get(ReadOptions(), MatrixKey(t, i), &value);
      ASSERT_TRUE(s.ok()) << "lost acked key " << MatrixKey(t, i) << ": "
                          << s.ToString();
      ASSERT_EQ(MatrixValue(t, i), value);
    }
  }

  // 2. No temp files survive recovery, and every table on disk is
  //    referenced by the live version (reopen reclaimed all orphans).
  //    Background compactions restarted by the reopen may briefly hold
  //    unreferenced in-flight outputs, so poll until the DB quiesces.
  std::string unexplained;
  for (int attempt = 0; attempt < 500; attempt++) {
    // Snapshot disk first, references second: a table installed between
    // the two reads only shrinks the unexplained set, never hides an
    // orphan (crash orphans can never become referenced).
    std::vector<std::string> children;
    ASSERT_TRUE(env.GetChildren(dbname, &children).ok());
    std::set<uint64_t> referenced;
    std::string sstables;
    ASSERT_TRUE(db->GetProperty("fcae.sstables", &sstables));
    // Version::DebugString lists files as " <number>:<size>[...".
    size_t pos = 0;
    while ((pos = sstables.find(':', pos)) != std::string::npos) {
      size_t start = sstables.rfind(' ', pos);
      if (start != std::string::npos && start + 1 < pos) {
        referenced.insert(
            std::strtoull(sstables.c_str() + start + 1, nullptr, 10));
      }
      pos++;
    }
    unexplained.clear();
    for (const std::string& child : children) {
      uint64_t number;
      FileType type;
      if (!ParseFileName(child, &number, &type)) continue;
      ASSERT_NE(FileType::kTempFile, type) << "temp file survived: " << child;
      if (type == FileType::kTableFile &&
          referenced.find(number) == referenced.end()) {
        unexplained += child + " ";
      }
    }
    if (unexplained.empty()) break;
    env.SleepForMicroseconds(10 * 1000);
    // Obsolete files pinned by an in-flight version reference at the
    // moment of the last GC pass linger until the next one; run a pass
    // so quiescence converges instead of depending on workload timing.
    reinterpret_cast<DBImpl*>(db.get())->TEST_RemoveObsoleteFiles();
  }
  EXPECT_TRUE(unexplained.empty())
      << "orphan tables survived recovery: " << unexplained;

  // 3. The recovered DB accepts writes and serves them.
  ASSERT_TRUE(db->Put(WriteOptions(), "post-crash", "alive").ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "post-crash", &value).ok());
  ASSERT_EQ("alive", value);

  // 4. A second reopen is stable (recovery did not corrupt anything).
  db.reset();
  raw = nullptr;
  ASSERT_TRUE(DB::Open(options, dbname, &raw).ok());
  db.reset(raw);
  ASSERT_TRUE(db->Get(ReadOptions(), "post-crash", &value).ok());
  ASSERT_EQ("alive", value);
}

std::vector<MatrixCase> BuildMatrix(bool full) {
  std::vector<MatrixCase> cases;
  for (const std::string& point : CrashPointRegistry::KnownPoints()) {
    const bool offload = point == "offload:after_device_write";
    if (full) {
      for (bool sync : {true, false}) {
        for (int threads : {1, 4}) {
          cases.push_back(MatrixCase{point, sync, threads, offload});
        }
      }
    } else {
      // Tier 1: one synced single-writer round per point, plus one
      // multi-writer round for the concurrency-sensitive install paths.
      cases.push_back(MatrixCase{point, true, 1, offload});
      if (point == "shard:between_installs" ||
          point == "scheduler:manifest_locked") {
        cases.push_back(MatrixCase{point, true, 4, offload});
      }
    }
  }
  return cases;
}

}  // namespace

TEST(CrashMatrixTest, SyncedWritesSurviveEveryCrashPoint) {
  const uint32_t seed = MatrixSeed();
  const bool full = FullMatrix();
  // The seed is printed so a failing nightly run can be replayed with
  // FCAE_CRASH_SEED=<seed> FCAE_CRASH_MATRIX_FULL=1.
  std::fprintf(stderr, "crash-matrix: seed=%u full=%d\n", seed, full ? 1 : 0);

  uint32_t round = 0;
  for (const MatrixCase& c : BuildMatrix(full)) {
    RunCrashRound(c, seed + round);
    if (testing::Test::HasFatalFailure()) return;
    round++;
  }
}

// ---------------------------------------------------------------------------
// Background-error state machine
// ---------------------------------------------------------------------------

TEST(BackgroundErrorTest, SoftErrorThenResumeRestoresService) {
  std::unique_ptr<Env> base(NewMemEnv(Env::Default()));
  CrashInjectionEnv env(base.get());
  obs::MetricsRegistry metrics;

  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.write_buffer_size = 32 * 1024;
  options.metrics_registry = &metrics;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/softdb", &raw).ok());
  std::unique_ptr<DB> db(raw);
  auto* impl = reinterpret_cast<DBImpl*>(db.get());

  // Healthy DB: Resume is a no-op.
  ASSERT_TRUE(db->Resume().ok());

  // Make Sync() fail (creates and appends still work, so the foreground
  // write path stays alive) and force a flush: the background flush
  // fails with an IOError, which must classify as a *soft* background
  // error (retryable storage trouble, not corruption).
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), MatrixKey(0, i), MatrixValue(0, i)).ok());
  }
  env.SetSyncsFail(true);
  Status flush = impl->TEST_CompactMemTable();
  EXPECT_FALSE(flush.ok());

  std::string bg;
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=soft")) << bg;
  EXPECT_GE(metrics.db_bg_error_soft.value(), 1u);

  // While storage is down, Resume keeps failing but never escalates.
  EXPECT_FALSE(db->Resume().ok());
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=soft")) << bg;

  // Storage comes back: Resume durably installs a fresh manifest,
  // clears the error, and restarts background work. (Auto-resume with
  // bounded backoff may already have done this for us.)
  env.SetSyncsFail(false);
  ASSERT_TRUE(db->Resume().ok());
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=ok")) << bg;
  EXPECT_GE(metrics.db_bg_error_resume_attempts.value(), 1u);
  EXPECT_GE(metrics.db_bg_error_resumes.value(), 1u);

  // Service restored end to end: writes, reads, and compactions run.
  for (int i = 100; i < 200; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), MatrixKey(0, i), MatrixValue(0, i)).ok());
  }
  ASSERT_TRUE(impl->TEST_CompactMemTable().ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), MatrixKey(0, 150), &value).ok());
  ASSERT_EQ(MatrixValue(0, 150), value);
}

TEST(BackgroundErrorTest, AutoResumeRecoversWithoutManualIntervention) {
  std::unique_ptr<Env> base(NewMemEnv(Env::Default()));
  CrashInjectionEnv env(base.get());
  obs::MetricsRegistry metrics;

  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.write_buffer_size = 32 * 1024;
  options.metrics_registry = &metrics;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/autodb", &raw).ok());
  std::unique_ptr<DB> db(raw);
  auto* impl = reinterpret_cast<DBImpl*>(db.get());

  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), MatrixKey(1, i), MatrixValue(1, i)).ok());
  }
  env.SetSyncsFail(true);
  EXPECT_FALSE(impl->TEST_CompactMemTable().ok());
  env.SetSyncsFail(false);  // storage heals immediately

  // The scheduled auto-resume (2 ms base backoff, 5 attempts) should
  // clear the soft error on its own; poll briefly, then fall back to a
  // manual Resume so the test cannot flake if all attempts raced the
  // healing above.
  std::string bg;
  bool recovered = false;
  for (int i = 0; i < 200 && !recovered; i++) {
    ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
    recovered = bg.find("state=ok") != std::string::npos;
    if (!recovered) env.SleepForMicroseconds(2000);
  }
  EXPECT_GE(metrics.db_bg_error_resume_attempts.value(), 1u)
      << "auto-resume never ran";
  if (!recovered) {
    ASSERT_TRUE(db->Resume().ok());
  }
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=ok")) << bg;
  ASSERT_TRUE(db->Put(WriteOptions(), "healed", "yes").ok());
}

TEST(BackgroundErrorTest, BgErrorWakesStalledWriter) {
  // A writer parked in MakeRoomForWrite (waiting on an immutable-memtable
  // flush or sleeping off a controller delay) must be woken the moment a
  // background error lands, and must see that error instead of stalling
  // against a pipeline that will never drain. The assertion here is
  // promptness: if the wakeup is missing, the writer thread never
  // finishes and the test times out.
  std::unique_ptr<Env> base(NewMemEnv(Env::Default()));
  CrashInjectionEnv env(base.get());
  obs::MetricsRegistry metrics;

  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.write_buffer_size = 4 * 1024;  // Constant flush pressure.
  options.metrics_registry = &metrics;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/wakedb", &raw).ok());
  std::unique_ptr<DB> db(raw);

  env.SetSyncsFail(true);
  std::atomic<bool> writer_saw_error{false};
  std::thread writer([&]() {
    // Each value is a quarter of the buffer: rotations and flushes fire
    // immediately, the flushes fail on Sync, and some Put lands in the
    // imm-wait (or delay) path when the error is recorded.
    std::string value(1024, 'e');
    for (int i = 0; i < 500; i++) {
      Status s = db->Put(WriteOptions(), MatrixKey(2, i), value);
      if (!s.ok()) {
        writer_saw_error.store(true);
        return;
      }
    }
  });
  writer.join();
  EXPECT_TRUE(writer_saw_error.load())
      << "writer outran 500 puts without ever seeing the background error";

  std::string bg;
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=soft")) << bg;

  // Healing and resuming restores write service for the same writer.
  env.SetSyncsFail(false);
  ASSERT_TRUE(db->Resume().ok());
  ASSERT_TRUE(db->GetProperty("fcae.background-error", &bg));
  EXPECT_NE(std::string::npos, bg.find("state=ok")) << bg;
  ASSERT_TRUE(db->Put(WriteOptions(), "awake", "yes").ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "awake", &value).ok());
  EXPECT_EQ("yes", value);
}

}  // namespace fcae
