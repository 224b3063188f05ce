// Scrub-and-heal matrix (DESIGN.md §14): for tables produced by every
// install path — memtable flush, CPU compaction, offload-assembled —
// inject deterministic at-rest bit rot, run a scrub cycle, and require
// the full detect -> quarantine -> repair chain to complete without a
// hard background error and without losing a single acknowledged key.
//
// Tier-1 runs a bounded seed set; the `scrub_heal_matrix` stress
// registration sets FCAE_SCRUB_MATRIX_FULL=1 for a wider sweep.

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/filename.h"
#include "obs/event_listener.h"
#include "obs/metrics.h"
#include "table/iterator.h"
#include "util/corruption_env.h"
#include "util/env.h"
#include "util/mem_env.h"

namespace fcae {

namespace {

// Which install path built the table under attack.
enum class TableSource { kFlush, kCompacted, kOffload };

const char* SourceName(TableSource s) {
  switch (s) {
    case TableSource::kFlush:
      return "flush";
    case TableSource::kCompacted:
      return "compacted";
    case TableSource::kOffload:
      return "offload";
  }
  return "?";
}

class ScrubEventRecorder : public obs::EventListener {
 public:
  void OnCorruptionDetected(const obs::CorruptionInfo& info) override {
    corruptions++;
    last_source = info.source;
  }
  void OnFileQuarantined(const obs::FileQuarantineInfo& info) override {
    quarantines++;
  }
  void OnScrubCompleted(const obs::ScrubCycleInfo& info) override {
    scrubs++;
    files_scanned += info.files_scanned;
  }

  std::atomic<int> corruptions{0};
  std::atomic<int> quarantines{0};
  std::atomic<int> scrubs{0};
  std::atomic<uint64_t> files_scanned{0};
  std::string last_source;
};

}  // namespace

class ScrubHealTest : public testing::Test {
 public:
  static constexpr int kNumKeys = 600;

  ScrubHealTest() { Reset(); }

  // Fresh env + registry + listener for each matrix cell so counters
  // and files never leak between cells.
  void Reset() {
    db_.reset();
    executor_.reset();
    devices_.reset();
    env_.reset();
    mem_env_.reset();
    mem_env_.reset(NewMemEnv(Env::Default()));
    env_ = std::make_unique<CorruptionInjectionEnv>(mem_env_.get());
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    recorder_ = std::make_unique<ScrubEventRecorder>();
  }

  void Open(TableSource source) {
    db_.reset();
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    // Deterministic: the periodic scrubber stays off; cycles run only
    // via ScrubNow().
    options.scrub_interval_seconds = 0;
    options.metrics_registry = metrics_.get();
    options.listeners.push_back(recorder_.get());
    if (source == TableSource::kOffload) {
      if (executor_ == nullptr) {
        fpga::EngineConfig config;
        config.num_inputs = 9;
        config.input_width = 8;
        config.value_width = 8;
        devices_ = std::make_unique<host::DeviceSet>(config, /*num_cards=*/1);
        executor_ =
            std::make_unique<host::FcaeCompactionExecutor>(devices_.get());
      }
      options.compaction_executor = executor_.get();
    }
    DB* db = nullptr;
    ASSERT_TRUE(DB::Open(options, dbname_, &db).ok());
    db_.reset(db);
  }

  static std::string Key(int i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "key%06d", i);
    return std::string(buf);
  }

  static std::string Value(char round, int i) {
    return std::string(1, round) + ":" + Key(i) + std::string(40, 'x');
  }

  void WriteKeys(char round, int start, int stride) {
    for (int i = start; i < kNumKeys; i += stride) {
      ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value(round, i)).ok());
    }
  }

  void Flush() {
    ASSERT_TRUE(
        reinterpret_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  }

  // Full paths of live table files, keyed by file number.
  std::map<uint64_t, std::string> TableFiles() {
    std::map<uint64_t, std::string> result;
    std::vector<std::string> children;
    EXPECT_TRUE(env_->GetChildren(dbname_, &children).ok());
    for (const std::string& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile) {
        result[number] = dbname_ + "/" + child;
      }
    }
    return result;
  }

  // Every key must come back with its round-B value — corruption of any
  // single round-A table may never surface as data loss or wrong data.
  void CheckAllKeysHealed() {
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    int i = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next(), i++) {
      ASSERT_LT(i, kNumKeys);
      EXPECT_EQ(Key(i), iter->key().ToString());
      EXPECT_EQ(Value('b', i), iter->value().ToString());
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    EXPECT_EQ(kNumKeys, i);
  }

  void ExpectProperty(const std::string& name, const std::string& want) {
    std::string value;
    ASSERT_TRUE(db_->GetProperty(name, &value)) << name;
    EXPECT_EQ(want, value) << name;
  }

  // One matrix cell: build round-A tables via `source`, overwrite every
  // key in a clean round-B flush, rot one round-A table, scrub, verify
  // the heal.
  void RunCell(TableSource source, uint32_t seed) {
    SCOPED_TRACE(std::string("source=") + SourceName(source) +
                 " seed=" + std::to_string(seed));
    Reset();
    Open(source);

    // Round A: two overlapping flushes so compaction (when requested)
    // does a real merge rather than a trivial move.
    WriteKeys('a', 0, 2);
    Flush();
    WriteKeys('a', 1, 2);
    Flush();
    if (source != TableSource::kFlush) {
      db_->CompactRange(nullptr, nullptr);
    }
    std::map<uint64_t, std::string> candidates = TableFiles();
    ASSERT_FALSE(candidates.empty());

    // Round B: rewrite every key into a fresh clean L0 table, so no
    // round-A file holds the only copy of anything.
    WriteKeys('b', 0, 1);
    Flush();

    // Rot one round-A table.
    auto victim = candidates.begin();
    std::advance(victim, seed % candidates.size());
    std::vector<uint64_t> offsets;
    ASSERT_TRUE(env_->CorruptFile(victim->second, seed, 3, &offsets).ok());
    ASSERT_FALSE(offsets.empty());

    const uint64_t repairs_before =
        metrics_->integrity_repairs.value();
    Status s = db_->ScrubNow();
    ASSERT_TRUE(s.ok()) << s.ToString();

    // Detection, quarantine, and repair all happened...
    EXPECT_GE(recorder_->corruptions.load(), 1);
    EXPECT_GE(recorder_->quarantines.load(), 1);
    EXPECT_GE(recorder_->scrubs.load(), 1);
    EXPECT_EQ("scrub", recorder_->last_source);
    EXPECT_GT(metrics_->integrity_repairs.value(),
              repairs_before);
    EXPECT_GE(metrics_->scrub_corruptions_detected.value(), 1u);

    // ...without tripping the hard background-error path or leaving the
    // file quarantined.
    std::string prop;
    ASSERT_TRUE(db_->GetProperty("fcae.background-error", &prop));
    EXPECT_EQ(0u, prop.find("state=ok")) << prop;
    ExpectProperty("fcae.num-quarantined-files", "0");

    CheckAllKeysHealed();

    // The healed DB survives a reopen: the repair edit is durable in
    // the manifest, not just an in-memory state.
    Open(source);
    CheckAllKeysHealed();
  }

  std::string dbname_ = "/scrubheal";
  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<CorruptionInjectionEnv> env_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<ScrubEventRecorder> recorder_;
  std::unique_ptr<host::DeviceSet> devices_;
  std::unique_ptr<host::FcaeCompactionExecutor> executor_;
  std::unique_ptr<DB> db_;
};

TEST_F(ScrubHealTest, CleanScrubFindsNothing) {
  Open(TableSource::kFlush);
  WriteKeys('b', 0, 1);
  Flush();
  Status s = db_->ScrubNow();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(0, recorder_->corruptions.load());
  EXPECT_EQ(0, recorder_->quarantines.load());
  EXPECT_GE(recorder_->scrubs.load(), 1);
  EXPECT_GE(metrics_->scrub_cycles.value(), 1u);
  EXPECT_GE(metrics_->scrub_files_verified.value(), 1u);
  EXPECT_GT(metrics_->scrub_bytes_verified.value(), 0u);
  EXPECT_EQ(0u, metrics_->scrub_corruptions_detected.value());
  CheckAllKeysHealed();
}

TEST_F(ScrubHealTest, ScrubNowOnEmptyDB) {
  Open(TableSource::kFlush);
  Status s = db_->ScrubNow();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_GE(recorder_->scrubs.load(), 1);
  EXPECT_EQ(0, recorder_->corruptions.load());
}

TEST_F(ScrubHealTest, HealMatrix) {
  const bool full = getenv("FCAE_SCRUB_MATRIX_FULL") != nullptr;
  const int seeds = full ? 6 : 2;
  // The nightly soak injects a fresh base seed per run; a failure
  // replays with FCAE_SCRUB_SEED=<base> FCAE_SCRUB_MATRIX_FULL=1.
  uint32_t base = 0;
  if (const char* env_seed = getenv("FCAE_SCRUB_SEED")) {
    base = static_cast<uint32_t>(std::strtoul(env_seed, nullptr, 10));
  }
  const TableSource sources[] = {TableSource::kFlush, TableSource::kCompacted,
                                 TableSource::kOffload};
  for (TableSource source : sources) {
    for (int seed = 1; seed <= seeds; seed++) {
      RunCell(source, base + static_cast<uint32_t>(seed * 7919));
      if (HasFatalFailure()) return;
    }
  }
}

// WAL-replay checksum drops must be visible operationally, not only as
// a log line: recovery counts dropped records and bytes.
TEST_F(ScrubHealTest, WalCorruptionSurfacesCounters) {
  Open(TableSource::kFlush);
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), Key(i), Value('a', i)).ok());
  }
  db_.reset();  // Keys remain in the WAL only; no flush happened.

  std::string log_file;
  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dbname_, &children).ok());
  for (const std::string& child : children) {
    uint64_t number;
    FileType type;
    if (ParseFileName(child, &number, &type) && type == FileType::kLogFile) {
      log_file = dbname_ + "/" + child;
    }
  }
  ASSERT_FALSE(log_file.empty());
  ASSERT_TRUE(env_->CorruptFile(log_file, /*seed=*/1234, /*flips=*/3).ok());

  Open(TableSource::kFlush);  // Replay drops the damaged records...
  EXPECT_GE(metrics_->wal_corruption_records.value(), 1u);
  EXPECT_GT(metrics_->wal_corruption_bytes.value(), 0u);
}

// Read routing while a file is quarantined (the containment window
// between detection and the repair edit): stale-but-clean data is
// served, keys that may only live in the corrupt file answer
// Corruption, and iterators route around the file with OK status.
class QuarantineRoutingTest : public ScrubHealTest {};

TEST_F(QuarantineRoutingTest, ReadsRouteAroundQuarantinedFile) {
  Open(TableSource::kFlush);

  // File A: k1=v1 plus filler.
  ASSERT_TRUE(db_->Put(WriteOptions(), "k1", "v1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k3", "v3").ok());
  Flush();
  std::map<uint64_t, std::string> after_a = TableFiles();
  ASSERT_EQ(1u, after_a.size());

  // File B: newer k1=v2, and k2 exists only here.
  ASSERT_TRUE(db_->Put(WriteOptions(), "k1", "v2").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k2", "v2only").ok());
  Flush();
  std::map<uint64_t, std::string> after_b = TableFiles();
  ASSERT_EQ(2u, after_b.size());
  uint64_t file_b = 0;
  for (const auto& entry : after_b) {
    if (after_a.count(entry.first) == 0) file_b = entry.first;
  }
  ASSERT_NE(0u, file_b);

  DBImpl* impl = reinterpret_cast<DBImpl*>(db_.get());
  impl->TEST_QuarantineFile(file_b);
  ExpectProperty("fcae.num-quarantined-files", "1");

  std::string value;
  // Stale-but-clean older version is served rather than an error.
  Status s = db_->Get(ReadOptions(), "k1", &value);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ("v1", value);
  // A key only the quarantined file could hold answers Corruption, not
  // NotFound — the key may well exist.
  s = db_->Get(ReadOptions(), "k2", &value);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // A key outside the quarantined file is untouched.
  s = db_->Get(ReadOptions(), "k3", &value);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ("v3", value);

  // Iterators treat the quarantined file as empty and finish clean.
  {
    std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
    std::map<std::string, std::string> scanned;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      scanned[iter->key().ToString()] = iter->value().ToString();
    }
    EXPECT_TRUE(iter->status().ok()) << iter->status().ToString();
    EXPECT_EQ(2u, scanned.size());
    EXPECT_EQ("v1", scanned["k1"]);
    EXPECT_EQ(0u, scanned.count("k2"));
  }

  // Lifting the quarantine restores the newest values.
  impl->TEST_UnquarantineFile(file_b);
  ExpectProperty("fcae.num-quarantined-files", "0");
  ASSERT_TRUE(db_->Get(ReadOptions(), "k1", &value).ok());
  EXPECT_EQ("v2", value);
  ASSERT_TRUE(db_->Get(ReadOptions(), "k2", &value).ok());
  EXPECT_EQ("v2only", value);
}

}  // namespace fcae
