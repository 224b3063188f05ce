#include "host/offload_compaction.h"

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fpga_test_util.h"
#include "gtest/gtest.h"
#include "host/cpu_compactor.h"
#include "host/fork_join.h"
#include "host/sstable_stager.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "lsm/table_cache.h"
#include "lsm/version_edit.h"
#include "lsm/version_set.h"
#include "table/iterator.h"
#include "table/table.h"
#include "test_util.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {
namespace host {

using fpga_test::MakeRun;
using fpga_test::TestKv;
using fpga_test::WriteSstable;

TEST(ForkJoinTest, RunsEveryTaskOnce) {
  for (size_t tasks : {0, 1, 3, 1000}) {
    std::vector<int> runs(tasks, 0);
    ForkJoin(tasks, [&](size_t i) { runs[i]++; });
    EXPECT_EQ(std::vector<int>(tasks, 1), runs) << tasks << " tasks";
  }
}

TEST(SstableStagerTest, StagedImageMatchesFile) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  auto records = MakeRun("key", 0, 500, 1, 100, 128);
  ASSERT_TRUE(WriteSstable(env.get(), options, "/t.ldb", records).ok());

  SstableStager stager(env.get());
  fpga::DeviceInput input;
  ASSERT_TRUE(stager.AddTable("/t.ldb", &input).ok());
  ASSERT_EQ(1u, input.sstables.size());
  ASSERT_GT(input.index_memory.size(), 0u);
  ASSERT_GT(input.data_memory.size(), 0u);

  // The staged data region is a verbatim prefix of the file.
  std::string file_contents;
  ASSERT_TRUE(ReadFileToString(env.get(), "/t.ldb", &file_contents).ok());
  ASSERT_EQ(file_contents.substr(0, input.data_memory.size()),
            input.data_memory);
}

TEST(SstableStagerTest, BoundedStagingTrimsToOverlappingBlocks) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  auto records = MakeRun("key", 0, 500, 1, 100, 128);
  ASSERT_TRUE(WriteSstable(env.get(), options, "/t.ldb", records).ok());
  SstableStager stager(env.get());

  fpga::DeviceInput full;
  ASSERT_TRUE(stager.AddTable("/t.ldb", &full).ok());

  fpga::KeyBounds bounds;
  bounds.has_lower = true;
  bounds.lower = "key00000150";  // Exclusive.
  bounds.has_upper = true;
  bounds.upper = "key00000250";  // Inclusive.
  fpga::DeviceInput trimmed;
  ASSERT_TRUE(stager.AddTable("/t.ldb", &trimmed, &bounds).ok());
  ASSERT_EQ(1u, trimmed.sstables.size());

  // Trimming is block-granular but must shed the blocks clearly outside
  // a 100-key shard of a 500-key table.
  EXPECT_GT(trimmed.data_memory.size(), 0u);
  EXPECT_LT(trimmed.data_memory.size(), full.data_memory.size());

  // The trimmed image plus the engine's record-level filter yields
  // exactly the shard's records — boundary blocks may be staged, but
  // their leaked records never survive the merge.
  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);
  fpga::DeviceOutput output;
  DeviceRunStats run_stats;
  ASSERT_TRUE(device
                  .ExecuteCompaction({&trimmed}, kNoSnapshot, true, &output,
                                     &run_stats, &bounds)
                  .ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(fpga_test::FlattenOutput(output, &got).ok());
  ASSERT_EQ(100u, got.size());  // key00000151 .. key00000250.
  EXPECT_EQ("key00000151", got.front().first.substr(0, 11));
  EXPECT_EQ("key00000250", got.back().first.substr(0, 11));
}

TEST(SstableStagerTest, TableOutsideBoundsStagesNothing) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  auto records = MakeRun("key", 0, 200, 1, 100, 64);
  ASSERT_TRUE(WriteSstable(env.get(), options, "/t.ldb", records).ok());
  SstableStager stager(env.get());

  // The whole table sits at or below the exclusive lower bound: no
  // descriptor, no staged bytes — the shard simply has no work here.
  // (The bound must clear the index's *shortened* separators: the
  // table's final index entry is the short successor of its last key,
  // e.g. "l" for "key00000199", so a bound like "key00000999" would
  // conservatively keep the last block.)
  fpga::KeyBounds bounds;
  bounds.has_lower = true;
  bounds.lower = "zzzzzzzz";
  fpga::DeviceInput input;
  ASSERT_TRUE(stager.AddTable("/t.ldb", &input, &bounds).ok());
  EXPECT_TRUE(input.sstables.empty());
  EXPECT_TRUE(input.data_memory.empty());
  EXPECT_TRUE(input.index_memory.empty());

  // A bound inside the shortened final separator keeps exactly the
  // conservative boundary block; the engine then drops its records.
  fpga::KeyBounds edge;
  edge.has_lower = true;
  edge.lower = "key00000999";
  fpga::DeviceInput boundary;
  ASSERT_TRUE(stager.AddTable("/t.ldb", &boundary, &edge).ok());
  ASSERT_EQ(1u, boundary.sstables.size());
  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);
  fpga::DeviceOutput output;
  DeviceRunStats run_stats;
  ASSERT_TRUE(device
                  .ExecuteCompaction({&boundary}, kNoSnapshot, true, &output,
                                     &run_stats, &edge)
                  .ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(fpga_test::FlattenOutput(output, &got).ok());
  EXPECT_TRUE(got.empty());
  EXPECT_GT(run_stats.engine.records_bounds_dropped, 0u);
}

TEST(SstableStagerTest, UnboundedStagingUnchangedByDefaultBounds) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  auto records = MakeRun("key", 0, 300, 1, 100, 64);
  ASSERT_TRUE(WriteSstable(env.get(), options, "/t.ldb", records).ok());
  SstableStager stager(env.get());

  fpga::DeviceInput plain, inactive;
  fpga::KeyBounds bounds;  // active() == false.
  ASSERT_TRUE(stager.AddTable("/t.ldb", &plain).ok());
  ASSERT_TRUE(stager.AddTable("/t.ldb", &inactive, &bounds).ok());
  EXPECT_EQ(plain.data_memory, inactive.data_memory);
  EXPECT_EQ(plain.index_memory, inactive.index_memory);
}

TEST(SstableStagerTest, StageRunsMatchesAddTableFileByFile) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  // A three-file sorted run and a one-file run over the same keys.
  std::vector<std::string> run;
  for (int t = 0; t < 3; t++) {
    run.push_back(test::Cat("/run", t, ".ldb"));
    ASSERT_TRUE(WriteSstable(env.get(), options, run.back(),
                             MakeRun(t == 0 ? "a" : "key", 200 * t, 200, 1,
                                     100, 64))
                    .ok());
  }
  const std::vector<std::string> other = {"/other.ldb"};
  ASSERT_TRUE(WriteSstable(env.get(), options, other[0],
                           MakeRun("key", 1, 300, 2, 5000, 64))
                  .ok());

  // The shard (b, key450] stages nothing of /run0.ldb, whose last index
  // separator is "b", and trims the other files.
  fpga::KeyBounds bounds;
  bounds.has_lower = true;
  bounds.lower = "b";
  bounds.has_upper = true;
  bounds.upper = "key00000450";
  for (const fpga::KeyBounds* b : {static_cast<fpga::KeyBounds*>(nullptr),
                                   &bounds}) {
    SstableStager stager(env.get());
    std::vector<fpga::DeviceInput> expected(2);
    for (const std::string& fname : run) {
      ASSERT_TRUE(stager.AddTable(fname, &expected[0], b).ok());
    }
    ASSERT_TRUE(stager.AddTable(other[0], &expected[1], b).ok());
    EXPECT_EQ(b == nullptr ? 3u : 2u, expected[0].sstables.size());

    std::vector<fpga::DeviceInput> staged;
    ASSERT_TRUE(stager.StageRuns({run, other}, b, &staged).ok());
    ASSERT_EQ(2u, staged.size());
    for (size_t r = 0; r < staged.size(); r++) {
      SCOPED_TRACE(test::Cat(b == nullptr ? "unbounded" : "bounded",
                             " run ", r));
      EXPECT_EQ(expected[r].index_memory, staged[r].index_memory);
      EXPECT_EQ(expected[r].data_memory, staged[r].data_memory);
      ASSERT_EQ(expected[r].sstables.size(), staged[r].sstables.size());
      for (size_t i = 0; i < staged[r].sstables.size(); i++) {
        const fpga::SstableDescriptor& want = expected[r].sstables[i];
        const fpga::SstableDescriptor& got = staged[r].sstables[i];
        EXPECT_EQ(want.index_offset, got.index_offset);
        EXPECT_EQ(want.index_size, got.index_size);
        EXPECT_EQ(want.data_offset, got.data_offset);
        EXPECT_EQ(want.data_size, got.data_size);
      }
    }
  }

  // A file that cannot be staged fails the whole job.
  std::vector<fpga::DeviceInput> staged;
  EXPECT_FALSE(SstableStager(env.get())
                   .StageRuns({run, {"/missing.ldb"}}, nullptr, &staged)
                   .ok());
}

TEST(SstableStagerTest, RejectsGarbageFile) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  ASSERT_TRUE(
      WriteStringToFile(env.get(), std::string(100, 'x'), "/junk").ok());
  SstableStager stager(env.get());
  fpga::DeviceInput input;
  ASSERT_FALSE(stager.AddTable("/junk", &input).ok());
}

TEST(AssembleTableFileTest, AssembledFileIsReadableSstable) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  // Run a small merge on the device and assemble its first output.
  auto run_a = MakeRun("key", 0, 400, 2, 1000, 64);
  auto run_b = MakeRun("key", 1, 400, 2, 2000, 64);
  fpga::DeviceInput in_a, in_b;
  ASSERT_TRUE(
      fpga_test::BuildDeviceInput(env.get(), options, {run_a}, 0, &in_a).ok());
  ASSERT_TRUE(
      fpga_test::BuildDeviceInput(env.get(), options, {run_b}, 1, &in_b).ok());

  fpga::EngineConfig config;
  FcaeDevice device(config);
  fpga::DeviceOutput output;
  DeviceRunStats run_stats;
  ASSERT_TRUE(device
                  .ExecuteCompaction({&in_a, &in_b}, kNoSnapshot, true,
                                     &output, &run_stats)
                  .ok());
  ASSERT_EQ(1u, output.tables.size());
  EXPECT_GT(run_stats.kernel_cycles, 0u);
  EXPECT_GT(run_stats.pcie_micros, 0.0);

  uint64_t file_size;
  ASSERT_TRUE(AssembleTableFile(env.get(), "/out.ldb", output.tables[0],
                                &file_size)
                  .ok());

  // Open with the standard Table reader using the internal comparator.
  static const InternalKeyComparator* icmp =
      new InternalKeyComparator(BytewiseComparator());
  Options read_options;
  read_options.comparator = icmp;
  read_options.env = env.get();

  RandomAccessFile* raf;
  ASSERT_TRUE(env->NewRandomAccessFile("/out.ldb", &raf).ok());
  std::unique_ptr<RandomAccessFile> file(raf);
  Table* table;
  ASSERT_TRUE(Table::Open(read_options, raf, file_size, &table).ok());
  std::unique_ptr<Table> tguard(table);

  std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
  size_t count = 0;
  std::string prev_user_key;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    std::string user_key = ExtractUserKey(iter->key()).ToString();
    if (!prev_user_key.empty()) {
      ASSERT_LT(prev_user_key, user_key);
    }
    prev_user_key = user_key;
    count++;
  }
  ASSERT_TRUE(iter->status().ok());
  ASSERT_EQ(800u, count);

  // Seek must work via the rebuilt index block.
  LookupKey lk("key00000100", kMaxSequenceNumber);
  iter->Seek(lk.internal_key());
  ASSERT_TRUE(iter->Valid());
  ASSERT_EQ("key00000100", ExtractUserKey(iter->key()).ToString());
}

// End-to-end: the same workload against a CPU-compaction DB and an
// FPGA-offload DB must produce identical logical contents, and the
// offload DB must actually offload.
class OffloadDbTest : public testing::Test {
 public:
  OffloadDbTest() : env_(NewMemEnv(Env::Default())) {}

  DB* OpenDb(const std::string& name, CompactionExecutor* executor) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;  // Flush often.
    options.compaction_executor = executor;
    DB* db = nullptr;
    Status s = DB::Open(options, name, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return db;
  }

  std::unique_ptr<Env> env_;
};

TEST_F(OffloadDbTest, OffloadDbMatchesCpuDb) {
  fpga::EngineConfig config;
  config.num_inputs = 9;  // Lets level-0 compactions offload too.
  config.input_width = 8;
  config.value_width = 8;
  DeviceSet devices(config, /*num_cards=*/1);
  FcaeCompactionExecutor fcae_executor(&devices);

  std::unique_ptr<DB> cpu_db(OpenDb("/cpu_db", nullptr));
  std::unique_ptr<DB> fcae_db(OpenDb("/fcae_db", &fcae_executor));

  Random rnd(42);
  WriteOptions wo;
  const int kOps = 4000;
  for (int i = 0; i < kOps; i++) {
    std::string key = test::Cat("user", rnd.Uniform(800));
    if (rnd.Uniform(10) < 8) {
      std::string value(64 + rnd.Uniform(192),
                        static_cast<char>('a' + i % 26));
      ASSERT_TRUE(cpu_db->Put(wo, key, value).ok());
      ASSERT_TRUE(fcae_db->Put(wo, key, value).ok());
    } else {
      ASSERT_TRUE(cpu_db->Delete(wo, key).ok());
      ASSERT_TRUE(fcae_db->Delete(wo, key).ok());
    }
  }

  // Push both through full compactions.
  for (DB* db : {cpu_db.get(), fcae_db.get()}) {
    auto* impl = reinterpret_cast<DBImpl*>(db);
    impl->TEST_CompactMemTable().IgnoreError();  // device env in play
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  // Compare full scans.
  std::unique_ptr<Iterator> cpu_iter(cpu_db->NewIterator(ReadOptions()));
  std::unique_ptr<Iterator> fcae_iter(fcae_db->NewIterator(ReadOptions()));
  cpu_iter->SeekToFirst();
  fcae_iter->SeekToFirst();
  size_t entries = 0;
  while (cpu_iter->Valid() && fcae_iter->Valid()) {
    ASSERT_EQ(cpu_iter->key().ToString(), fcae_iter->key().ToString());
    ASSERT_EQ(cpu_iter->value().ToString(), fcae_iter->value().ToString());
    cpu_iter->Next();
    fcae_iter->Next();
    entries++;
  }
  ASSERT_FALSE(cpu_iter->Valid());
  ASSERT_FALSE(fcae_iter->Valid());
  ASSERT_GT(entries, 100u);

  // The device must actually have been used.
  auto* fcae_impl = reinterpret_cast<DBImpl*>(fcae_db.get());
  CompactionExecStats stats = fcae_impl->OffloadStats();
  EXPECT_GT(stats.device_cycles, 0u);
  EXPECT_GT(devices.device(0)->kernels_launched(), 0u);
}

TEST_F(OffloadDbTest, RecordsHostStageTimes) {
  fpga::EngineConfig config;
  config.num_inputs = 9;
  config.input_width = 8;
  config.value_width = 8;
  DeviceSet devices(config, /*num_cards=*/1);
  FcaeCompactionExecutor executor(&devices);
  std::unique_ptr<DB> db(OpenDb("/stages_db", &executor));
  Random rnd(11);
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), test::Cat("k", rnd.Uniform(1000)),
                        std::string(100, 'v'))
                    .ok());
  }
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  impl->TEST_CompactMemTable().IgnoreError();  // device env in play
  for (int level = 0; level < kNumLevels - 1; level++) {
    impl->TEST_CompactRange(level, nullptr, nullptr);
  }
  ASSERT_GT(devices.device(0)->kernels_launched(), 0u);

  // Each host stage is timed inside the job's wall time, on its own.
  const CompactionExecStats stats = impl->OffloadStats();
  EXPECT_GT(stats.stage_micros, 0);
  EXPECT_GT(stats.verify_micros, 0);
  EXPECT_GT(stats.assemble_micros, 0);
  EXPECT_LE(stats.stage_micros + stats.verify_micros + stats.assemble_micros,
            stats.micros);
}

TEST_F(OffloadDbTest, SchedulerFallsBackWhenInputsExceedN) {
  // A 2-input device cannot take level-0 compactions (4+ overlapping
  // files + the level-1 run); those must fall back to software while
  // the DB still works correctly.
  fpga::EngineConfig config;
  config.num_inputs = 2;
  DeviceSet devices(config, /*num_cards=*/1);
  FcaeCompactionExecutor executor(&devices);

  std::unique_ptr<DB> db(OpenDb("/fallback_db", &executor));
  Random rnd(7);
  WriteOptions wo;
  for (int i = 0; i < 3000; i++) {
    std::string key = test::Cat("k", rnd.Uniform(500));
    ASSERT_TRUE(db->Put(wo, key, std::string(128, 'v')).ok());
  }
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  impl->TEST_CompactMemTable().IgnoreError();  // device env in play
  for (int level = 0; level < kNumLevels - 1; level++) {
    impl->TEST_CompactRange(level, nullptr, nullptr);
  }

  std::string value;
  int found = 0;
  for (int i = 0; i < 500; i++) {
    if (db->Get(ReadOptions(), test::Cat("k", i), &value).ok()) {
      found++;
    }
  }
  EXPECT_GT(found, 400);
}

TEST(CpuCompactorTest, DefaultOptionsKeepNewestVersionOfEachKey) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();
  fpga::DeviceInput newer, older;
  ASSERT_TRUE(fpga_test::BuildDeviceInput(
                  env.get(), options, {MakeRun("key", 0, 100, 1, 5000, 16)},
                  0, &newer)
                  .ok());
  ASSERT_TRUE(fpga_test::BuildDeviceInput(
                  env.get(), options, {MakeRun("key", 0, 100, 1, 1000, 16)},
                  1, &older)
                  .ok());

  fpga::DeviceOutput output;
  CpuCompactStats stats;
  ASSERT_TRUE(
      CpuCompactImages({&newer, &older}, CpuCompactorOptions(), &output,
                       &stats)
          .ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(fpga_test::FlattenOutput(output, &got).ok());
  std::map<std::string, uint64_t> newest;  // User key -> newest sequence.
  for (const auto& kv : got) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(kv.first, &parsed));
    uint64_t& seq = newest[parsed.user_key.ToString()];
    seq = std::max(seq, parsed.sequence);
  }
  ASSERT_EQ(100u, newest.size());
  for (const auto& [key, seq] : newest) EXPECT_GE(seq, 5000u) << key;
}

/// Picks compactions from a VersionSet recovered on a mem env, whose
/// files exist only as metadata (no table is opened).
class EngineInputsNeededTest : public testing::Test {
 protected:
  EngineInputsNeededTest() : env_(NewMemEnv(Env::Default())) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options_, "/runs", &db).ok());
    delete db;
    table_cache_ = std::make_unique<TableCache>("/runs", options_, 100);
    versions_ = std::make_unique<VersionSet>("/runs", &options_,
                                             table_cache_.get(), &icmp_);
    bool save_manifest = false;
    EXPECT_TRUE(versions_->Recover(&save_manifest).ok());
  }

  /// Adds a file over user keys [smallest, largest] at `level`.
  void AddFile(VersionEdit* edit, int level, const char* smallest,
               const char* largest) {
    edit->AddFile(level, versions_->NewFileNumber(), 1000,
                  InternalKey(smallest, 1, kTypeValue),
                  InternalKey(largest, 1, kTypeValue));
  }

  /// CompactRange(level) over [lo, hi]: its input file counts per side
  /// and the engine inputs it needs.
  std::vector<int> Picked(int level, const char* lo, const char* hi) {
    const InternalKey begin(lo, kMaxSequenceNumber, kValueTypeForSeek);
    const InternalKey end(hi, 0, kValueTypeForSeek);
    std::unique_ptr<Compaction> c(versions_->CompactRange(level, &begin, &end));
    if (c == nullptr) return {};
    CompactionJob job;
    job.compaction = c.get();
    return {c->num_input_files(0), c->num_input_files(1),
            EngineInputsNeeded(job)};
  }

  std::unique_ptr<Env> env_;
  Options options_;
  const InternalKeyComparator icmp_{BytewiseComparator()};
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<VersionSet> versions_;
};

TEST_F(EngineInputsNeededTest, CountsRunsNotFiles) {
  VersionEdit edit;
  AddFile(&edit, 0, "a", "c");  // Three overlapping level-0 files.
  AddFile(&edit, 0, "b", "d");
  AddFile(&edit, 0, "c", "e");
  AddFile(&edit, 0, "m", "n");  // A level-0 file over no level-1 file.
  AddFile(&edit, 1, "a", "b");
  AddFile(&edit, 1, "d", "e");
  AddFile(&edit, 1, "x", "z");
  AddFile(&edit, 2, "f", "g");
  AddFile(&edit, 2, "h", "i");
  AddFile(&edit, 3, "f", "f5");
  AddFile(&edit, 3, "g", "h");
  AddFile(&edit, 3, "h5", "i");
  {
    Mutex mu;
    MutexLock lock(&mu);
    ASSERT_TRUE(versions_->LogAndApply(&edit, &mu).ok());
  }

  // One input per level-0 file, plus one for the level-1 run.
  EXPECT_EQ((std::vector<int>{3, 2, 4}), Picked(0, "a", "e"));
  // A lone level-0 file with nothing below it.
  EXPECT_EQ((std::vector<int>{1, 0, 1}), Picked(0, "m", "n"));
  // Sorted levels concatenate: one input per level.
  EXPECT_EQ((std::vector<int>{2, 3, 2}), Picked(2, "f", "i"));
}

}  // namespace host
}  // namespace fcae
