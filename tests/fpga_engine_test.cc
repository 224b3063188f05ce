#include "fpga/compaction_engine.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>

#include "fpga/comparer.h"
#include "fpga/decoder.h"
#include "fpga/encoder.h"
#include "fpga/kv_transfer.h"
#include "fpga_test_util.h"
#include "gtest/gtest.h"
#include "host/cpu_compactor.h"
#include "host/fcae_device.h"
#include "util/coding.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {
namespace fpga {

using fpga_test::BuildDeviceInput;
using fpga_test::FlattenOutput;
using fpga_test::MakeRun;
using fpga_test::TestKv;

class FpgaEngineTest : public testing::Test {
 public:
  FpgaEngineTest() : env_(NewMemEnv(Env::Default())) {
    options_.env = env_.get();
    config_.num_inputs = 2;
    config_.value_width = 16;
  }

  /// Stages each run as one DeviceInput.
  void Stage(const std::vector<std::vector<std::vector<TestKv>>>& runs) {
    inputs_.clear();
    for (size_t i = 0; i < runs.size(); i++) {
      auto input = std::make_unique<DeviceInput>();
      ASSERT_TRUE(BuildDeviceInput(env_.get(), options_, runs[i],
                                   static_cast<int>(i), input.get())
                      .ok());
      inputs_.push_back(std::move(input));
    }
  }

  /// Runs the engine over the staged inputs.
  Status RunEngine(uint64_t snapshot, bool drop_deletions,
                   DeviceOutput* output, EngineStats* stats) {
    std::vector<const DeviceInput*> ptrs;
    for (const auto& in : inputs_) ptrs.push_back(in.get());
    CompactionEngine engine(config_, ptrs, snapshot, drop_deletions, output);
    Status s = engine.Run();
    if (s.ok()) *stats = engine.stats();
    return s;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  EngineConfig config_;
  std::vector<std::unique_ptr<DeviceInput>> inputs_;
};

TEST_F(FpgaEngineTest, MergesTwoDisjointRuns) {
  auto run_a = MakeRun("key", 0, 500, 2, 1000, 64);     // Even keys.
  auto run_b = MakeRun("key", 1, 500, 2, 2000, 64);     // Odd keys.
  Stage({{run_a}, {run_b}});

  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());

  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  ASSERT_EQ(1000u, got.size());
  EXPECT_EQ(1000u, stats.records_in);
  EXPECT_EQ(1000u, stats.records_out);
  EXPECT_EQ(0u, stats.records_dropped);
  EXPECT_GT(stats.cycles, 0u);

  // Sorted by internal key and matching the interleaved expectation.
  for (size_t i = 1; i < got.size(); i++) {
    ASSERT_LT(ExtractUserKey(got[i - 1].first).ToString(),
              ExtractUserKey(got[i].first).ToString());
  }
}

TEST_F(FpgaEngineTest, DropsSupersededVersions) {
  // Input A (newer sequence numbers) overwrites keys in input B.
  auto newer = MakeRun("key", 0, 300, 1, 5000, 32);
  auto older = MakeRun("key", 0, 300, 1, 1000, 32);
  Stage({{newer}, {older}});

  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());

  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  ASSERT_EQ(300u, got.size());
  EXPECT_EQ(600u, stats.records_in);
  EXPECT_EQ(300u, stats.records_dropped);
  for (const auto& kv : got) {
    ParsedInternalKey parsed;
    ASSERT_TRUE(ParseInternalKey(kv.first, &parsed));
    EXPECT_GE(parsed.sequence, 5000u);  // Only the new versions survive.
  }
}

TEST_F(FpgaEngineTest, SnapshotPreservesOldVersions) {
  auto newer = MakeRun("key", 0, 100, 1, 5000, 32);
  auto older = MakeRun("key", 0, 100, 1, 1000, 32);
  Stage({{newer}, {older}});

  DeviceOutput output;
  EngineStats stats;
  // A snapshot at sequence 3000 pins the old versions.
  ASSERT_TRUE(RunEngine(3000, true, &output, &stats).ok());

  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  ASSERT_EQ(200u, got.size());
  EXPECT_EQ(0u, stats.records_dropped);
}

TEST_F(FpgaEngineTest, DeletionMarkersDroppedOnlyAtBaseLevel) {
  auto deletions = MakeRun("key", 0, 200, 1, 5000, 0, kTypeDeletion);
  auto values = MakeRun("key", 0, 200, 1, 1000, 32);

  {
    // drop_deletions = true: everything vanishes.
    Stage({{deletions}, {values}});
    DeviceOutput output;
    EngineStats stats;
    ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(FlattenOutput(output, &got).ok());
    EXPECT_EQ(0u, got.size());
    EXPECT_EQ(400u, stats.records_dropped);
    EXPECT_TRUE(output.tables.empty());
  }
  {
    // drop_deletions = false: markers must survive (deeper levels may
    // hold the deleted keys).
    Stage({{deletions}, {values}});
    DeviceOutput output;
    EngineStats stats;
    ASSERT_TRUE(RunEngine(kNoSnapshot, false, &output, &stats).ok());
    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(FlattenOutput(output, &got).ok());
    EXPECT_EQ(200u, got.size());  // Markers kept, old values dropped.
    for (const auto& kv : got) {
      ParsedInternalKey parsed;
      ASSERT_TRUE(ParseInternalKey(kv.first, &parsed));
      EXPECT_EQ(kTypeDeletion, parsed.type);
    }
  }
}

TEST_F(FpgaEngineTest, MultiSstableRunsConcatenate) {
  // One input made of three 2-MB-ish tables forming one sorted run.
  std::vector<std::vector<TestKv>> run;
  run.push_back(MakeRun("key", 0, 400, 1, 100, 128));
  run.push_back(MakeRun("key", 400, 400, 1, 500, 128));
  run.push_back(MakeRun("key", 800, 400, 1, 900, 128));
  auto other = MakeRun("key", 1200, 100, 1, 2000, 128);
  Stage({run, {other}});

  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  ASSERT_EQ(1300u, got.size());
}

TEST_F(FpgaEngineTest, NineInputOverlappingRuns) {
  config_.num_inputs = 9;
  config_.input_width = 8;
  config_.value_width = 8;

  std::vector<std::vector<std::vector<TestKv>>> runs;
  std::map<std::string, std::string> model;  // user key -> value
  for (int i = 0; i < 9; i++) {
    // Overlapping strided runs with distinct sequence ranges.
    auto run = MakeRun("key", i, 150, 9, 1000 * (i + 1), 64);
    for (const TestKv& kv : run) {
      model[kv.user_key] = kv.value;  // All user keys distinct here.
    }
    runs.push_back({run});
  }
  Stage(runs);

  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  ASSERT_EQ(model.size(), got.size());
  auto expected = model.begin();
  for (const auto& kv : got) {
    ASSERT_EQ(expected->first, ExtractUserKey(kv.first).ToString());
    ASSERT_EQ(expected->second, kv.second);
    ++expected;
  }
}

TEST_F(FpgaEngineTest, SstableRolloverAtThreshold) {
  config_.sstable_threshold = 64 * 1024;  // Small, to force rollover.
  config_.compress_output = false;        // Keep output sizes predictable.
  auto run_a = MakeRun("key", 0, 600, 2, 1000, 256);
  auto run_b = MakeRun("key", 1, 600, 2, 2000, 256);
  Stage({{run_a}, {run_b}});

  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
  ASSERT_GT(output.tables.size(), 1u);
  for (const DeviceOutputTable& t : output.tables) {
    ASSERT_FALSE(t.index_entries.empty());
    ASSERT_GT(t.num_entries, 0u);
    // Bounds recorded for MetaOut must bracket the table contents.
    ASSERT_LE(t.smallest_key, t.largest_key);
  }
  // Tables are ordered and non-overlapping.
  for (size_t i = 1; i < output.tables.size(); i++) {
    ASSERT_LT(ExtractUserKey(output.tables[i - 1].largest_key).ToString(),
              ExtractUserKey(output.tables[i].smallest_key).ToString());
  }
}

TEST_F(FpgaEngineTest, MatchesCpuCompactorBitExactly) {
  auto run_a = MakeRun("alpha", 0, 700, 3, 9000, 100);
  auto run_b = MakeRun("alpha", 1, 700, 3, 4000, 100);
  // Some overlapping keys too.
  auto run_b2 = MakeRun("alpha", 0, 100, 3, 100, 100);

  Stage({{run_a}, {run_b, run_b2}});

  DeviceOutput engine_out;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &engine_out, &stats).ok());

  std::vector<const DeviceInput*> ptrs;
  for (const auto& in : inputs_) ptrs.push_back(in.get());
  host::CpuCompactorOptions cpu_options;
  cpu_options.smallest_snapshot = kNoSnapshot;
  cpu_options.drop_deletions = true;
  DeviceOutput cpu_out;
  host::CpuCompactStats cpu_stats;
  ASSERT_TRUE(
      host::CpuCompactImages(ptrs, cpu_options, &cpu_out, &cpu_stats).ok());

  // The two execution paths must produce identical tables: same count,
  // same data bytes, same index entries, same bounds.
  ASSERT_EQ(cpu_out.tables.size(), engine_out.tables.size());
  for (size_t i = 0; i < cpu_out.tables.size(); i++) {
    EXPECT_EQ(cpu_out.tables[i].data_memory, engine_out.tables[i].data_memory)
        << "table " << i;
    EXPECT_EQ(cpu_out.tables[i].smallest_key,
              engine_out.tables[i].smallest_key);
    EXPECT_EQ(cpu_out.tables[i].largest_key, engine_out.tables[i].largest_key);
    ASSERT_EQ(cpu_out.tables[i].index_entries.size(),
              engine_out.tables[i].index_entries.size());
  }
  EXPECT_EQ(cpu_stats.records_in, stats.records_in);
  EXPECT_EQ(cpu_stats.records_dropped, stats.records_dropped);
}

TEST_F(FpgaEngineTest, AllOptLevelsProduceIdenticalOutput) {
  auto run_a = MakeRun("key", 0, 400, 2, 1000, 128);
  auto run_b = MakeRun("key", 1, 400, 2, 2000, 128);

  std::vector<std::pair<std::string, std::string>> reference;
  uint64_t prev_cycles = 0;
  std::vector<uint64_t> cycles_per_level;
  for (OptLevel level :
       {OptLevel::kBasic, OptLevel::kBlockSeparation,
        OptLevel::kKeyValueSeparation, OptLevel::kFullBandwidth}) {
    config_.opt_level = level;
    Stage({{run_a}, {run_b}});
    DeviceOutput output;
    EngineStats stats;
    ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
    std::vector<std::pair<std::string, std::string>> got;
    ASSERT_TRUE(FlattenOutput(output, &got).ok());
    if (reference.empty()) {
      reference = got;
    } else {
      ASSERT_EQ(reference, got) << "opt level " << static_cast<int>(level);
    }
    cycles_per_level.push_back(stats.cycles);
    (void)prev_cycles;
  }
  // Each optimization must speed the engine up (paper Sections V-B..D).
  for (size_t i = 1; i < cycles_per_level.size(); i++) {
    EXPECT_LT(cycles_per_level[i], cycles_per_level[i - 1])
        << "optimization level " << i << " did not improve cycles";
  }
}

TEST_F(FpgaEngineTest, EmptyInputsProduceEmptyOutput) {
  Stage({{std::vector<TestKv>{}}, {std::vector<TestKv>{}}});
  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
  EXPECT_TRUE(output.tables.empty());
  EXPECT_EQ(0u, stats.records_in);
}

TEST_F(FpgaEngineTest, SingleInputPassThrough) {
  config_.num_inputs = 2;
  auto run = MakeRun("key", 0, 300, 1, 64, 64);
  Stage({{run}});
  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  ASSERT_EQ(300u, got.size());
}

TEST_F(FpgaEngineTest, CorruptStagedDataSurfacesError) {
  auto run = MakeRun("key", 0, 100, 1, 64, 64);
  Stage({{run}});
  // Flip a byte in the staged data region.
  inputs_[0]->data_memory[20] ^= 0x80;
  DeviceOutput output;
  EngineStats stats;
  Status s = RunEngine(kNoSnapshot, true, &output, &stats);
  ASSERT_FALSE(s.ok());

  // The CPU reference reads the same bytes and must fail too.
  host::CpuCompactorOptions cpu_options;
  cpu_options.smallest_snapshot = kNoSnapshot;
  cpu_options.drop_deletions = true;
  DeviceOutput cpu_out;
  host::CpuCompactStats cpu_stats;
  s = host::CpuCompactImages({inputs_[0].get()}, cpu_options, &cpu_out,
                             &cpu_stats);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

// Value-length sweep: the engine must stay functional across the
// paper's whole parameter range (Table V rows).
class FpgaEngineValueSweep : public FpgaEngineTest,
                             public testing::WithParamInterface<int> {};

TEST_P(FpgaEngineValueSweep, MergeCorrectAcrossValueLengths) {
  const int value_len = GetParam();
  const int n = 3000000 / (value_len + 24) / 10;  // Keep runtime modest.
  auto run_a = MakeRun("key", 0, n, 2, 1000, value_len);
  auto run_b = MakeRun("key", 1, n, 2, 2000, value_len);
  Stage({{run_a}, {run_b}});

  DeviceOutput output;
  EngineStats stats;
  ASSERT_TRUE(RunEngine(kNoSnapshot, true, &output, &stats).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  ASSERT_EQ(static_cast<size_t>(2 * n), got.size());
  EXPECT_GT(stats.CompactionSpeedMBps(config_), 0.0);
}

INSTANTIATE_TEST_SUITE_P(ValueLengths, FpgaEngineValueSweep,
                         testing::Values(64, 128, 256, 512, 1024, 2048));

TEST_F(FpgaEngineTest, KeyBoundsRestrictMergeToShard) {
  // Sharded offload: the engine's Key-Value Transfer must drop every
  // record outside (lower, upper] and account it separately, so the
  // records_in == records_out + records_dropped invariant still holds.
  auto run_a = MakeRun("key", 0, 400, 2, 1000, 64);  // Even keys 0..798.
  auto run_b = MakeRun("key", 1, 400, 2, 2000, 64);  // Odd keys 1..799.
  Stage({{run_a}, {run_b}});

  KeyBounds bounds;
  bounds.has_lower = true;
  bounds.lower = "key00000199";  // Exclusive.
  bounds.has_upper = true;
  bounds.upper = "key00000599";  // Inclusive.
  ASSERT_TRUE(bounds.active());

  std::vector<const DeviceInput*> ptrs;
  for (const auto& in : inputs_) ptrs.push_back(in.get());
  DeviceOutput output;
  CompactionEngine engine(config_, ptrs, kNoSnapshot,
                          /*drop_deletions=*/true, &output, &bounds);
  ASSERT_TRUE(engine.Run().ok());
  const EngineStats stats = engine.stats();

  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  // Exactly the user keys in (key00000199, key00000599]: 200..599.
  ASSERT_EQ(400u, got.size());
  for (const auto& kv : got) {
    const std::string user_key = kv.first.substr(0, kv.first.size() - 8);
    EXPECT_GT(user_key, bounds.lower);
    EXPECT_LE(user_key, bounds.upper);
  }
  EXPECT_EQ(800u, stats.records_in);
  EXPECT_EQ(400u, stats.records_out);
  EXPECT_EQ(400u, stats.records_bounds_dropped);
  EXPECT_EQ(stats.records_in, stats.records_out + stats.records_dropped);
}

TEST_F(FpgaEngineTest, InactiveKeyBoundsChangeNothing) {
  auto run_a = MakeRun("key", 0, 300, 2, 1000, 64);
  auto run_b = MakeRun("key", 1, 300, 2, 2000, 64);
  Stage({{run_a}, {run_b}});

  KeyBounds bounds;  // Neither side set: the merge is unrestricted.
  ASSERT_FALSE(bounds.active());
  std::vector<const DeviceInput*> ptrs;
  for (const auto& in : inputs_) ptrs.push_back(in.get());
  DeviceOutput output;
  CompactionEngine engine(config_, ptrs, kNoSnapshot,
                          /*drop_deletions=*/true, &output, &bounds);
  ASSERT_TRUE(engine.Run().ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(output, &got).ok());
  EXPECT_EQ(600u, got.size());
  EXPECT_EQ(0u, engine.stats().records_bounds_dropped);
}

// Golden runs: every EngineStats field and a hash of each output table,
// recorded from the engine at a commit where it ticked every module once
// per simulated cycle. However Run() advances the modules, the cycle
// model must reproduce them exactly; only a deliberate change to the
// model itself may re-record a row (a mismatch prints the new row).
namespace {

constexpr int kNumStatsFields = 20;

const char* const kStatsFieldNames[kNumStatsFields] = {
    "cycles",
    "records_in",
    "records_out",
    "records_dropped",
    "records_bounds_dropped",
    "input_bytes",
    "output_bytes",
    "decoder_fetch_stalls",
    "decoder_backpressure",
    "comparer_waits",
    "encoder_write_stalls",
    "decoder_busy",
    "comparer_busy",
    "transfer_busy",
    "encoder_busy",
    "fifo_key_stream_peak",
    "fifo_transfer_peak",
    "fifo_selection_peak",
    "fifo_output_peak",
    "fifo_write_queue_peak",
};

std::array<uint64_t, kNumStatsFields> StatsFields(const EngineStats& s) {
  return {s.cycles,
          s.records_in,
          s.records_out,
          s.records_dropped,
          s.records_bounds_dropped,
          s.input_bytes,
          s.output_bytes,
          s.decoder_fetch_stalls,
          s.decoder_backpressure,
          s.comparer_waits,
          s.encoder_write_stalls,
          s.decoder_busy,
          s.comparer_busy,
          s.transfer_busy,
          s.encoder_busy,
          s.fifo_key_stream_peak,
          s.fifo_transfer_peak,
          s.fifo_selection_peak,
          s.fifo_output_peak,
          s.fifo_write_queue_peak};
}

uint64_t Fnv1a(uint64_t h, const std::string& bytes) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  std::string bytes;
  PutFixed64(&bytes, v);
  return Fnv1a(h, bytes);
}

/// One hash per output table over its data bytes, index entries, key
/// bounds and entry count, comma-separated in table order.
std::string TableHashes(const DeviceOutput& output) {
  std::string hashes;
  for (const DeviceOutputTable& t : output.tables) {
    uint64_t h = Fnv1a(0xcbf29ce484222325ull, t.data_memory);
    for (const OutputIndexEntry& e : t.index_entries) {
      h = Fnv1a(Fnv1a(Fnv1a(h, e.last_key), e.offset), e.size);
    }
    h = Fnv1a(Fnv1a(Fnv1a(h, t.smallest_key), t.largest_key), t.num_entries);
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    if (!hashes.empty()) hashes += ",";
    hashes += buf;
  }
  return hashes;
}

struct GoldenSetup {
  std::string name;
  EngineConfig config;
  int inputs = 2;
  size_t value_len = 0;
  bool empty = false;       // Every input is one table with no records.
  bool no_tables = false;   // Every input stages no table at all.
  uint64_t snapshot = kNoSnapshot;
  bool drop_deletions = true;
  bool bounded = false;     // Restrict the merge to a KeyBounds shard.
  bool tournament = false;  // Run through FcaeDevice::ExecuteTournament.
};

/// The matrix: every OptLevel x (N, inputs) shape x value length, with
/// output compression, snapshot and drop_deletions rotating across rows,
/// then single cases for the remaining knobs and edges.
std::vector<GoldenSetup> GoldenSetups() {
  static const char* const kLevels[] = {"basic", "blocksep", "kvsep",
                                        "full"};
  static const std::pair<int, int> kShapes[] = {{2, 1}, {2, 2}, {9, 1},
                                                {9, 2}, {9, 5}, {9, 9}};
  std::vector<GoldenSetup> setups;
  for (int level = 0; level < 4; level++) {
    for (const auto& [n, inputs] : kShapes) {
      for (size_t value_len : {0, 100, 1024}) {
        const size_t row = setups.size();
        GoldenSetup s;
        s.config.opt_level = static_cast<OptLevel>(level);
        s.config.num_inputs = n;
        s.config.sstable_threshold = 16 * 1024;  // Several output tables.
        s.config.compress_output = row % 2 == 0;
        s.inputs = inputs;
        s.value_len = value_len;
        if (row % 3 == 2) s.snapshot = inputs * 100000ull - 50000;
        s.drop_deletions = row % 4 != 3;
        s.name = std::string(kLevels[level]) + ".n" + std::to_string(n) +
                 ".in" + std::to_string(inputs) + ".v" +
                 std::to_string(value_len) +
                 (s.config.compress_output ? ".z" : "");
        setups.push_back(s);
      }
    }
  }
  auto extra = [&](const std::string& name, OptLevel level, int n,
                   int inputs, size_t value_len) -> GoldenSetup& {
    GoldenSetup s;
    s.name = name;
    s.config.opt_level = level;
    s.config.num_inputs = n;
    s.inputs = inputs;
    s.value_len = value_len;
    setups.push_back(s);
    return setups.back();
  };
  extra("full.bounds", OptLevel::kFullBandwidth, 2, 2, 100).bounded = true;
  extra("basic.bounds", OptLevel::kBasic, 9, 5, 0).bounded = true;
  extra("full.fifo1", OptLevel::kFullBandwidth, 9, 5, 100)
      .config.record_fifo_depth = 1;
  extra("kvsep.fifo1", OptLevel::kKeyValueSeparation, 2, 2, 1024)
      .config.record_fifo_depth = 1;
  extra("blocksep.fifo2", OptLevel::kBlockSeparation, 2, 2, 0)
      .config.record_fifo_depth = 2;
  extra("full.fifo2", OptLevel::kFullBandwidth, 9, 9, 100)
      .config.record_fifo_depth = 2;
  extra("full.prefetch1", OptLevel::kFullBandwidth, 2, 2, 1024)
      .config.block_prefetch_depth = 1;
  extra("kvsep.prefetch1", OptLevel::kKeyValueSeparation, 9, 5, 100)
      .config.block_prefetch_depth = 1;
  {
    // Narrow AXI and value paths, as in the 9-input KCU1500 build.
    EngineConfig& c = extra("full.narrow", OptLevel::kFullBandwidth, 9, 9,
                            100).config;
    c.input_width = 8;
    c.value_width = 8;
    c.output_width = 8;
  }
  // Tiny data blocks in the basic design: a large BRAM index block
  // keeps the finalized encoder busy after its last block write drains.
  extra("basic.smallblocks", OptLevel::kBasic, 2, 2, 0)
      .config.data_block_threshold = 256;
  // The last block write outlives the finalized encoder.
  extra("full.lastwrite", OptLevel::kFullBandwidth, 2, 1, 1024);
  // Empty tables: the decoders exhaust on the first cycle.
  extra("full.empty", OptLevel::kFullBandwidth, 2, 2, 0).empty = true;
  extra("basic.empty", OptLevel::kBasic, 9, 9, 100).empty = true;
  // No tables: the transfer is done before the first cycle, so the
  // encoder only learns it from the upstream-done notification.
  extra("full.notables", OptLevel::kFullBandwidth, 2, 2, 0).no_tables =
      true;
  extra("basic.notables", OptLevel::kBasic, 9, 5, 0).no_tables = true;
  extra("full.tournament", OptLevel::kFullBandwidth, 2, 5, 100).tournament =
      true;
  extra("basic.tournament", OptLevel::kBasic, 2, 3, 0).tournament = true;
  return setups;
}

/// Each input is one sorted run of two tables. Keys interleave and
/// collide across inputs (so the Validity Check drops some), input 0 is
/// the newest and carries deletion markers, and every third value is
/// incompressible.
std::vector<std::vector<std::vector<TestKv>>> GoldenInputs(
    const GoldenSetup& setup) {
  int records = setup.value_len == 0 ? 300 : setup.value_len <= 100 ? 60 : 16;
  if (setup.empty) records = 0;
  uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<std::vector<std::vector<TestKv>>> runs;
  for (int i = 0; i < setup.inputs; i++) {
    if (setup.no_tables) {
      runs.emplace_back();
      continue;
    }
    std::vector<TestKv> run;
    for (int m = 0; m < records; m++) {
      TestKv kv;
      char key[32];
      std::snprintf(key, sizeof(key), "key%08d", 2 * i + 3 * m);
      kv.user_key = key;
      kv.sequence = static_cast<uint64_t>(setup.inputs - i) * 100000 + m;
      kv.type = (i == 0 && m % 5 == 4) ? kTypeDeletion : kTypeValue;
      if (kv.type == kTypeValue && m % 3 == 0) {
        for (size_t b = 0; b < setup.value_len; b++) {
          rng = rng * 6364136223846793005ull + 1442695040888963407ull;
          kv.value.push_back(static_cast<char>(rng >> 56));
        }
      } else if (kv.type == kTypeValue) {
        kv.value.assign(setup.value_len,
                        static_cast<char>('a' + (i + m) % 26));
      }
      run.push_back(std::move(kv));
    }
    if (setup.empty) {
      runs.push_back({run});
      continue;
    }
    const auto mid = run.begin() + run.size() / 2;
    runs.push_back({std::vector<TestKv>(run.begin(), mid),
                    std::vector<TestKv>(mid, run.end())});
  }
  return runs;
}

struct GoldenRun {
  const char* name;
  uint64_t stats[kNumStatsFields];
  const char* tables;
};

const GoldenRun kGoldenRuns[] = {
    {"basic.n2.in1.v0.z",
     {17887, 300, 240, 60, 0, 2575, 2002, 360, 9390, 206, 0, 5700, 17100, 5700,
      4573, 31, 32, 1, 1, 1},
     "5bd4d4480a12a17c"},
    {"basic.n2.in1.v100",
     {18532, 60, 48, 12, 0, 2515, 5466, 351, 2475, 302, 0, 5940, 17820, 5940,
      5729, 31, 32, 1, 1, 1},
     "a34b33d760e5a7dc"},
    {"basic.n2.in1.v1024.z",
     {44450, 16, 16, 0, 0, 5914, 5796, 804, 0, 1354, 0, 13616, 40848, 13616,
      13642, 11, 12, 1, 1, 1},
     "a2faad1ebcfdf12f"},
    {"basic.n2.in2.v0",
     {35523, 600, 600, 0, 0, 5143, 7844, 718, 49810, 205, 0, 11400, 34200,
      11400, 11417, 32, 32, 1, 1, 1},
     "b0d49cfb939fe6b9"},
    {"basic.n2.in2.v100.z",
     {40144, 120, 108, 12, 0, 5497, 5251, 760, 23440, 331, 0, 13080, 39240,
      13080, 12874, 32, 32, 1, 1, 1},
     "48b458575b397901"},
    {"basic.n2.in2.v1024",
     {94529, 32, 32, 0, 0, 12955, 30296, 1749, 0, 1354, 0, 30304, 90912, 30304,
      30356, 13, 14, 1, 1, 1},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"basic.n9.in1.v0.z",
     {34987, 300, 240, 60, 0, 2575, 2002, 360, 24666, 206, 0, 5700, 34200, 5700,
      4573, 31, 32, 1, 1, 1},
     "5bd4d4480a12a17c"},
    {"basic.n9.in1.v100",
     {36335, 60, 60, 0, 0, 2515, 5611, 351, 10971, 302, 0, 5940, 35640, 5940,
      5957, 31, 32, 1, 1, 1},
     "d881b7fb06c65b9a"},
    {"basic.n9.in1.v1024.z",
     {85298, 16, 16, 0, 0, 5914, 5796, 804, 0, 1354, 0, 13616, 81696, 13616,
      13642, 13, 14, 1, 1, 1},
     "a2faad1ebcfdf12f"},
    {"basic.n9.in2.v0",
     {69626, 600, 540, 60, 0, 5143, 7078, 718, 110857, 205, 0, 11400, 68400,
      11400, 10277, 32, 32, 1, 1, 1},
     "7e861926c38b4174"},
    {"basic.n9.in2.v100.z",
     {79384, 120, 108, 12, 0, 5497, 5251, 760, 60067, 331, 0, 13080, 78480,
      13080, 12874, 32, 32, 1, 1, 1},
     "48b458575b397901"},
    {"basic.n9.in2.v1024",
     {185441, 32, 32, 0, 0, 12955, 30296, 1749, 0, 1354, 0, 30304, 181824,
      30304, 30356, 15, 15, 1, 1, 1},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"basic.n9.in5.v0.z",
     {172954, 1500, 844, 656, 0, 12864, 6182, 1797, 738583, 206, 0, 28500,
      171000, 28500, 16058, 32, 32, 1, 1, 1},
     "1311e00c2acd277a"},
    {"basic.n9.in5.v100",
     {208223, 300, 172, 128, 0, 14478, 19521, 1993, 442017, 332, 0, 34500,
      207000, 34500, 20507, 32, 32, 1, 1, 1},
     "9aeab23eaa41d0fa,894cfab4227c4e68"},
    {"basic.n9.in5.v1024.z",
     {486011, 80, 66, 14, 0, 34080, 27700, 4584, 0, 1354, 0, 80368, 482208,
      80368, 65853, 16, 16, 1, 1, 1},
     "2fbd8a65b577de2f,88bbe70f6b58fe0d"},
    {"basic.n9.in9.v0",
     {311214, 2700, 912, 1788, 0, 23174, 11876, 3238, 2436896, 206, 0, 51300,
      307800, 51300, 17350, 32, 32, 1, 1, 1},
     "0b415e948842a665"},
    {"basic.n9.in9.v100.z",
     {379613, 540, 180, 360, 0, 26444, 8390, 3636, 1501032, 332, 0, 63060,
      378360, 63060, 21450, 32, 32, 1, 1, 1},
     "6e720e6d8d1a2a8e"},
    {"basic.n9.in9.v1024",
     {886708, 144, 74, 70, 0, 62249, 74065, 8364, 0, 1354, 0, 147120, 882720,
      147120, 74231, 16, 16, 1, 1, 1},
     "1702918da5739f7d,d17420e9b1dd9881,de897be6fa5c26f9,1d51b264c41bc233,"
     "948580744c059536"},
    {"blocksep.n2.in1.v0.z",
     {17894, 300, 240, 60, 0, 2575, 2002, 179, 9564, 199, 0, 5700, 17100, 5700,
      4560, 31, 32, 1, 1, 2},
     "5bd4d4480a12a17c"},
    {"blocksep.n2.in1.v100",
     {18579, 60, 60, 0, 0, 2515, 5611, 175, 2644, 295, 0, 5940, 17820, 5940,
      5940, 31, 32, 1, 1, 2},
     "d881b7fb06c65b9a"},
    {"blocksep.n2.in1.v1024.z",
     {44457, 16, 16, 0, 0, 5914, 5796, 303, 0, 1347, 0, 13616, 40848, 13616,
      13616, 11, 12, 1, 1, 2},
     "a2faad1ebcfdf12f"},
    {"blocksep.n2.in2.v0",
     {35433, 600, 540, 60, 0, 5143, 7078, 356, 50158, 198, 0, 11400, 34200,
      11400, 10260, 32, 32, 1, 1, 2},
     "7e861926c38b4174"},
    {"blocksep.n2.in2.v100.z",
     {40151, 120, 108, 12, 0, 5497, 5251, 379, 23807, 324, 0, 13080, 39240,
      13080, 12852, 32, 32, 1, 1, 2},
     "48b458575b397901"},
    {"blocksep.n2.in2.v1024",
     {94536, 32, 32, 0, 0, 12955, 30296, 606, 0, 1347, 0, 30304, 90912, 30304,
      30304, 13, 14, 1, 1, 2},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"blocksep.n9.in1.v0.z",
     {34994, 300, 240, 60, 0, 2575, 2002, 179, 24840, 199, 0, 5700, 34200, 5700,
      4560, 31, 32, 1, 1, 2},
     "5bd4d4480a12a17c"},
    {"blocksep.n9.in1.v100",
     {36302, 60, 48, 12, 0, 2515, 5466, 175, 11140, 295, 0, 5940, 35640, 5940,
      5712, 31, 32, 1, 1, 2},
     "a34b33d760e5a7dc"},
    {"blocksep.n9.in1.v1024.z",
     {85305, 16, 16, 0, 0, 5914, 5796, 303, 0, 1347, 0, 13616, 81696, 13616,
      13616, 13, 14, 1, 1, 2},
     "a2faad1ebcfdf12f"},
    {"blocksep.n9.in2.v0",
     {69730, 600, 600, 0, 0, 5143, 7844, 356, 111205, 198, 0, 11400, 68400,
      11400, 11400, 32, 32, 1, 1, 2},
     "b0d49cfb939fe6b9"},
    {"blocksep.n9.in2.v100.z",
     {79391, 120, 108, 12, 0, 5497, 5251, 379, 60434, 324, 0, 13080, 78480,
      13080, 12852, 32, 32, 1, 1, 2},
     "48b458575b397901"},
    {"blocksep.n9.in2.v1024",
     {185448, 32, 32, 0, 0, 12955, 30296, 606, 0, 1347, 0, 30304, 181824, 30304,
      30304, 15, 15, 1, 1, 2},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"blocksep.n9.in5.v0.z",
     {172961, 1500, 844, 656, 0, 12864, 6182, 893, 739452, 199, 0, 28500,
      171000, 28500, 16036, 32, 32, 1, 1, 2},
     "1311e00c2acd277a"},
    {"blocksep.n9.in5.v100",
     {208289, 300, 184, 116, 0, 14478, 19667, 994, 442981, 325, 0, 34500,
      207000, 34500, 20696, 32, 32, 1, 1, 2},
     "08ef54c3ab551e60,dd9f428ff4e1057f"},
    {"blocksep.n9.in5.v1024.z",
     {486018, 80, 66, 14, 0, 34080, 27700, 1515, 0, 1347, 0, 80368, 482208,
      80368, 65766, 16, 16, 1, 1, 2},
     "2fbd8a65b577de2f,88bbe70f6b58fe0d"},
    {"blocksep.n9.in9.v0",
     {311125, 2700, 852, 1848, 0, 23174, 11102, 1610, 2438461, 199, 0, 51300,
      307800, 51300, 16188, 32, 32, 1, 1, 2},
     "3d0d476f9d3ec2aa"},
    {"blocksep.n9.in9.v100.z",
     {379620, 540, 180, 360, 0, 26444, 8390, 1813, 1502792, 325, 0, 63060,
      378360, 63060, 21420, 32, 32, 1, 1, 2},
     "6e720e6d8d1a2a8e"},
    {"blocksep.n9.in9.v1024",
     {886715, 144, 74, 70, 0, 62249, 74065, 2727, 0, 1347, 0, 147120, 882720,
      147120, 74110, 16, 16, 1, 1, 2},
     "1702918da5739f7d,d17420e9b1dd9881,de897be6fa5c26f9,1d51b264c41bc233,"
     "948580744c059536"},
    {"kvsep.n2.in1.v0.z",
     {17894, 300, 240, 60, 0, 2575, 2002, 179, 9564, 199, 0, 5700, 17100, 5700,
      4560, 31, 32, 1, 1, 2},
     "5bd4d4480a12a17c"},
    {"kvsep.n2.in1.v100",
     {6516, 60, 48, 12, 0, 2515, 5466, 175, 0, 2791, 0, 5940, 3420, 5028, 912,
      1, 2, 1, 1, 2},
     "a34b33d760e5a7dc"},
    {"kvsep.n2.in1.v1024.z",
     {15196, 16, 16, 0, 0, 5914, 5796, 303, 0, 13065, 0, 13616, 912, 13369, 304,
      1, 2, 1, 1, 2},
     "a2faad1ebcfdf12f"},
    {"kvsep.n2.in2.v0",
     {35530, 600, 600, 0, 0, 5143, 7844, 356, 50158, 198, 0, 11400, 34200,
      11400, 11400, 32, 32, 1, 1, 2},
     "b0d49cfb939fe6b9"},
    {"kvsep.n2.in2.v100.z",
     {11777, 120, 108, 12, 0, 5497, 5251, 379, 0, 500, 0, 13080, 6840, 11028,
      2052, 12, 28, 32, 1, 2},
     "48b458575b397901"},
    {"kvsep.n2.in2.v1024",
     {31386, 32, 32, 0, 0, 12955, 30296, 606, 0, 15267, 0, 30304, 1824, 29753,
      608, 3, 9, 15, 1, 2},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"kvsep.n9.in1.v0.z",
     {34994, 300, 240, 60, 0, 2575, 2002, 179, 24840, 199, 0, 5700, 34200, 5700,
      4560, 31, 32, 1, 1, 2},
     "5bd4d4480a12a17c"},
    {"kvsep.n9.in1.v100",
     {7452, 60, 60, 0, 0, 2515, 5611, 175, 0, 310, 0, 5940, 6840, 5028, 1140, 9,
      10, 1, 1, 2},
     "d881b7fb06c65b9a"},
    {"kvsep.n9.in1.v1024.z",
     {15253, 16, 16, 0, 0, 5914, 5796, 303, 0, 12210, 0, 13616, 1824, 13369,
      304, 1, 2, 1, 1, 2},
     "a2faad1ebcfdf12f"},
    {"kvsep.n9.in2.v0",
     {69633, 600, 540, 60, 0, 5143, 7078, 356, 111205, 198, 0, 11400, 68400,
      11400, 10260, 32, 32, 1, 1, 2},
     "7e861926c38b4174"},
    {"kvsep.n9.in2.v100.z",
     {14472, 120, 108, 12, 0, 5497, 5251, 379, 474, 324, 0, 13080, 13680, 11028,
      2052, 32, 32, 1, 1, 2},
     "48b458575b397901"},
    {"kvsep.n9.in2.v1024",
     {31443, 32, 32, 0, 0, 12955, 30296, 606, 0, 13557, 0, 30304, 3648, 29753,
      608, 3, 9, 15, 1, 2},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"kvsep.n9.in5.v0.z",
     {172961, 1500, 844, 656, 0, 12864, 6182, 893, 739452, 199, 0, 28500,
      171000, 28500, 16036, 32, 32, 1, 1, 2},
     "1311e00c2acd277a"},
    {"kvsep.n9.in5.v100",
     {35311, 300, 172, 128, 0, 14478, 19521, 994, 45181, 325, 0, 34500, 34200,
      29028, 3268, 32, 32, 1, 1, 2},
     "9aeab23eaa41d0fa,894cfab4227c4e68"},
    {"kvsep.n9.in5.v1024.z",
     {80781, 80, 66, 14, 0, 34080, 27700, 1515, 0, 6258, 0, 80368, 9120, 78905,
      1254, 7, 14, 32, 1, 2},
     "2fbd8a65b577de2f,88bbe70f6b58fe0d"},
    {"kvsep.n9.in9.v0",
     {311221, 2700, 912, 1788, 0, 23174, 11876, 1610, 2438461, 199, 0, 51300,
      307800, 51300, 17328, 32, 32, 1, 1, 2},
     "0b415e948842a665"},
    {"kvsep.n9.in9.v100.z",
     {62701, 540, 180, 360, 0, 26444, 8390, 1813, 194192, 325, 0, 63060, 61560,
      53028, 3420, 32, 32, 1, 1, 2},
     "6e720e6d8d1a2a8e"},
    {"kvsep.n9.in9.v1024",
     {146502, 144, 74, 70, 0, 62249, 74065, 2727, 0, 4046, 0, 147120, 16416,
      144441, 1406, 13, 16, 32, 1, 2},
     "1702918da5739f7d,d17420e9b1dd9881,de897be6fa5c26f9,1d51b264c41bc233,"
     "948580744c059536"},
    {"full.n2.in1.v0.z",
     {17533, 300, 240, 60, 0, 2575, 2002, 41, 9564, 61, 0, 5700, 17100, 5700,
      4560, 31, 32, 1, 1, 2},
     "5bd4d4480a12a17c"},
    {"full.n2.in1.v100",
     {3631, 60, 60, 0, 0, 2515, 5611, 41, 115, 68, 0, 1476, 3420, 1140, 1140,
      31, 32, 1, 1, 2},
     "d881b7fb06c65b9a"},
    {"full.n2.in1.v1024.z",
     {1404, 16, 16, 0, 0, 5914, 5796, 60, 0, 354, 0, 1136, 912, 889, 304, 1, 2,
      1, 1, 2},
     "a2faad1ebcfdf12f"},
    {"full.n2.in2.v0",
     {34968, 600, 540, 60, 0, 5143, 7078, 82, 50158, 61, 0, 11400, 34200, 11400,
      10260, 32, 32, 1, 1, 2},
     "7e861926c38b4174"},
    {"full.n2.in2.v100.z",
     {7117, 120, 108, 12, 0, 5497, 5251, 85, 3339, 71, 0, 3036, 6840, 2280,
      2052, 32, 32, 1, 1, 2},
     "48b458575b397901"},
    {"full.n2.in2.v1024",
     {2223, 32, 32, 0, 0, 12955, 30296, 120, 0, 170, 0, 2464, 1824, 1913, 608,
      7, 8, 2, 1, 2},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"full.n9.in1.v0.z",
     {34633, 300, 240, 60, 0, 2575, 2002, 41, 24840, 61, 0, 5700, 34200, 5700,
      4560, 31, 32, 1, 1, 2},
     "5bd4d4480a12a17c"},
    {"full.n9.in1.v100",
     {7028, 60, 48, 12, 0, 2515, 5466, 41, 1711, 68, 0, 1476, 6840, 1140, 912,
      31, 32, 1, 1, 2},
     "a34b33d760e5a7dc"},
    {"full.n9.in1.v1024.z",
     {2106, 16, 16, 0, 0, 5914, 5796, 60, 0, 144, 0, 1136, 1824, 889, 304, 6, 7,
      1, 1, 2},
     "a2faad1ebcfdf12f"},
    {"full.n9.in2.v0",
     {69180, 600, 600, 0, 0, 5143, 7844, 82, 111205, 61, 0, 11400, 68400, 11400,
      11400, 32, 32, 1, 1, 2},
     "b0d49cfb939fe6b9"},
    {"full.n9.in2.v100.z",
     {13957, 120, 108, 12, 0, 5497, 5251, 85, 9666, 71, 0, 3036, 13680, 2280,
      2052, 32, 32, 1, 1, 2},
     "48b458575b397901"},
    {"full.n9.in2.v1024",
     {3946, 32, 32, 0, 0, 12955, 30296, 120, 0, 144, 0, 2464, 3648, 1913, 608,
      11, 11, 1, 1, 2},
     "7a1a1855a2267c3c,5e85839a0562b00c"},
    {"full.n9.in5.v0.z",
     {172646, 1500, 844, 656, 0, 12864, 6182, 205, 739450, 61, 0, 28500, 171000,
      28500, 16036, 32, 32, 1, 1, 2},
     "1311e00c2acd277a"},
    {"full.n9.in5.v100",
     {34681, 300, 184, 116, 0, 14478, 19667, 217, 71472, 71, 0, 7716, 34200,
      5700, 3496, 32, 32, 1, 1, 2},
     "08ef54c3ab551e60,dd9f428ff4e1057f"},
    {"full.n9.in5.v1024.z",
     {9483, 80, 66, 14, 0, 34080, 27700, 300, 0, 144, 0, 6448, 9120, 4985, 1254,
      15, 15, 1, 1, 2},
     "2fbd8a65b577de2f,88bbe70f6b58fe0d"},
    {"full.n9.in9.v0",
     {310667, 2700, 852, 1848, 0, 23174, 11102, 369, 2438460, 61, 0, 51300,
      307800, 51300, 16188, 32, 32, 1, 1, 2},
     "3d0d476f9d3ec2aa"},
    {"full.n9.in9.v100.z",
     {62248, 540, 180, 360, 0, 26444, 8390, 393, 242430, 71, 0, 13956, 61560,
      10260, 3420, 32, 32, 1, 1, 2},
     "6e720e6d8d1a2a8e"},
    {"full.n9.in9.v1024",
     {16858, 144, 74, 70, 0, 62249, 74065, 540, 0, 144, 0, 11760, 16416, 9081,
      1406, 16, 16, 1, 1, 2},
     "1702918da5739f7d,d17420e9b1dd9881,de897be6fa5c26f9,1d51b264c41bc233,"
     "948580744c059536"},
    {"full.bounds",
     {7079, 120, 48, 72, 60, 5497, 2351, 85, 3339, 71, 0, 3036, 6840, 2280, 912,
      32, 32, 1, 1, 2},
     "082261b573b43f8f"},
    {"basic.bounds",
     {172807, 1500, 74, 1426, 770, 12864, 567, 1797, 738583, 206, 0, 28500,
      171000, 28500, 1419, 32, 32, 1, 1, 1},
     "0a739720797e8418"},
    {"full.fifo1",
     {34941, 300, 172, 128, 0, 14478, 8252, 217, 161703, 366, 0, 7716, 34200,
      5700, 3268, 1, 1, 1, 1, 2},
     "ec4fde3ecd616c3b"},
    {"kvsep.fifo1",
     {31503, 32, 29, 3, 0, 12955, 12708, 606, 25501, 26512, 0, 30304, 1824,
      29753, 551, 1, 1, 1, 1, 2},
     "570a81fe1a7cdb35"},
    {"blocksep.fifo2",
     {35279, 600, 540, 60, 0, 5143, 4106, 356, 57118, 198, 0, 11400, 34200,
      11400, 10260, 2, 2, 1, 1, 2},
     "67353301c0e749e4"},
    {"full.fifo2",
     {62248, 540, 180, 360, 0, 26444, 8390, 393, 519925, 71, 0, 13956, 61560,
      10260, 3420, 2, 2, 1, 1, 2},
     "6e720e6d8d1a2a8e"},
    {"full.prefetch1",
     {2223, 32, 29, 3, 0, 12955, 12708, 120, 0, 170, 0, 2464, 1824, 1913, 551,
      7, 8, 2, 1, 2},
     "570a81fe1a7cdb35"},
    {"kvsep.prefetch1",
     {35083, 300, 172, 128, 0, 14478, 8252, 994, 45181, 325, 0, 34500, 34200,
      29028, 3268, 32, 32, 1, 1, 2},
     "ec4fde3ecd616c3b"},
    {"full.narrow",
     {62533, 540, 180, 360, 0, 26444, 8390, 1813, 239345, 238, 0, 17124, 61560,
      10260, 3420, 32, 32, 1, 1, 2},
     "6e720e6d8d1a2a8e"},
    {"basic.smallblocks",
     {35181, 600, 540, 60, 0, 5143, 5099, 718, 49810, 205, 0, 11400, 34200,
      11400, 10395, 32, 32, 1, 1, 1},
     "8eae4a68310a0641"},
    {"full.lastwrite",
     {1404, 16, 13, 3, 0, 5914, 5765, 60, 0, 354, 0, 1136, 912, 889, 247, 1, 2,
      1, 1, 2},
     "0ea183378cd659b3"},
    {"full.empty",
     {2, 0, 0, 0, 0, 26, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     ""},
    {"basic.empty",
     {2, 0, 0, 0, 0, 117, 0, 9, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     ""},
    {"full.notables",
     {2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     ""},
    {"basic.notables",
     {2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
     ""},
    {"full.tournament",
     {42488, 722, 172, 128, 0, 11498, 8252, 111, 11897, 94, 0, 6208, 13794,
      4598, 3268, 32, 32, 1, 1, 2},
     "ec4fde3ecd616c3b"},
    {"basic.tournament",
     {88119, 1500, 840, 60, 0, 7166, 6150, 974, 77772, 349, 0, 17100, 51300,
      17100, 15982, 32, 32, 1, 1, 1},
     "e0acf50c309cfd51"},
};

std::string GoldenRow(const std::string& name, const EngineStats& stats,
                      const std::string& tables) {
  std::string row = "{\"" + name + "\", {";
  const auto fields = StatsFields(stats);
  for (int f = 0; f < kNumStatsFields; f++) {
    row += (f > 0 ? ", " : "") + std::to_string(fields[f]);
  }
  return row + "}, \"" + tables + "\"},";
}

}  // namespace

TEST_F(FpgaEngineTest, GoldenStatsMatrix) {
  const std::vector<GoldenSetup> setups = GoldenSetups();
  for (size_t row = 0; row < setups.size(); row++) {
    const GoldenSetup& setup = setups[row];
    SCOPED_TRACE(setup.name);
    config_ = setup.config;
    Stage(GoldenInputs(setup));
    std::vector<const DeviceInput*> ptrs;
    for (const auto& in : inputs_) ptrs.push_back(in.get());

    KeyBounds bounds;
    if (setup.bounded) {
      bounds.has_lower = true;
      bounds.lower = "key00000040";
      bounds.has_upper = true;
      bounds.upper = "key00000120";
    }
    DeviceOutput output;
    EngineStats stats;
    if (setup.tournament) {
      host::FcaeDevice device(config_);
      host::DeviceRunStats run_stats;
      ASSERT_TRUE(device
                      .ExecuteTournament(ptrs, setup.snapshot,
                                         setup.drop_deletions, &output,
                                         &run_stats)
                      .ok());
      stats = run_stats.engine;
    } else {
      CompactionEngine engine(config_, ptrs, setup.snapshot,
                              setup.drop_deletions, &output,
                              setup.bounded ? &bounds : nullptr);
      ASSERT_TRUE(engine.Run().ok());
      stats = engine.stats();
    }
    const std::string tables = TableHashes(output);

    if (row >= std::size(kGoldenRuns) ||
        kGoldenRuns[row].name != setup.name) {
      ADD_FAILURE() << "no golden row; actual:\n"
                    << GoldenRow(setup.name, stats, tables);
      continue;
    }
    const GoldenRun& golden = kGoldenRuns[row];
    const auto fields = StatsFields(stats);
    bool match = golden.tables == tables;
    EXPECT_EQ(golden.tables, tables) << "output table hashes";
    for (int f = 0; f < kNumStatsFields; f++) {
      EXPECT_EQ(golden.stats[f], fields[f]) << kStatsFieldNames[f];
      match = match && golden.stats[f] == fields[f];
    }
    if (!match) {
      ADD_FAILURE() << "actual:\n" << GoldenRow(setup.name, stats, tables);
    }
  }
  EXPECT_EQ(std::size(kGoldenRuns), setups.size());
}

// Differential check of CompactionEngine::Run, which ticks each module
// only on its own next event, against the engine as the golden rows were
// recorded: every module ticks on every cycle.
namespace {

/// Every module ticks on every cycle, downstream to upstream, and the
/// encoder learns that upstream is done after the cycle in which the
/// transfer became done. Fills every EngineStats field itself.
Status RunTickEveryCycle(const EngineConfig& config,
                         const std::vector<const DeviceInput*>& inputs,
                         uint64_t snapshot, bool drop_deletions,
                         const KeyBounds* bounds, DeviceOutput* output,
                         EngineStats* stats) {
  std::vector<std::unique_ptr<InputDecoder>> decoders;
  std::vector<InputDecoder*> lanes;
  for (size_t i = 0; i < inputs.size(); i++) {
    decoders.push_back(std::make_unique<InputDecoder>(
        config, inputs[i], static_cast<int>(i)));
    lanes.push_back(decoders.back().get());
  }
  Comparer comparer(config, lanes, snapshot, drop_deletions);
  KeyValueTransfer transfer(config, &comparer, lanes, bounds);
  OutputEncoder encoder(config, &transfer, output);

  *stats = EngineStats();
  for (const DeviceInput* input : inputs) {
    stats->input_bytes += input->TotalBytes();
  }
  const uint64_t bound = 1000000 + 400ull * (stats->input_bytes + 1024) *
                                       static_cast<uint64_t>(config.num_inputs);
  bool notified = false;
  while (!encoder.Done()) {
    encoder.Tick();
    transfer.Tick();
    comparer.Tick();
    for (auto& d : decoders) d->Tick();
    stats->cycles++;
    if (!notified && transfer.Done()) {
      encoder.NotifyUpstreamDone();
      notified = true;
    }
    for (auto& d : decoders) {
      if (!d->status().ok()) return d->status();
    }
    if (stats->cycles > bound) return Status::Corruption("wedged");
  }

  for (auto& d : decoders) {
    stats->records_in += d->records_decoded();
    stats->decoder_fetch_stalls += d->fetch_stall_cycles();
    stats->decoder_backpressure += d->backpressure_cycles();
    stats->decoder_busy += d->busy_cycles();
    stats->fifo_key_stream_peak = std::max<uint64_t>(
        stats->fifo_key_stream_peak, d->key_stream().HighWater());
    stats->fifo_transfer_peak = std::max<uint64_t>(
        stats->fifo_transfer_peak, d->records_for_transfer().HighWater());
  }
  stats->records_out = transfer.transferred();
  stats->records_dropped = transfer.dropped();
  stats->records_bounds_dropped = transfer.bounds_dropped();
  stats->comparer_waits = comparer.wait_cycles();
  stats->encoder_write_stalls = encoder.write_stall_cycles();
  stats->comparer_busy = comparer.busy_cycles();
  stats->transfer_busy = transfer.busy_cycles();
  stats->encoder_busy = encoder.busy_cycles();
  stats->fifo_selection_peak = comparer.selections().HighWater();
  stats->fifo_output_peak = transfer.output().HighWater();
  stats->fifo_write_queue_peak = encoder.write_queue_high_water();
  for (const DeviceOutputTable& t : output->tables) {
    stats->output_bytes += t.data_memory.size();
  }
  return Status::OK();
}

/// One random engine configuration and its inputs: small sorted runs over
/// a shared key space, so versions collide across inputs, with
/// tombstones, runs split into several tables, and inputs that stage no
/// table or only an empty one.
struct RandomCase {
  EngineConfig config;
  size_t input_block_size = 4096;
  uint64_t snapshot = kNoSnapshot;
  bool drop_deletions = true;
  KeyBounds bounds;
  std::vector<std::vector<std::vector<fpga_test::TestKv>>> runs;
};

std::string RandomKey(uint32_t id) {
  char key[16];
  std::snprintf(key, sizeof(key), "k%05u", id);
  return key;
}

RandomCase MakeRandomCase(Random* rnd) {
  static const int kWidths[] = {8, 16, 32, 64};
  RandomCase c;
  EngineConfig& config = c.config;
  config.opt_level = static_cast<OptLevel>(rnd->Uniform(4));
  config.num_inputs = 1 + static_cast<int>(rnd->Uniform(12));
  config.input_width = kWidths[rnd->Uniform(4)];
  config.output_width = kWidths[rnd->Uniform(4)];
  config.value_width = 1 << rnd->Uniform(7);
  config.dram_read_latency = 1 + static_cast<int>(rnd->Uniform(32));
  config.record_fifo_depth =
      rnd->OneIn(4) ? 32 : 1 + static_cast<int>(rnd->Uniform(6));
  config.block_prefetch_depth = 1 + static_cast<int>(rnd->Uniform(6));
  config.data_block_threshold = 16u << rnd->Uniform(9);
  config.sstable_threshold = 512u << rnd->Uniform(8);
  config.compress_output = rnd->OneIn(2);
  c.input_block_size = 128u << rnd->Uniform(6);
  c.drop_deletions = !rnd->OneIn(4);

  const uint32_t key_space = 8 + rnd->Uniform(200);
  if (rnd->OneIn(4)) {
    c.bounds.has_lower = rnd->OneIn(2);
    c.bounds.lower = RandomKey(rnd->Uniform(key_space));
    c.bounds.has_upper = !c.bounds.has_lower || rnd->OneIn(2);
    c.bounds.upper = RandomKey(rnd->Uniform(key_space));
  }

  const int inputs = rnd->OneIn(30)
                         ? 0
                         : 1 + static_cast<int>(
                                   rnd->Uniform(config.num_inputs));
  const size_t max_value = rnd->OneIn(3) ? 0 : 1 + rnd->Uniform(400);
  uint64_t sequence = 0;
  for (int i = 0; i < inputs; i++) {
    if (rnd->OneIn(8)) {
      c.runs.emplace_back();  // Stages no table.
      continue;
    }
    const int records = rnd->OneIn(8) ? 0 : static_cast<int>(rnd->Uniform(60));
    std::vector<fpga_test::TestKv> run;
    for (int r = 0; r < records; r++) {
      fpga_test::TestKv kv;
      kv.user_key = RandomKey(rnd->Uniform(key_space));
      kv.sequence = ++sequence;
      kv.type = rnd->OneIn(6) ? kTypeDeletion : kTypeValue;
      if (kv.type == kTypeValue && max_value > 0) {
        const size_t len = rnd->Uniform(static_cast<int>(max_value) + 1);
        if (rnd->OneIn(2)) {
          kv.value.assign(len, static_cast<char>('a' + rnd->Uniform(26)));
        } else {
          for (size_t b = 0; b < len; b++) {
            kv.value.push_back(static_cast<char>(rnd->Uniform(256)));
          }
        }
      }
      run.push_back(std::move(kv));
    }
    std::sort(run.begin(), run.end(),
              [](const fpga_test::TestKv& a, const fpga_test::TestKv& b) {
                return a.user_key != b.user_key ? a.user_key < b.user_key
                                                : a.sequence > b.sequence;
              });
    // One to three tables; an empty run stages one empty table.
    std::vector<std::vector<fpga_test::TestKv>> tables;
    const size_t splits = records == 0 ? 1 : 1 + rnd->Uniform(3);
    for (size_t t = 0; t < splits; t++) {
      tables.emplace_back(run.begin() + run.size() * t / splits,
                          run.begin() + run.size() * (t + 1) / splits);
    }
    c.runs.push_back(std::move(tables));
  }
  c.snapshot = rnd->OneIn(3) ? 1 + rnd->Uniform(static_cast<int>(sequence) + 1)
                             : kNoSnapshot;
  return c;
}

}  // namespace

TEST_F(FpgaEngineTest, MatchesTickEveryCycleOnRandomConfigs) {
  constexpr int kCases = 400;
  Random rnd(301);
  for (int n = 0; n < kCases; n++) {
    const RandomCase c = MakeRandomCase(&rnd);
    SCOPED_TRACE("case " + std::to_string(n));
    config_ = c.config;
    options_.block_size = c.input_block_size;
    Stage(c.runs);
    std::vector<const DeviceInput*> ptrs;
    for (const auto& in : inputs_) ptrs.push_back(in.get());
    const KeyBounds* bounds = c.bounds.active() ? &c.bounds : nullptr;

    DeviceOutput expected_output;
    EngineStats expected;
    ASSERT_TRUE(RunTickEveryCycle(config_, ptrs, c.snapshot,
                                  c.drop_deletions, bounds, &expected_output,
                                  &expected)
                    .ok());
    DeviceOutput output;
    CompactionEngine engine(config_, ptrs, c.snapshot, c.drop_deletions,
                            &output, bounds);
    ASSERT_TRUE(engine.Run().ok());

    const auto want = StatsFields(expected);
    const auto got = StatsFields(engine.stats());
    for (int f = 0; f < kNumStatsFields; f++) {
      EXPECT_EQ(want[f], got[f]) << kStatsFieldNames[f];
    }
    EXPECT_EQ(TableHashes(expected_output), TableHashes(output));
    if (HasFailure()) break;
  }
}

}  // namespace fpga
}  // namespace fcae
