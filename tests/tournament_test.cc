#include <map>
#include <memory>

#include "fpga/fault_injector.h"
#include "fpga/output_to_input.h"
#include "fpga_test_util.h"
#include "gtest/gtest.h"
#include "host/fcae_device.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "table/iterator.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {
namespace host {

using fpga_test::BuildDeviceInput;
using fpga_test::FlattenOutput;
using fpga_test::MakeRun;
using fpga_test::TestKv;

class TournamentTest : public testing::Test {
 public:
  TournamentTest() : env_(NewMemEnv(Env::Default())) {
    options_.env = env_.get();
  }

  /// Stages `k` runs of `n` records with distinct interleaved keys.
  std::vector<std::unique_ptr<fpga::DeviceInput>> StageRuns(int k, int n) {
    std::vector<std::unique_ptr<fpga::DeviceInput>> inputs;
    for (int i = 0; i < k; i++) {
      auto input = std::make_unique<fpga::DeviceInput>();
      auto run = MakeRun("key", i, n, k, 1000 * (i + 1), 64);
      EXPECT_TRUE(
          BuildDeviceInput(env_.get(), options_, {run}, i, input.get()).ok());
      inputs.push_back(std::move(input));
    }
    return inputs;
  }

  std::unique_ptr<Env> env_;
  Options options_;
};

TEST_F(TournamentTest, ConvertOutputToInputRoundTrips) {
  // Merge two runs, convert the output to an input, run a single-input
  // pass over it: contents must be preserved exactly.
  auto inputs = StageRuns(2, 300);
  fpga::EngineConfig config;
  config.num_inputs = 2;

  fpga::DeviceOutput first;
  {
    fpga::CompactionEngine engine(config, {inputs[0].get(), inputs[1].get()},
                                  kNoSnapshot, true, &first);
    ASSERT_TRUE(engine.Run().ok());
  }
  std::vector<std::pair<std::string, std::string>> expected;
  ASSERT_TRUE(FlattenOutput(first, &expected).ok());
  ASSERT_EQ(600u, expected.size());

  fpga::DeviceInput restaged;
  ASSERT_TRUE(fpga::ConvertOutputToInput(first, &restaged).ok());
  ASSERT_FALSE(restaged.sstables.empty());

  fpga::DeviceOutput second;
  {
    fpga::CompactionEngine engine(config, {&restaged}, kNoSnapshot, true,
                                  &second);
    ASSERT_TRUE(engine.Run().ok());
  }
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(second, &got).ok());
  ASSERT_EQ(expected, got);
}

TEST_F(TournamentTest, TournamentEqualsWideEngine) {
  // 7 runs merged by a 2-input device in tournament mode must equal a
  // 9-input device merging them in one pass.
  auto inputs = StageRuns(7, 150);
  std::vector<const fpga::DeviceInput*> ptrs;
  for (auto& in : inputs) ptrs.push_back(in.get());

  fpga::EngineConfig narrow;
  narrow.num_inputs = 2;
  FcaeDevice narrow_device(narrow);
  fpga::DeviceOutput tournament_out;
  DeviceRunStats tournament_stats;
  ASSERT_TRUE(narrow_device
                  .ExecuteTournament(ptrs, kNoSnapshot, true,
                                     &tournament_out, &tournament_stats)
                  .ok());

  fpga::EngineConfig wide;
  wide.num_inputs = 9;
  wide.input_width = 8;
  wide.value_width = 8;
  FcaeDevice wide_device(wide);
  fpga::DeviceOutput wide_out;
  DeviceRunStats wide_stats;
  ASSERT_TRUE(wide_device
                  .ExecuteCompaction(ptrs, kNoSnapshot, true, &wide_out,
                                     &wide_stats)
                  .ok());

  std::vector<std::pair<std::string, std::string>> a, b;
  ASSERT_TRUE(FlattenOutput(tournament_out, &a).ok());
  ASSERT_TRUE(FlattenOutput(wide_out, &b).ok());
  ASSERT_EQ(b, a);
  ASSERT_EQ(7u * 150u, a.size());

  // The tournament pays more kernel cycles (multiple passes).
  EXPECT_GT(tournament_stats.kernel_cycles, wide_stats.kernel_cycles);
}

TEST_F(TournamentTest, DeletionsSurviveIntermediatePasses) {
  // Deletion markers in one group must still erase values living in a
  // *different* group: intermediate passes must not drop them.
  auto deletions = MakeRun("key", 0, 120, 1, 9000, 0, kTypeDeletion);
  auto values_a = MakeRun("key", 0, 120, 1, 1000, 64);
  auto values_b = MakeRun("key", 0, 120, 1, 2000, 64);
  auto values_c = MakeRun("key", 0, 120, 1, 3000, 64);

  std::vector<std::unique_ptr<fpga::DeviceInput>> inputs;
  for (auto& run : {deletions, values_c, values_b, values_a}) {
    auto input = std::make_unique<fpga::DeviceInput>();
    ASSERT_TRUE(BuildDeviceInput(env_.get(), options_, {run},
                                 static_cast<int>(inputs.size()),
                                 input.get())
                    .ok());
    inputs.push_back(std::move(input));
  }
  std::vector<const fpga::DeviceInput*> ptrs;
  for (auto& in : inputs) ptrs.push_back(in.get());

  fpga::EngineConfig narrow;
  narrow.num_inputs = 2;  // Forces 2 tournament rounds over 4 inputs.
  FcaeDevice device(narrow);
  fpga::DeviceOutput out;
  DeviceRunStats stats;
  ASSERT_TRUE(
      device.ExecuteTournament(ptrs, kNoSnapshot, true, &out, &stats).ok());

  // Every key is deleted; the final pass may drop the markers.
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(out, &got).ok());
  EXPECT_TRUE(got.empty())
      << "a value resurrected through the tournament: " << got.size();
}

TEST_F(TournamentTest, DbWithTournamentExecutorMatchesCpuDb) {
  fpga::EngineConfig config;
  config.num_inputs = 2;  // L0 compactions exceed N: tournament kicks in.
  DeviceSet devices(config, /*num_cards=*/1);
  FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  FcaeCompactionExecutor executor(&devices, exec_options);

  auto open_db = [&](const std::string& name, CompactionExecutor* exec) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    options.compaction_executor = exec;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, name, &db).ok());
    return std::unique_ptr<DB>(db);
  };

  std::unique_ptr<DB> cpu_db = open_db("/t_cpu", nullptr);
  std::unique_ptr<DB> fcae_db = open_db("/t_fcae", &executor);

  Random rnd(11);
  WriteOptions wo;
  for (int i = 0; i < 3000; i++) {
    std::string key = "user" + std::to_string(rnd.Uniform(600));
    if (rnd.Uniform(10) < 8) {
      std::string value(64 + rnd.Uniform(128), static_cast<char>('a' + i % 26));
      ASSERT_TRUE(cpu_db->Put(wo, key, value).ok());
      ASSERT_TRUE(fcae_db->Put(wo, key, value).ok());
    } else {
      ASSERT_TRUE(cpu_db->Delete(wo, key).ok());
      ASSERT_TRUE(fcae_db->Delete(wo, key).ok());
    }
  }
  for (DB* db : {cpu_db.get(), fcae_db.get()}) {
    auto* impl = reinterpret_cast<DBImpl*>(db);
    impl->TEST_CompactMemTable().IgnoreError();  // device faults injected
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }
  }

  std::unique_ptr<Iterator> a(cpu_db->NewIterator(ReadOptions()));
  std::unique_ptr<Iterator> b(fcae_db->NewIterator(ReadOptions()));
  a->SeekToFirst();
  b->SeekToFirst();
  while (a->Valid() && b->Valid()) {
    ASSERT_EQ(a->key().ToString(), b->key().ToString());
    ASSERT_EQ(a->value().ToString(), b->value().ToString());
    a->Next();
    b->Next();
  }
  ASSERT_FALSE(a->Valid());
  ASSERT_FALSE(b->Valid());

  // With N=2 and tournament scheduling on, everything offloads.
  auto* impl = reinterpret_cast<DBImpl*>(fcae_db.get());
  CompactionExecStats stats = impl->OffloadStats();
  EXPECT_GT(stats.device_cycles, 0u);
}

TEST_F(TournamentTest, IntermediatePassFaultFailsJobCleanly) {
  // Arm a one-shot fault on the SECOND kernel launch: with 7 runs and
  // N=2 that is an intermediate tournament pass. The whole job must
  // fail with the fault's status, hand back no partial output, and
  // leave no intermediate staging in device DRAM.
  auto inputs = StageRuns(7, 150);
  std::vector<const fpga::DeviceInput*> ptrs;
  for (auto& in : inputs) ptrs.push_back(in.get());

  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);
  fpga::DeviceFaultInjector injector(fpga::DeviceFaultConfig{});
  device.set_fault_injector(&injector);

  for (fpga::DeviceFaultClass cls :
       {fpga::DeviceFaultClass::kKernelTimeout,
        fpga::DeviceFaultClass::kDeviceBusy,
        fpga::DeviceFaultClass::kCardDropped}) {
    if (cls == fpga::DeviceFaultClass::kCardDropped) {
      injector.RepairCard();  // Undo a previous iteration's drop.
    }
    injector.ArmOneShot(cls, /*launches_from_now=*/2);

    fpga::DeviceOutput out;
    out.tables.emplace_back();  // Pre-existing garbage must be cleared.
    DeviceRunStats stats;
    Status s = device.ExecuteTournament(ptrs, kNoSnapshot, true, &out, &stats);
    ASSERT_FALSE(s.ok()) << DeviceFaultClassName(cls);
    switch (cls) {
      case fpga::DeviceFaultClass::kKernelTimeout:
        EXPECT_TRUE(s.IsIOError()) << s.ToString();
        break;
      case fpga::DeviceFaultClass::kDeviceBusy:
        EXPECT_TRUE(s.IsBusy()) << s.ToString();
        break;
      case fpga::DeviceFaultClass::kCardDropped:
        EXPECT_TRUE(s.IsDeviceLost()) << s.ToString();
        break;
      default:
        FAIL();
    }
    // No partial outputs escape a failed tournament.
    EXPECT_TRUE(out.tables.empty()) << DeviceFaultClassName(cls);
    // No leaked device DRAM staging: the intermediate of the completed
    // first pass was freed on the error path.
    EXPECT_EQ(0u, device.intermediate_dram_bytes()) << DeviceFaultClassName(cls);
    if (cls == fpga::DeviceFaultClass::kCardDropped) {
      injector.RepairCard();
    }
  }
  // Intermediates were actually staged before the faults hit.
  EXPECT_GT(device.intermediate_dram_peak_bytes(), 0u);

  // With the injector quiet again the same job succeeds: the failed
  // attempts left no residue that breaks a later run.
  fpga::DeviceOutput out;
  DeviceRunStats stats;
  ASSERT_TRUE(
      device.ExecuteTournament(ptrs, kNoSnapshot, true, &out, &stats).ok());
  std::vector<std::pair<std::string, std::string>> got;
  ASSERT_TRUE(FlattenOutput(out, &got).ok());
  EXPECT_EQ(7u * 150u, got.size());
  EXPECT_EQ(0u, device.intermediate_dram_bytes());
}

TEST_F(TournamentTest, FinalPassFaultHandsBackNothing) {
  // 4 runs, N=2: passes are (2 intermediates, 1 final) = 3 launches.
  // Fault the FINAL pass; the two intermediates completed and were
  // staged, yet the job must surface the error and clear the output.
  auto inputs = StageRuns(4, 100);
  std::vector<const fpga::DeviceInput*> ptrs;
  for (auto& in : inputs) ptrs.push_back(in.get());

  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);
  fpga::DeviceFaultInjector injector(fpga::DeviceFaultConfig{});
  device.set_fault_injector(&injector);
  injector.ArmOneShot(fpga::DeviceFaultClass::kKernelTimeout,
                      /*launches_from_now=*/3);

  fpga::DeviceOutput out;
  DeviceRunStats stats;
  Status s = device.ExecuteTournament(ptrs, kNoSnapshot, true, &out, &stats);
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(out.tables.empty());
  EXPECT_EQ(0u, device.intermediate_dram_bytes());
  EXPECT_EQ(1u, injector.count(fpga::DeviceFaultClass::kKernelTimeout));
  EXPECT_EQ(3u, injector.launches());
}

TEST_F(TournamentTest, SingleGroupFallsThroughToOnePass) {
  auto inputs = StageRuns(2, 100);
  std::vector<const fpga::DeviceInput*> ptrs = {inputs[0].get(),
                                                inputs[1].get()};
  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);

  fpga::DeviceOutput tournament_out, direct_out;
  DeviceRunStats t_stats, d_stats;
  ASSERT_TRUE(device.ExecuteTournament(ptrs, kNoSnapshot, true,
                                       &tournament_out, &t_stats)
                  .ok());
  ASSERT_TRUE(device.ExecuteCompaction(ptrs, kNoSnapshot, true, &direct_out,
                                       &d_stats)
                  .ok());
  EXPECT_EQ(d_stats.kernel_cycles, t_stats.kernel_cycles);
  std::vector<std::pair<std::string, std::string>> a, b;
  ASSERT_TRUE(FlattenOutput(tournament_out, &a).ok());
  ASSERT_TRUE(FlattenOutput(direct_out, &b).ok());
  EXPECT_EQ(b, a);
}

}  // namespace host
}  // namespace fcae
