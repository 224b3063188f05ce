#include "fpga/timing_model.h"

#include <memory>

#include "fpga/compaction_engine.h"
#include "fpga_test_util.h"
#include "gtest/gtest.h"
#include "util/mem_env.h"

namespace fcae {
namespace fpga {

using fpga_test::BuildDeviceInput;
using fpga_test::MakeRun;
using fpga_test::TestKv;

// The paper's worked example (Section VII-B1, footnote 1):
// L_key = 16 real + 8 mark = 24. With N=2, V=8, L_value=1024 the
// decoder period is 24 + 1024/8 = 152; with V=16 it is 24 + 64 = 88;
// the comparer period is 3 * 24 = 72.
TEST(TimingModelTest, PaperWorkedExample) {
  EngineConfig config;
  config.num_inputs = 2;

  config.value_width = 8;
  TimingModel model8(config);
  EXPECT_EQ(152u, model8.DecoderPeriod(24, 1024));
  EXPECT_EQ(72u, model8.ComparerPeriod(24, 1024));
  EXPECT_TRUE(model8.DecoderBound(24, 1024));

  config.value_width = 16;
  TimingModel model16(config);
  EXPECT_EQ(88u, model16.DecoderPeriod(24, 1024));
  EXPECT_EQ(Bottleneck::kDataBlockDecoder,
            model16.BottleneckModule(24, 1024));

  // Short values flip the bottleneck to the Comparer.
  EXPECT_EQ(Bottleneck::kComparer, model16.BottleneckModule(24, 128));
  EXPECT_FALSE(model16.DecoderBound(24, 128));
}

TEST(TimingModelTest, ComparerScalesWithInputCount) {
  EngineConfig config;
  config.num_inputs = 2;
  EXPECT_EQ(3u * 24, TimingModel(config).ComparerPeriod(24, 0));
  config.num_inputs = 4;
  EXPECT_EQ(4u * 24, TimingModel(config).ComparerPeriod(24, 0));
  config.num_inputs = 9;  // ceil(log2 9) = 4 -> period 6 * L_key.
  EXPECT_EQ(6u * 24, TimingModel(config).ComparerPeriod(24, 0));
}

TEST(TimingModelTest, TransferAndEncoderPeriods) {
  EngineConfig config;
  config.num_inputs = 2;
  config.value_width = 16;
  TimingModel model(config);
  // max(24, 1024/16) = 64.
  EXPECT_EQ(64u, model.TransferPeriod(24, 1024));
  // max(24, 128/16) = 24.
  EXPECT_EQ(24u, model.TransferPeriod(24, 128));
  EXPECT_EQ(24u, model.EncoderPeriod(24, 1024));
}

TEST(TimingModelTest, UnseparatedDesignsAreSlower) {
  EngineConfig separated;
  separated.num_inputs = 2;
  separated.value_width = 16;
  EngineConfig basic = separated;
  basic.opt_level = OptLevel::kBasic;

  TimingModel fast(separated);
  TimingModel slow(basic);
  EXPECT_GT(slow.BottleneckPeriod(24, 512), fast.BottleneckPeriod(24, 512));
  // Without separation the comparer carries the value too.
  EXPECT_EQ((2u + 1u) * (24 + 512), slow.ComparerPeriod(24, 512));
}

TEST(TimingModelTest, SpeedGrowsWithValueLength) {
  EngineConfig config;
  config.num_inputs = 2;
  config.value_width = 16;
  TimingModel model(config);
  double prev = 0;
  for (uint64_t value_len : {64, 128, 256, 512, 1024, 2048}) {
    double speed = model.PredictSpeedMBps(24, value_len);
    EXPECT_GT(speed, prev) << value_len;
    prev = speed;
  }
}

TEST(TimingModelTest, WiderValuePathIsNeverSlower) {
  for (uint64_t value_len : {64, 256, 1024, 2048}) {
    double prev = 0;
    for (int v : {8, 16, 32, 64}) {
      EngineConfig config;
      config.num_inputs = 2;
      config.value_width = v;
      double speed = TimingModel(config).PredictSpeedMBps(24, value_len);
      EXPECT_GE(speed, prev) << "V=" << v << " L=" << value_len;
      prev = speed;
    }
  }
}

// Cross-check: the cycle-level simulator's steady-state rate must agree
// with the closed-form bottleneck period within pipeline fill/drain and
// DRAM overheads.
class TimingCrossCheckTest : public testing::TestWithParam<int> {};

TEST_P(TimingCrossCheckTest, SimulatorTracksAnalyticModel) {
  const int value_len = GetParam();
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  EngineConfig config;
  config.num_inputs = 2;
  config.value_width = 16;

  // Consecutive (non-interleaved) ranges: the merge drains input A
  // completely before touching input B, so a single decoder lane must
  // sustain the full record rate and the per-lane analytic bottleneck
  // binds. (With interleaved inputs each decoder gets N x slack and the
  // pipeline can outrun the single-lane decoder period.)
  const int n = 800;
  auto run_a = MakeRun("key", 0, n, 1, 1000, value_len);
  auto run_b = MakeRun("key", n, n, 1, 2000, value_len);

  DeviceInput in_a, in_b;
  ASSERT_TRUE(BuildDeviceInput(env.get(), options, {run_a}, 0, &in_a).ok());
  ASSERT_TRUE(BuildDeviceInput(env.get(), options, {run_b}, 1, &in_b).ok());

  DeviceOutput output;
  CompactionEngine engine(config, {&in_a, &in_b}, kNoSnapshot, true,
                          &output);
  ASSERT_TRUE(engine.Run().ok());

  // Keys here are 3 + 8 = 11 prefix + digits = "key%08d" = 11 user bytes
  // + 8 mark = 19 total.
  const uint64_t key_len = 11 + 8;
  TimingModel model(config);
  const double predicted_cycles =
      static_cast<double>(model.BottleneckPeriod(key_len, value_len)) *
      engine.stats().records_in;
  const double actual = static_cast<double>(engine.stats().cycles);

  // The simulator includes DRAM latency, fill/drain and block-boundary
  // effects, so it should be >= the ideal pipeline but within ~2x.
  EXPECT_GT(actual, 0.85 * predicted_cycles)
      << "sim " << actual << " vs model " << predicted_cycles;
  EXPECT_LT(actual, 2.0 * predicted_cycles)
      << "sim " << actual << " vs model " << predicted_cycles;
}

INSTANTIATE_TEST_SUITE_P(ValueLengths, TimingCrossCheckTest,
                         testing::Values(64, 256, 1024));

// The observed bottleneck attribution (obs telemetry: busy-cycle shares
// from the cycle simulator) must reproduce the analytic model's
// Comparer <-> Decoder crossover (paper Section V-D1): short values are
// comparer-bound, long values decoder-bound.
class BottleneckAttributionTest : public testing::TestWithParam<int> {};

TEST_P(BottleneckAttributionTest, MatchesAnalyticModelAcrossCrossover) {
  const int value_len = GetParam();
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  Options options;
  options.env = env.get();

  EngineConfig config;
  config.num_inputs = 2;
  config.value_width = 16;

  // Consecutive ranges: the merge drains one input at a time, so a
  // single decoder lane carries the record stream and the per-record
  // analytic periods apply directly (see TimingCrossCheckTest above).
  const int n = 800;
  auto run_a = MakeRun("key", 0, n, 1, 1000, value_len);
  auto run_b = MakeRun("key", n, n, 1, 2000, value_len);

  DeviceInput in_a, in_b;
  ASSERT_TRUE(BuildDeviceInput(env.get(), options, {run_a}, 0, &in_a).ok());
  ASSERT_TRUE(BuildDeviceInput(env.get(), options, {run_b}, 1, &in_b).ok());

  DeviceOutput output;
  CompactionEngine engine(config, {&in_a, &in_b}, kNoSnapshot, true,
                          &output);
  ASSERT_TRUE(engine.Run().ok());

  // num_lanes = 1 because only one lane is streaming at a time in this
  // shape (the other fills its FIFO and stalls on backpressure), so the
  // active lane's utilization is the meaningful decode share.
  BottleneckReport report = AttributeBottleneck(engine.stats(), 1);
  ASSERT_NE(nullptr, report.module);
  EXPECT_GT(report.share, 0.0);

  const uint64_t key_len = 11 + 8;  // "key%08d" user bytes + mark field.
  TimingModel model(config);
  Bottleneck analytic = model.BottleneckModule(key_len, value_len);
  const char* expected =
      analytic == Bottleneck::kDataBlockDecoder    ? "decoder"
      : analytic == Bottleneck::kComparer          ? "comparer"
      : analytic == Bottleneck::kKeyValueTransfer  ? "transfer"
                                                   : "encoder";
  EXPECT_STREQ(expected, report.module)
      << "value_len=" << value_len << " decoder=" << report.decoder_share
      << " comparer=" << report.comparer_share
      << " transfer=" << report.transfer_share
      << " encoder=" << report.encoder_share;

  // Sanity on the crossover itself: 64-byte values sit on the comparer
  // side, 1024-byte values on the decoder side (V = 16, N = 2).
  if (value_len == 64) {
    EXPECT_EQ(Bottleneck::kComparer, analytic);
  } else if (value_len == 1024) {
    EXPECT_EQ(Bottleneck::kDataBlockDecoder, analytic);
  }
}

INSTANTIATE_TEST_SUITE_P(ValueLengths, BottleneckAttributionTest,
                         testing::Values(64, 1024));

}  // namespace fpga
}  // namespace fcae
