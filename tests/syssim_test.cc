#include "syssim/simulator.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "test_util.h"

namespace fcae {
namespace syssim {

namespace {

SimConfig CpuConfig(uint64_t value_len) {
  SimConfig config;
  config.mode = ExecMode::kLevelDbCpu;
  config.value_length = value_len;
  return config;
}

SimConfig FcaeConfig(uint64_t value_len, int n = 2, int v = 16) {
  SimConfig config;
  config.mode = ExecMode::kLevelDbFcae;
  config.value_length = value_len;
  config.engine.num_inputs = n;
  config.engine.value_width = v;
  if (n > 2) config.engine.input_width = 8;
  return config;
}

}  // namespace

TEST(CostModelTest, PaperTableVAnchors) {
  CostModel m = CostModel::PaperCalibrated();
  // Exact Table V anchor points.
  EXPECT_NEAR(5.3, m.CpuCompactionMBps(2, 16, 64), 0.01);
  EXPECT_NEAR(12.2, m.CpuCompactionMBps(2, 16, 512), 0.01);
  fpga::EngineConfig e;
  e.num_inputs = 2;
  e.value_width = 16;
  EXPECT_NEAR(627.9, m.FpgaCompactionMBps(e, 16, 512), 0.1);
  e.value_width = 64;
  EXPECT_NEAR(1205.6, m.FpgaCompactionMBps(e, 16, 2048), 0.1);
}

TEST(CostModelTest, NineInputEngineIsSlowerButCpuSlowsMore) {
  CostModel m = CostModel::PaperCalibrated();
  fpga::EngineConfig two;
  two.num_inputs = 2;
  two.value_width = 8;
  fpga::EngineConfig nine = two;
  nine.num_inputs = 9;
  nine.input_width = 8;

  for (uint64_t value : {64, 512, 2048}) {
    const double f2 = m.FpgaCompactionMBps(two, 16, value);
    const double f9 = m.FpgaCompactionMBps(nine, 16, value);
    EXPECT_LT(f9, f2) << value;
    // Acceleration ratio vs the CPU baseline grows with N (Fig. 13):
    const double c2 = m.CpuCompactionMBps(2, 16, value);
    const double c9 = m.CpuCompactionMBps(9, 16, value);
    EXPECT_GT(f9 / c9, 0.8 * f2 / c2) << value;
  }
  // The 2-vs-9 gap narrows with value length (Fig. 12).
  const double gap64 = m.FpgaCompactionMBps(nine, 16, 64) /
                       m.FpgaCompactionMBps(two, 16, 64);
  const double gap2048 = m.FpgaCompactionMBps(nine, 16, 2048) /
                         m.FpgaCompactionMBps(two, 16, 2048);
  EXPECT_LT(gap64, gap2048);
}

TEST(CostModelTest, FrontendSlowerForSmallValues) {
  CostModel m = CostModel::PaperCalibrated();
  EXPECT_LT(m.FrontendMBps(16, 64), m.FrontendMBps(16, 512));
  EXPECT_LT(m.FrontendMBps(16, 512), m.FrontendMBps(16, 2048));
}

TEST(SimulatorTest, FcaeBeatsCpuOnWrites) {
  for (uint64_t value : {128, 512, 1024}) {
    const double bytes = 2e8;
    SimResult cpu = Simulator(CpuConfig(value)).RunFillRandom(bytes);
    SimResult fcae = Simulator(FcaeConfig(value)).RunFillRandom(bytes);
    EXPECT_GT(fcae.throughput_mbps, cpu.throughput_mbps * 1.5) << value;
    EXPECT_GT(cpu.throughput_mbps, 0.5) << value;
    EXPECT_LT(fcae.throughput_mbps, 50.0) << value;
  }
}

TEST(SimulatorTest, ThroughputDegradesWithDataSize) {
  double prev_cpu = 1e9;
  double prev_fcae = 1e9;
  for (double gb : {0.2, 0.5, 1.0, 2.0}) {
    SimResult cpu = Simulator(CpuConfig(512)).RunFillRandom(gb * 1e9);
    SimResult fcae = Simulator(FcaeConfig(512)).RunFillRandom(gb * 1e9);
    EXPECT_LT(cpu.throughput_mbps, prev_cpu * 1.02) << gb;
    EXPECT_LT(fcae.throughput_mbps, prev_fcae * 1.02) << gb;
    prev_cpu = cpu.throughput_mbps;
    prev_fcae = fcae.throughput_mbps;
  }
}

TEST(SimulatorTest, AccountingIsConsistent) {
  SimResult r = Simulator(FcaeConfig(512)).RunFillRandom(3e8);
  EXPECT_GT(r.elapsed_seconds, 0);
  EXPECT_NEAR(3e8, r.user_bytes, 1e6);
  EXPECT_GT(r.flushes, 50u);  // 300 MB / 4 MB memtables.
  EXPECT_GT(r.compactions, 10u);
  EXPECT_EQ(r.compactions, r.compactions_offloaded + r.compactions_sw);
  EXPECT_GT(r.compactions_offloaded, 0u);
  EXPECT_GT(r.WriteAmplification(), 1.5);
  EXPECT_LT(r.WriteAmplification(), 40.0);
  EXPECT_GT(r.PciePercent(), 0.0);
  EXPECT_LT(r.PciePercent(), 15.0);  // Table VIII: transfers are minor.
  EXPECT_GT(r.device_seconds, 0.0);
}

TEST(SimulatorTest, CpuModeNeverTouchesDevice) {
  SimResult r = Simulator(CpuConfig(512)).RunFillRandom(2e8);
  EXPECT_EQ(0u, r.compactions_offloaded);
  EXPECT_EQ(0.0, r.device_seconds);
  EXPECT_EQ(0.0, r.pcie_seconds);
  EXPECT_GT(r.cpu_compaction_seconds, 0.0);
}

TEST(SimulatorTest, StrictPolicyFallsBackToSoftware) {
  SimConfig config = FcaeConfig(512, /*n=*/2);
  config.multipass_offload = false;  // Strict Fig. 6 policy.
  SimResult r = Simulator(config).RunFillRandom(2e8);
  // Level-0 compactions need >2 inputs: must run on the CPU.
  EXPECT_GT(r.compactions_sw, 0u);
  // Deep-level (2-input) jobs still offload.
  EXPECT_GT(r.compactions_offloaded, 0u);

  // The strict policy is slower than the tournament scheduler.
  SimConfig multipass = FcaeConfig(512, 2);
  SimResult m = Simulator(multipass).RunFillRandom(2e8);
  EXPECT_GE(m.throughput_mbps, r.throughput_mbps);
}

TEST(SimulatorTest, NineInputEngineOffloadsEverythingStrictly) {
  SimConfig config = FcaeConfig(512, /*n=*/9, /*v=*/8);
  config.multipass_offload = false;
  SimResult r = Simulator(config).RunFillRandom(2e8);
  // L0 jobs need at most 9 inputs under the stop trigger of 12... most
  // should offload; software fallback stays rare.
  EXPECT_GT(r.compactions_offloaded, r.compactions_sw * 3);
}

TEST(SimulatorTest, WiderValuePathNeverHurts) {
  double prev = 0;
  for (int v : {8, 16, 32, 64}) {
    SimResult r = Simulator(FcaeConfig(2048, 2, v)).RunFillRandom(3e8);
    EXPECT_GE(r.throughput_mbps, prev * 0.98) << v;
    prev = r.throughput_mbps;
  }
}

TEST(SimulatorTest, NearStorageBeatsPcieAttached) {
  // Paper Section VII-E: moving the engine into the SSD removes the
  // host staging I/O and the DMA round trip, so ingest should not get
  // worse — and typically improves (the shared host core is freed).
  SimConfig pcie = FcaeConfig(512, 9, 8);
  SimConfig near = pcie;
  near.near_storage = true;
  SimResult a = Simulator(pcie).RunFillRandom(5e8);
  SimResult b = Simulator(near).RunFillRandom(5e8);
  EXPECT_GE(b.throughput_mbps, a.throughput_mbps * 0.98);
  EXPECT_EQ(0.0, b.pcie_seconds);
  EXPECT_GT(b.compactions_offloaded, 0u);
}

TEST(SimulatorTest, PipelinedDmaOverlapIsAccounted) {
  // Enough in-flight jobs that shards queue behind each other's
  // kernels. Under the Simulated() preset the unseparated (kBasic)
  // engine merges far slower than the 320 MB/s staging reads, so the
  // card stays busy and a backlog forms — with the paper-calibrated
  // separated engine the kernel outruns the single staging core and the
  // FIFO lane never fills.
  SimConfig off = FcaeConfig(512, 9, 8);
  off.cost = CostModel::Simulated();
  off.engine.opt_level = fpga::OptLevel::kBasic;
  off.compaction_threads = 4;
  off.leveling_ratio = 3;  // Populate deep levels: disjoint-level jobs coexist.
  off.pipelined_dma = false;
  SimConfig on = off;
  on.pipelined_dma = true;
  SimResult a = Simulator(off).RunFillRandom(3e8);
  SimResult b = Simulator(on).RunFillRandom(3e8);

  EXPECT_EQ(0.0, a.pipeline_overlap_seconds);
  EXPECT_GT(b.pipeline_overlap_seconds, 0.0);
  // The hidden inbound bursts still cross the bus: DMA accounting keeps
  // them; only the serialized card occupancy shrinks.
  EXPECT_GT(b.pcie_seconds, 0.0);
  EXPECT_LE(b.elapsed_seconds, a.elapsed_seconds * 1.001);
  // One card never contends with itself on the shared bus.
  EXPECT_EQ(0.0, a.bus_contention_seconds);
  EXPECT_EQ(0.0, b.bus_contention_seconds);
}

TEST(SimulatorTest, SecondCardDrainsTheKernelQueueButSharesTheBus) {
  // Slow (unseparated, Simulated-preset) kernels make the card the
  // bottleneck, so a backlog forms at one card and the second one has
  // real work to take.
  SimConfig one = FcaeConfig(512, 9, 8);
  one.cost = CostModel::Simulated();
  one.engine.opt_level = fpga::OptLevel::kBasic;
  one.compaction_threads = 4;
  one.leveling_ratio = 3;
  SimConfig two = one;
  two.num_cards = 2;
  SimResult a = Simulator(one).RunFillRandom(3e8);
  SimResult b = Simulator(two).RunFillRandom(3e8);

  // Queueing must exist at one card for the comparison to mean much.
  EXPECT_GT(a.device_queue_seconds, 0.0);
  // Least-queued placement over two lanes drains the FIFO backlog.
  EXPECT_LT(b.device_queue_seconds, a.device_queue_seconds);
  // Concurrent runs on sibling cards collide on the shared PCIe link.
  EXPECT_EQ(0.0, a.bus_contention_seconds);
  EXPECT_GT(b.bus_contention_seconds, 0.0);
  // The extra card never makes ingest worse.
  EXPECT_GE(b.throughput_mbps, a.throughput_mbps * 0.98);
  EXPECT_EQ(b.compactions, b.compactions_offloaded + b.compactions_sw);
}

TEST(SimulatorTest, MultiCardFaultRunStaysDeterministic) {
  SimConfig config = FcaeConfig(512, 9, 8);
  config.cost = CostModel::Simulated();
  config.engine.opt_level = fpga::OptLevel::kBasic;
  config.compaction_threads = 4;
  config.leveling_ratio = 3;
  config.num_cards = 2;
  config.device_fault_rate = 0.2;
  config.fault_seed = 33;
  SimResult a = Simulator(config).RunFillRandom(1e8);
  SimResult b = Simulator(config).RunFillRandom(1e8);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);
  EXPECT_DOUBLE_EQ(a.pipeline_overlap_seconds, b.pipeline_overlap_seconds);
  EXPECT_DOUBLE_EQ(a.bus_contention_seconds, b.bus_contention_seconds);
  EXPECT_EQ(a.compactions_retried, b.compactions_retried);
  EXPECT_EQ(a.compactions, a.compactions_offloaded + a.compactions_sw);
}

TEST(SimulatorTest, YcsbReadOnlyUnaffectedByDevice) {
  SimResult cpu =
      Simulator(CpuConfig(1024)).RunYcsb(workload::YcsbWorkload::kC,
                                         200000, 100000);
  SimResult fcae =
      Simulator(FcaeConfig(1024, 9, 8)).RunYcsb(workload::YcsbWorkload::kC,
                                                200000, 100000);
  // Paper Fig. 16: read-only workload C shows no degradation and no
  // gain (storage format unchanged).
  EXPECT_NEAR(1.0, fcae.throughput_kops / cpu.throughput_kops, 0.05);
}

TEST(SimulatorTest, YcsbSpeedupGrowsWithWriteRatio) {
  using W = workload::YcsbWorkload;
  auto speedup = [&](W w) {
    SimResult cpu = Simulator(CpuConfig(1024)).RunYcsb(w, 200000, 150000);
    SimResult fcae =
        Simulator(FcaeConfig(1024, 9, 8)).RunYcsb(w, 200000, 150000);
    return fcae.throughput_kops / cpu.throughput_kops;
  };
  const double load = speedup(W::kLoad);
  const double a = speedup(W::kA);
  const double b = speedup(W::kB);
  const double c = speedup(W::kC);
  EXPECT_GT(load, 1.5);           // Write-heavy gains the most.
  EXPECT_GT(a, b);                // 50% writes > 5% writes.
  EXPECT_GE(b, c * 0.95);         // Light writers >= read-only.
  EXPECT_NEAR(1.0, c, 0.05);      // Read-only unchanged.
}

TEST(SimulatorTest, FaultFreeRunHasNoRetryAccounting) {
  SimResult r = Simulator(FcaeConfig(512)).RunFillRandom(2e8);
  EXPECT_EQ(0u, r.compactions_retried);
  EXPECT_EQ(0u, r.compactions_fallback);
  EXPECT_EQ(0.0, r.fault_backoff_seconds);
  EXPECT_EQ(0.0, r.fault_wasted_device_seconds);
}

TEST(SimulatorTest, DeviceFaultsCostThroughputButNotCorrectness) {
  SimConfig faulty = FcaeConfig(512);
  faulty.device_fault_rate = 0.3;
  SimResult clean = Simulator(FcaeConfig(512)).RunFillRandom(2e8);
  SimResult r = Simulator(faulty).RunFillRandom(2e8);

  // At a 30% per-launch fault rate a 200 MB run must see retries.
  EXPECT_GT(r.compactions_retried, 0u);
  EXPECT_GT(r.fault_wasted_device_seconds, 0.0);
  EXPECT_GT(r.fault_backoff_seconds, 0.0);
  // Every compaction still completes, on the device or in software.
  EXPECT_EQ(r.compactions, r.compactions_offloaded + r.compactions_sw);
  // Wasted kernel time and backoff slow the run down, but not to zero.
  EXPECT_LT(r.throughput_mbps, clean.throughput_mbps);
  EXPECT_GT(r.throughput_mbps, 0.2 * clean.throughput_mbps);
}

TEST(SimulatorTest, RetryExhaustionFallsBackToSoftware) {
  SimConfig config = FcaeConfig(512);
  config.device_fault_rate = 0.6;
  config.device_retry_limit = 2;  // Two strikes and the CPU takes over.
  SimResult r = Simulator(config).RunFillRandom(2e8);
  EXPECT_GT(r.compactions_fallback, 0u);
  // Fallbacks run in software and are counted there, never double-counted.
  EXPECT_GE(r.compactions_sw, r.compactions_fallback);
  EXPECT_EQ(r.compactions, r.compactions_offloaded + r.compactions_sw);
  EXPECT_GT(r.cpu_compaction_seconds, 0.0);
}

TEST(SimulatorTest, FaultStreamIsDeterministicInSeed) {
  SimConfig config = FcaeConfig(512);
  config.device_fault_rate = 0.25;
  config.fault_seed = 77;
  SimResult a = Simulator(config).RunFillRandom(1e8);
  SimResult b = Simulator(config).RunFillRandom(1e8);
  EXPECT_EQ(a.compactions_retried, b.compactions_retried);
  EXPECT_EQ(a.compactions_fallback, b.compactions_fallback);
  EXPECT_DOUBLE_EQ(a.elapsed_seconds, b.elapsed_seconds);

  config.fault_seed = 78;
  SimResult c = Simulator(config).RunFillRandom(1e8);
  EXPECT_TRUE(a.compactions_retried != c.compactions_retried ||
              a.elapsed_seconds != c.elapsed_seconds);
}

TEST(SimulatorTest, ObsSpansAndCountersMirrorTheResult) {
  obs::MetricsRegistry registry;
  obs::TraceRecorder trace(1 << 16);

  SimConfig config = FcaeConfig(512);
  config.device_fault_rate = 0.25;  // Force retries and fallbacks.
  config.fault_seed = 77;
  config.metrics = &registry;
  config.trace = &trace;
  SimResult r = Simulator(config).RunFillRandom(1e8);

  // Counters emitted at the same event as the result field agree
  // exactly.
  EXPECT_EQ(r.flushes, registry.syssim_flushes.value());
  EXPECT_EQ(r.compactions, registry.syssim_compactions.value());
  EXPECT_EQ(r.compactions_retried,
            registry.syssim_compactions_retried.value());
  EXPECT_EQ(r.compactions_fallback,
            registry.syssim_compactions_fallback.value());

  // The offloaded/sw split is counted in the result at pick time but in
  // the metrics at install time, so the run may end with one picked
  // compaction still in flight (never installed).
  const uint64_t off = registry.syssim_compactions_offloaded.value();
  const uint64_t sw = registry.syssim_compactions_sw.value();
  EXPECT_LE(off, r.compactions_offloaded);
  EXPECT_LE(sw, r.compactions_sw);
  EXPECT_LE((r.compactions_offloaded - off) + (r.compactions_sw - sw), 1u);
  EXPECT_GT(off, 0u);

  // Spans were emitted in simulated time and are tagged as such.
  EXPECT_GT(trace.size(), 0u);
  std::string json = trace.ToJson();
  EXPECT_NE(std::string::npos, json.find("\"flush\""));
  EXPECT_NE(std::string::npos, json.find("\"compaction\""));
  EXPECT_NE(std::string::npos, json.find("\"simulated\": true"));
  if (r.compactions_fallback > 0) {
    EXPECT_NE(std::string::npos, json.find("\"cpu_fallback\""));
  }
  if (r.compactions_retried > 0 || r.compactions_fallback > 0) {
    EXPECT_NE(std::string::npos, json.find("\"retry\""));
  }
}

// Golden rows: every SimResult field of fill and YCSB runs across the
// inputs of the compaction trigger (leveling ratio, engine inputs, the
// strict L0 cap, parallel level pairs), recorded before the storage
// engine and the simulator shared one trigger. A change to when a
// compaction starts shows here as a changed row; only a deliberate
// change to the model may re-record one (a mismatch prints the new row).
namespace {

constexpr int kNumSimCounts = 6;
constexpr int kNumSimDoubles = 17;

struct GoldenSimCase {
  std::string name;
  SimConfig config;
  double fill_bytes = 0;  // RunFillRandom when > 0, else RunYcsb.
  workload::YcsbWorkload ycsb = workload::YcsbWorkload::kA;
};

std::vector<GoldenSimCase> GoldenSimCases() {
  std::vector<GoldenSimCase> cases;
  for (bool fcae : {false, true}) {
    for (int n : {2, 9}) {
      for (int ratio : {4, 10, 16}) {
        for (int threads : {1, 2}) {
          GoldenSimCase c;
          c.config = fcae ? FcaeConfig(512, n, n == 2 ? 16 : 8)
                          : CpuConfig(512);
          c.config.engine.num_inputs = n;
          c.config.leveling_ratio = ratio;
          c.config.compaction_threads = threads;
          c.fill_bytes = threads == 1 ? 3e8 : 1e9;
          c.name = test::Cat(fcae ? "fcae" : "cpu", n, ".r", ratio, ".t",
                             threads);
          cases.push_back(c);
        }
      }
    }
  }
  GoldenSimCase strict;
  strict.config = FcaeConfig(512, 9, 8);
  strict.config.multipass_offload = false;
  strict.fill_bytes = 6e8;
  strict.name = "fcae9.strict";
  cases.push_back(strict);
  for (bool fcae : {false, true}) {
    GoldenSimCase ycsb;
    ycsb.config = fcae ? FcaeConfig(1024, 9, 8) : CpuConfig(1024);
    ycsb.name = fcae ? "ycsb.a.fcae9" : "ycsb.a.cpu";
    cases.push_back(ycsb);
  }
  return cases;
}

std::array<uint64_t, kNumSimCounts> SimCounts(const SimResult& r) {
  return {r.flushes,
          r.compactions,
          r.compactions_offloaded,
          r.compactions_sw,
          r.compactions_retried,
          r.compactions_fallback};
}

std::array<double, kNumSimDoubles> SimDoubles(const SimResult& r) {
  return {r.elapsed_seconds,
          r.throughput_mbps,
          r.throughput_kops,
          r.stall_seconds,
          r.slowdown_seconds,
          r.pcie_seconds,
          r.device_seconds,
          r.cpu_compaction_seconds,
          r.flush_seconds,
          r.fault_backoff_seconds,
          r.fault_wasted_device_seconds,
          r.device_queue_seconds,
          r.pipeline_overlap_seconds,
          r.bus_contention_seconds,
          r.bytes_compacted_in,
          r.bytes_compacted_out,
          r.user_bytes};
}

struct GoldenSimRow {
  const char* name;
  uint64_t counts[kNumSimCounts];
  double doubles[kNumSimDoubles];
};

const GoldenSimRow kGoldenSimRows[] = {
    {"cpu2.r4.t1",
     {70, 54, 0, 54, 0, 0},
     {135.49941387890803, 2.2140317172744486, 0, 1.3888865745454564,
      124.16093699237408, 0, 0, 124.39266017055684, 11.911823360000009, 0, 0, 0,
      0, 0, 745253580.85582399, 722895973.43014956, 300000000}},
    {"cpu2.r4.t2",
     {237, 204, 0, 204, 0, 0},
     {1050.3786002895506, 0.95203767453405552, 0, 4.2786667054545608,
      1014.9924769467995, 0, 0, 1037.5641510114299, 39.929774079999788, 0, 0, 0,
      0, 0, 6300481311.7685623, 6111466872.4154873, 1000000000}},
    {"cpu2.r10.t1",
     {70, 54, 0, 54, 0, 0},
     {156.81476896105673, 1.913085113013187, 0, 1.3888865745454564,
      145.55149373212902, 0, 0, 146.28135628912369, 11.911823360000009, 0, 0, 0,
      0, 0, 993071986.72814679, 963279827.12630177, 300000000}},
    {"cpu2.r10.t2",
     {237, 179, 0, 179, 0, 0},
     {1006.1683050087239, 0.99386950972514443, 0, 4.3682722909091067,
      970.56317763811887, 0, 0, 1001.3664572570257, 39.929774079999788, 0, 0, 0,
      0, 0, 6288376688.6652031, 6099725388.0052509, 1000000000}},
    {"cpu2.r16.t1",
     {70, 54, 0, 54, 0, 0},
     {156.81476896105673, 1.913085113013187, 0, 1.3888865745454564,
      145.55149373212902, 0, 0, 146.28135628912369, 11.911823360000009, 0, 0, 0,
      0, 0, 993071986.72814679, 963279827.12630177, 300000000}},
    {"cpu2.r16.t2",
     {237, 198, 0, 198, 0, 0},
     {851.68609834513575, 1.1741415081719013, 0, 4.4578778763636526,
      815.45858553075811, 0, 0, 841.60594517777679, 39.929774079999788, 0, 0, 0,
      0, 0, 5505172157.0491533, 5340016992.3376808, 1000000000}},
    {"cpu9.r4.t1",
     {70, 54, 0, 54, 0, 0},
     {135.49941387890803, 2.2140317172744486, 0, 1.3888865745454564,
      124.16093699237408, 0, 0, 124.39266017055684, 11.911823360000009, 0, 0, 0,
      0, 0, 745253580.85582399, 722895973.43014956, 300000000}},
    {"cpu9.r4.t2",
     {237, 204, 0, 204, 0, 0},
     {1050.3786002895506, 0.95203767453405552, 0, 4.2786667054545608,
      1014.9924769467995, 0, 0, 1037.5641510114299, 39.929774079999788, 0, 0, 0,
      0, 0, 6300481311.7685623, 6111466872.4154873, 1000000000}},
    {"cpu9.r10.t1",
     {70, 54, 0, 54, 0, 0},
     {156.81476896105673, 1.913085113013187, 0, 1.3888865745454564,
      145.55149373212902, 0, 0, 146.28135628912369, 11.911823360000009, 0, 0, 0,
      0, 0, 993071986.72814679, 963279827.12630177, 300000000}},
    {"cpu9.r10.t2",
     {237, 179, 0, 179, 0, 0},
     {1006.1683050087239, 0.99386950972514443, 0, 4.3682722909091067,
      970.56317763811887, 0, 0, 1001.3664572570257, 39.929774079999788, 0, 0, 0,
      0, 0, 6288376688.6652031, 6099725388.0052509, 1000000000}},
    {"cpu9.r16.t1",
     {70, 54, 0, 54, 0, 0},
     {156.81476896105673, 1.913085113013187, 0, 1.3888865745454564,
      145.55149373212902, 0, 0, 146.28135628912369, 11.911823360000009, 0, 0, 0,
      0, 0, 993071986.72814679, 963279827.12630177, 300000000}},
    {"cpu9.r16.t2",
     {237, 198, 0, 198, 0, 0},
     {851.68609834513575, 1.1741415081719013, 0, 4.4578778763636526,
      815.45858553075811, 0, 0, 841.60594517777679, 39.929774079999788, 0, 0, 0,
      0, 0, 5505172157.0491533, 5340016992.3376808, 1000000000}},
    {"fcae2.r4.t1",
     {70, 55, 55, 0, 0, 0},
     {36.485596465317137, 8.2224227932021652, 0, 1.3888865745454564,
      15.058696870647383, 0.12175450207624017, 2.4641469532017357, 0,
      11.911823360000009, 0, 0, 0, 0, 0, 752137549.29689443, 729573422.8179878,
      300000000}},
    {"fcae2.r4.t2",
     {237, 264, 264, 0, 0, 0},
     {146.35112407821453, 6.8328822637916291, 0, 4.7042932363636538,
      74.513936434463417, 0.64973857213476693, 13.489551494764379, 0,
      39.929774079999788, 0, 0, 8.4946620773027703, 0.1277840005888855, 0,
      3957798408.9427438, 3839064456.6744475, 1000000000}},
    {"fcae2.r10.t1",
     {70, 54, 54, 0, 0, 0},
     {39.96702816997589, 7.5061873183097108, 0, 1.3888865745454564,
      18.609182270470896, 0.16243802370694663, 2.8588250960147987, 0,
      11.911823360000009, 0, 0, 0, 0, 0, 989470195.16921735, 959786089.31413996,
      300000000}},
    {"fcae2.r10.t2",
     {237, 270, 270, 0, 0, 0},
     {161.09497253507774, 6.2075183617679581, 0, 4.7042932363636538,
      89.091731266530758, 0.83388096101489284, 13.427494513492785, 0,
      39.929774079999788, 0, 0, 4.2850009493360304, 0.080164605001279199, 0,
      5079477935.1161184, 4927093597.0626469, 1000000000}},
    {"fcae2.r16.t1",
     {70, 54, 54, 0, 0, 0},
     {39.96702816997589, 7.5061873183097108, 0, 1.3888865745454564,
      18.609182270470896, 0.16243802370694663, 2.8588250960147987, 0,
      11.911823360000009, 0, 0, 0, 0, 0, 989470195.16921735, 959786089.31413996,
      300000000}},
    {"fcae2.r16.t2",
     {237, 263, 263, 0, 0, 0},
     {159.96130692344173, 6.2515118139076282, 0, 4.7042932363636538,
      88.118014705935323, 0.8103454087182741, 13.075314954106037, 0,
      39.929774079999788, 0, 0, 3.2420310578925324, 0.058461461304389672, 0,
      4936114164.7813835, 4788030739.8379498, 1000000000}},
    {"fcae9.r4.t1",
     {70, 54, 54, 0, 0, 0},
     {37.246727734679673, 8.0543988222803282, 0, 1.3888865745454564,
      15.926842776988963, 0.12175450207624017, 3.1756801033971183, 0,
      11.911823360000009, 0, 0, 0, 0, 0, 741651789.29689443, 719402235.61798775,
      300000000}},
    {"fcae9.r4.t2",
     {237, 264, 264, 0, 0, 0},
     {149.59613142836005, 6.6846648402728857, 0, 4.7042932363636538,
      78.106122654183238, 0.64973857213476693, 17.406140471583132, 0,
      39.929774079999788, 0, 0, 8.5258005927900875, 0.1277840005888855, 0,
      3957798408.9427438, 3839064456.6744475, 1000000000}},
    {"fcae9.r10.t1",
     {70, 54, 54, 0, 0, 0},
     {41.067555486626198, 7.3050366997786398, 0, 1.3888865745454564,
      19.805111257840856, 0.16243802370694663, 3.9678624576224872, 0,
      11.911823360000009, 0, 0, 0, 0, 0, 989470195.16921735, 959786089.31413996,
      300000000}},
    {"fcae9.r10.t2",
     {237, 270, 270, 0, 0, 0},
     {166.40892760953184, 6.0092929770356882, 0, 4.7042932363636538,
      94.552107881856799, 0.83388096101489284, 19.755013100813368, 0,
      39.929774079999788, 0, 0, 4.302413546192362, 0.080164605001279199, 0,
      5079477935.1161184, 4927093597.0626469, 1000000000}},
    {"fcae9.r16.t1",
     {70, 54, 54, 0, 0, 0},
     {41.067555486626198, 7.3050366997786398, 0, 1.3888865745454564,
      19.805111257840856, 0.16243802370694663, 3.9678624576224872, 0,
      11.911823360000009, 0, 0, 0, 0, 0, 989470195.16921735, 959786089.31413996,
      300000000}},
    {"fcae9.r16.t2",
     {237, 263, 263, 0, 0, 0},
     {165.4379928480692, 6.0445607613140888, 0, 4.7042932363636538,
      93.797948951235611, 0.8103454087182741, 19.213866060345811, 0,
      39.929774079999788, 0, 0, 3.2548979199735584, 0.058461461304403883, 0,
      4936114164.7813835, 4788030739.8379498, 1000000000}},
    {"fcae9.strict",
     {142, 141, 141, 0, 0, 0},
     {93.398229451809755, 6.4241046486815812, 0, 2.7777731490909168,
      50.965637020202429, 0.43948178056032999, 8.5575116806178908, 0,
      23.991418879999937, 0, 0, 0, 0, 0, 2677046379.0477009, 2596734987.6762676,
      600000000}},
    {"ycsb.a.cpu",
     {12, 4, 0, 4, 0, 0},
     {7.2657168499806799, 7.1202554501057334, 13.76326686887969, 0,
      1.5858493161344689, 0, 0, 10.794944826567844, 2.0132659199999998, 0, 0, 0,
      0, 0, 69901927.936000019, 67804870.09792003, 51733760}},
    {"ycsb.a.fcae9",
     {12, 18, 18, 0, 0, 0},
     {6.3695909723999868, 8.1219909134145425, 15.699595222567513, 0, 0,
      0.040495384541360945, 0.64705198542945996, 0, 2.0132659199999998, 0, 0, 0,
      0, 0, 246672393.14534587, 239272221.35098547, 51733760}},
};

std::string GoldenSimRowText(const std::string& name, const SimResult& r) {
  std::string row = test::Cat("{\"", name, "\",\n {");
  const auto counts = SimCounts(r);
  for (int f = 0; f < kNumSimCounts; f++) {
    row += test::Cat(f > 0 ? ", " : "", counts[f]);
  }
  row += "},\n {";
  const auto doubles = SimDoubles(r);
  for (int f = 0; f < kNumSimDoubles; f++) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", doubles[f]);
    row += (f > 0 ? ", " : "");
    row += buf;
  }
  return row + "}},";
}

}  // namespace

TEST(SimulatorTest, GoldenRowsAcrossTheCompactionTrigger) {
  const std::vector<GoldenSimCase> cases = GoldenSimCases();
  for (size_t row = 0; row < cases.size(); row++) {
    const GoldenSimCase& c = cases[row];
    SCOPED_TRACE(c.name);
    const SimResult r =
        c.fill_bytes > 0
            ? Simulator(c.config).RunFillRandom(c.fill_bytes)
            : Simulator(c.config).RunYcsb(c.ycsb, 200000, 100000);
    if (row >= std::size(kGoldenSimRows) ||
        kGoldenSimRows[row].name != c.name) {
      ADD_FAILURE() << "no golden row; actual:\n"
                    << GoldenSimRowText(c.name, r);
      continue;
    }
    const GoldenSimRow& golden = kGoldenSimRows[row];
    const auto counts = SimCounts(r);
    const auto doubles = SimDoubles(r);
    bool match = true;
    for (int f = 0; f < kNumSimCounts; f++) {
      EXPECT_EQ(golden.counts[f], counts[f]) << "count " << f;
      match = match && golden.counts[f] == counts[f];
    }
    for (int f = 0; f < kNumSimDoubles; f++) {
      const double tol = 1e-9 * std::fabs(golden.doubles[f]);
      EXPECT_NEAR(golden.doubles[f], doubles[f], tol) << "double " << f;
      match = match && std::fabs(golden.doubles[f] - doubles[f]) <= tol;
    }
    if (!match) {
      ADD_FAILURE() << "actual:\n" << GoldenSimRowText(c.name, r);
    }
  }
  EXPECT_EQ(std::size(kGoldenSimRows), cases.size());
}

}  // namespace syssim
}  // namespace fcae
