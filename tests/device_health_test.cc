// Unit tests of the fault-tolerant offload building blocks: the seeded
// DeviceFaultInjector (deterministic streams, one-shots, sticky drops),
// the DeviceHealthMonitor circuit breaker, the host output verifier
// that keeps silently corrupt device results out of the manifest, and
// the device-level kernel deadline watchdog.

#include <memory>
#include <string>
#include <vector>

#include "fpga/fault_injector.h"
#include "fpga_test_util.h"
#include "gtest/gtest.h"
#include "host/device_health_monitor.h"
#include "host/fcae_device.h"
#include "host/output_verifier.h"
#include "obs/event_listener.h"
#include "obs/metrics.h"
#include "lsm/dbformat.h"
#include "table/block.h"
#include "table/filter_block.h"
#include "table/format.h"
#include "table/iterator.h"
#include "util/filter_policy.h"
#include "util/mem_env.h"

namespace fcae {
namespace host {

using fpga_test::BuildDeviceInput;
using fpga_test::MakeRun;

// ---------------------------------------------------------------------
// DeviceFaultInjector
// ---------------------------------------------------------------------

TEST(DeviceFaultInjectorTest, DeterministicFromSeed) {
  fpga::DeviceFaultConfig config;
  config.seed = 99;
  config.transient_rate = 0.3;

  fpga::DeviceFaultInjector a(config);
  fpga::DeviceFaultInjector b(config);
  for (int i = 0; i < 500; i++) {
    fpga::FaultDecision da = a.NextLaunch();
    fpga::FaultDecision db = b.NextLaunch();
    EXPECT_EQ(da.cls, db.cls) << "launch " << i;
    EXPECT_EQ(da.silent, db.silent) << "launch " << i;
    EXPECT_EQ(da.corruption_seed, db.corruption_seed) << "launch " << i;
  }
  EXPECT_EQ(a.total_faults(), b.total_faults());
  EXPECT_GT(a.total_faults(), 0u);
  EXPECT_LT(a.total_faults(), 500u);
  EXPECT_EQ(500u, a.launches());
}

TEST(DeviceFaultInjectorTest, ZeroRateDrawsNothing) {
  fpga::DeviceFaultInjector injector(fpga::DeviceFaultConfig{});
  for (int i = 0; i < 200; i++) {
    EXPECT_EQ(fpga::DeviceFaultClass::kNone, injector.NextLaunch().cls);
  }
  EXPECT_EQ(0u, injector.total_faults());
}

TEST(DeviceFaultInjectorTest, RateIsRoughlyHonored) {
  fpga::DeviceFaultConfig config;
  config.seed = 7;
  config.transient_rate = 0.10;
  fpga::DeviceFaultInjector injector(config);
  const int n = 5000;
  for (int i = 0; i < n; i++) injector.NextLaunch();
  // 10% +- generous slack.
  EXPECT_GT(injector.total_faults(), n / 20u);
  EXPECT_LT(injector.total_faults(), n / 5u);
  // All three transient classes occur with equal default weights.
  EXPECT_GT(injector.count(fpga::DeviceFaultClass::kDmaCorruption), 0u);
  EXPECT_GT(injector.count(fpga::DeviceFaultClass::kKernelTimeout), 0u);
  EXPECT_GT(injector.count(fpga::DeviceFaultClass::kDeviceBusy), 0u);
  EXPECT_EQ(0u, injector.count(fpga::DeviceFaultClass::kCardDropped));
}

TEST(DeviceFaultInjectorTest, OneShotOverridesStream) {
  fpga::DeviceFaultInjector injector(fpga::DeviceFaultConfig{});
  injector.ArmOneShot(fpga::DeviceFaultClass::kDeviceBusy, 3);
  EXPECT_EQ(fpga::DeviceFaultClass::kNone, injector.NextLaunch().cls);
  EXPECT_EQ(fpga::DeviceFaultClass::kNone, injector.NextLaunch().cls);
  EXPECT_EQ(fpga::DeviceFaultClass::kDeviceBusy, injector.NextLaunch().cls);
  EXPECT_EQ(fpga::DeviceFaultClass::kNone, injector.NextLaunch().cls);
  EXPECT_EQ(1u, injector.total_faults());
}

TEST(DeviceFaultInjectorTest, CardDropIsSticky) {
  fpga::DeviceFaultConfig config;
  config.card_drop_at_launch = 2;
  fpga::DeviceFaultInjector injector(config);
  EXPECT_EQ(fpga::DeviceFaultClass::kNone, injector.NextLaunch().cls);
  EXPECT_EQ(fpga::DeviceFaultClass::kCardDropped, injector.NextLaunch().cls);
  // Every subsequent launch keeps failing until the card is repaired.
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(fpga::DeviceFaultClass::kCardDropped,
              injector.NextLaunch().cls);
  }
  EXPECT_TRUE(injector.card_dropped());
  injector.RepairCard();
  EXPECT_FALSE(injector.card_dropped());
  EXPECT_EQ(fpga::DeviceFaultClass::kNone, injector.NextLaunch().cls);
}

// ---------------------------------------------------------------------
// DeviceHealthMonitor
// ---------------------------------------------------------------------

TEST(DeviceHealthMonitorTest, OpensAfterConsecutiveFailures) {
  DeviceHealthOptions options;
  options.quarantine_threshold = 3;
  DeviceHealthMonitor monitor(options, /*card_id=*/0);

  EXPECT_TRUE(monitor.Admit());
  monitor.RecordJobFailure(false);
  monitor.RecordJobFailure(false);
  EXPECT_FALSE(monitor.quarantined());  // 2 < threshold.
  // A success in between resets the streak.
  monitor.RecordJobSuccess();
  monitor.RecordJobFailure(false);
  monitor.RecordJobFailure(false);
  EXPECT_FALSE(monitor.quarantined());
  monitor.RecordJobFailure(false);
  EXPECT_TRUE(monitor.quarantined());
  EXPECT_EQ(1u, monitor.snapshot().quarantines);
}

TEST(DeviceHealthMonitorTest, StickyFailureOpensImmediately) {
  DeviceHealthOptions options;
  options.quarantine_threshold = 3;
  options.sticky_weight = 3;
  DeviceHealthMonitor monitor(options, /*card_id=*/0);
  monitor.RecordJobFailure(/*sticky=*/true);
  EXPECT_TRUE(monitor.quarantined());
}

TEST(DeviceHealthMonitorTest, ProbeAndReadmission) {
  DeviceHealthOptions options;
  options.quarantine_threshold = 1;
  options.probe_interval = 4;
  DeviceHealthMonitor monitor(options, /*card_id=*/0);
  monitor.RecordJobFailure(false);
  ASSERT_TRUE(monitor.quarantined());

  // Denied until the probe_interval-th request, which is let through.
  int admitted = 0;
  for (int i = 0; i < 4; i++) {
    if (monitor.Admit()) admitted++;
  }
  EXPECT_EQ(1, admitted);
  DeviceHealthMonitor::Snapshot snap = monitor.snapshot();
  EXPECT_EQ(3u, snap.jobs_denied);
  EXPECT_EQ(1u, snap.probes);

  // A failed probe keeps the breaker open...
  monitor.RecordJobFailure(false);
  EXPECT_TRUE(monitor.quarantined());
  // ...a successful one closes it.
  for (int i = 0; i < 4; i++) monitor.Admit();
  monitor.RecordJobSuccess();
  EXPECT_FALSE(monitor.quarantined());
  EXPECT_EQ(1u, monitor.snapshot().readmissions);
  // Closed breaker admits everything without counting denials.
  EXPECT_TRUE(monitor.Admit());
  EXPECT_TRUE(monitor.Admit());
}

TEST(DeviceHealthMonitorTest, CardBoundMonitorPublishesPerCardNames) {
  // The monitor of card 2 of a DeviceSet must publish its gauges under
  // health.card2.* (no card-less names) and stamp the card id on every
  // OnDeviceHealthChange event, so per-card breakers never alias in the
  // registry or in listener callbacks.
  class CaptureListener : public obs::EventListener {
   public:
    void OnDeviceHealthChange(
        const obs::DeviceHealthChangeInfo& info) override {
      MutexLock lock(&mutex_);
      events_.push_back(info);
    }
    std::vector<obs::DeviceHealthChangeInfo> events() const {
      MutexLock lock(&mutex_);
      return events_;
    }

   private:
    mutable Mutex mutex_;
    std::vector<obs::DeviceHealthChangeInfo> events_;
  };

  obs::MetricsRegistry metrics;
  CaptureListener listener;
  obs::EventNotifier notifier({&listener});

  DeviceHealthOptions options;
  options.quarantine_threshold = 1;
  options.sticky_weight = 1;
  DeviceHealthMonitor monitor(options, /*card_id=*/2);
  EXPECT_EQ(2, monitor.card_id());
  monitor.AttachObservability(&metrics, nullptr);
  monitor.AttachNotifier(&notifier);

  monitor.RecordJobFailure(/*sticky=*/true);
  ASSERT_TRUE(monitor.quarantined());
  EXPECT_EQ(1, metrics.card(2)->quarantined.value());
  EXPECT_EQ(1, metrics.card(2)->sticky_failures.value());
  EXPECT_EQ(1, metrics.card(2)->quarantines.value());
  // The gauges export under the card's name, and under no card-less one.
  const std::string json = metrics.ToJson();
  EXPECT_NE(std::string::npos, json.find("\"health.card2.quarantined\": 1"));
  EXPECT_EQ(std::string::npos, json.find("\"health.quarantined\""));

  // The breaker closing again fires a second event, same card id.
  monitor.RecordJobSuccess();
  ASSERT_FALSE(monitor.quarantined());
  std::vector<obs::DeviceHealthChangeInfo> events = listener.events();
  ASSERT_EQ(2u, events.size());
  EXPECT_EQ(2, events[0].card_id);
  EXPECT_TRUE(events[0].quarantined);
  EXPECT_EQ(2, events[1].card_id);
  EXPECT_FALSE(events[1].quarantined);

  // ToString names the card so multi-card health dumps stay readable.
  EXPECT_NE(std::string::npos, monitor.ToString().find("card2"))
      << monitor.ToString();
}

// A device set may outlive the registry of the DB that last used it, and
// the next registry may be built at the same address. Each attach binds
// the new registry's own block, so the monitor never writes through the
// old one.
TEST(DeviceHealthMonitorTest, EachAttachBindsTheCurrentRegistry) {
  DeviceHealthMonitor monitor(DeviceHealthOptions(), /*card_id=*/0);
  for (int round = 1; round <= 3; round++) {
    obs::MetricsRegistry metrics;  // One stack slot, reused each round.
    monitor.AttachObservability(&metrics, nullptr);
    EXPECT_EQ(round - 1, metrics.card(0)->jobs_succeeded.value());
    monitor.RecordJobSuccess();
    EXPECT_EQ(round, metrics.card(0)->jobs_succeeded.value());
  }
}

TEST(DeviceHealthMonitorTest, ToStringCarriesCounters) {
  DeviceHealthMonitor monitor(DeviceHealthOptions(), /*card_id=*/0);
  monitor.RecordJobSuccess();
  monitor.RecordJobFailure(false);
  std::string s = monitor.ToString();
  EXPECT_NE(std::string::npos, s.find("quarantined=0")) << s;
  EXPECT_NE(std::string::npos, s.find("ok=1")) << s;
  EXPECT_NE(std::string::npos, s.find("failed=1")) << s;
}

// ---------------------------------------------------------------------
// Output verification
// ---------------------------------------------------------------------

class OutputVerifierTest : public testing::Test {
 public:
  OutputVerifierTest()
      : env_(NewMemEnv(Env::Default())), icmp_(BytewiseComparator()) {
    options_.env = env_.get();
  }

  /// Produces a genuine device output by merging two staged runs;
  /// `many_tables` splits it into a dozen uncompressed 4 KiB tables.
  fpga::DeviceOutput MakeOutput(bool many_tables = false) {
    std::vector<std::unique_ptr<fpga::DeviceInput>> inputs;
    for (int i = 0; i < 2; i++) {
      auto input = std::make_unique<fpga::DeviceInput>();
      auto run = MakeRun("key", i, 400, 2, 1000 * (i + 1), 48);
      EXPECT_TRUE(
          BuildDeviceInput(env_.get(), options_, {run}, i, input.get()).ok());
      inputs.push_back(std::move(input));
    }
    fpga::EngineConfig config;
    config.num_inputs = 2;
    if (many_tables) {
      config.sstable_threshold = 4 << 10;
      config.compress_output = false;
    }
    FcaeDevice device(config);
    fpga::DeviceOutput output;
    DeviceRunStats stats;
    EXPECT_TRUE(device
                    .ExecuteCompaction({inputs[0].get(), inputs[1].get()},
                                       kNoSnapshot, true, &output, &stats)
                    .ok());
    EXPECT_FALSE(output.tables.empty());
    return output;
  }

  std::unique_ptr<Env> env_;
  InternalKeyComparator icmp_;
  Options options_;
};

TEST_F(OutputVerifierTest, CleanOutputPasses) {
  fpga::DeviceOutput output = MakeOutput();
  OutputVerifyStats stats;
  Status s = VerifyDeviceOutput(output, icmp_, &stats);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(static_cast<uint64_t>(output.tables.size()), stats.tables);
  EXPECT_GT(stats.blocks, 0u);
  EXPECT_EQ(800u, stats.entries);
}

TEST_F(OutputVerifierTest, FlippedPayloadByteIsCaught) {
  fpga::DeviceOutput output = MakeOutput();
  // Flip one byte in the middle of the first table's data memory — a
  // silent DMA corruption the link CRC missed.
  fpga::DeviceOutputTable& table = output.tables.front();
  table.data_memory[table.data_memory.size() / 2] ^= 0x40;
  OutputVerifyStats stats;
  Status s = VerifyDeviceOutput(output, icmp_, &stats);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(OutputVerifierTest, EveryCorruptedBytePositionIsCaught) {
  // Byte flips anywhere in the output (payload, trailer, restart
  // array) must be caught by some check: CRC, ordering, or bounds.
  fpga::DeviceOutput clean = MakeOutput();
  ASSERT_FALSE(clean.tables.empty());
  const size_t size = clean.tables[0].data_memory.size();
  for (size_t pos = 0; pos < size; pos += 97) {
    fpga::DeviceOutput copy = clean;
    copy.tables[0].data_memory[pos] ^= 0x01;
    OutputVerifyStats stats;
    Status s = VerifyDeviceOutput(copy, icmp_, &stats);
    EXPECT_FALSE(s.ok()) << "flip at byte " << pos << " went undetected";
  }
}

TEST_F(OutputVerifierTest, EntryCountMismatchIsCaught) {
  fpga::DeviceOutput output = MakeOutput();
  output.tables[0].num_entries += 1;
  OutputVerifyStats stats;
  EXPECT_TRUE(VerifyDeviceOutput(output, icmp_, &stats).IsCorruption());
}

TEST_F(OutputVerifierTest, BoundsMismatchIsCaught) {
  fpga::DeviceOutput output = MakeOutput();
  // Claim a larger largest-key than the data holds.
  std::string fake;
  AppendInternalKey(&fake, ParsedInternalKey("zzzz", 1, kTypeValue));
  output.tables[0].largest_key = fake;
  OutputVerifyStats stats;
  EXPECT_TRUE(VerifyDeviceOutput(output, icmp_, &stats).IsCorruption());
}

TEST_F(OutputVerifierTest, FilterBlocksMatchAReferenceWalk) {
  const fpga::DeviceOutput output = MakeOutput(/*many_tables=*/true);
  ASSERT_GE(output.tables.size(), 4u);
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
  OutputVerifyStats stats;
  std::vector<std::string> filters;
  Status s = VerifyDeviceOutput(output, icmp_, &stats, bloom.get(), &filters);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(output.tables.size(), filters.size());
  for (size_t t = 0; t < output.tables.size(); t++) {
    // The reference: every key of every block, in index order, each
    // block started at its offset, as TableBuilder feeds its filter.
    const fpga::DeviceOutputTable& table = output.tables[t];
    FilterBlockBuilder reference(bloom.get());
    for (const fpga::OutputIndexEntry& e : table.index_entries) {
      BlockHandle handle;
      handle.set_offset(e.offset);
      handle.set_size(e.size);
      reference.StartBlock(e.offset);
      std::unique_ptr<Iterator> iter(
          NewImageBlockIterator(table.data_memory, handle, &icmp_));
      for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        reference.AddKey(iter->key());
      }
      ASSERT_TRUE(iter->status().ok());
    }
    EXPECT_EQ(reference.Finish().ToString(), filters[t]) << "table " << t;
  }
}

TEST_F(OutputVerifierTest, CorruptLastTableOfManyIsCaught) {
  fpga::DeviceOutput output = MakeOutput(/*many_tables=*/true);
  ASSERT_GE(output.tables.size(), 4u);
  fpga::DeviceOutputTable& last = output.tables.back();
  last.data_memory[last.data_memory.size() / 2] ^= 0x40;
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
  OutputVerifyStats stats;
  std::vector<std::string> filters;
  Status s = VerifyDeviceOutput(output, icmp_, &stats, bloom.get(), &filters);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_TRUE(filters.empty());  // A rejected output yields no filter.
}

TEST_F(OutputVerifierTest, LowestCorruptTableIsReported) {
  // The tables are checked in parallel. With tables 1 and 3 both
  // corrupt, the error must be table 1's, as a walk in table order
  // finds it; the two corruptions give different errors.
  const fpga::DeviceOutput clean = MakeOutput(/*many_tables=*/true);
  ASSERT_GE(clean.tables.size(), 4u);
  fpga::DeviceOutput table1 = clean;
  std::string& data1 = table1.tables[1].data_memory;
  data1[data1.size() / 2] ^= 0x40;
  fpga::DeviceOutput table3 = clean;
  table3.tables[3].num_entries ^= 1;
  fpga::DeviceOutput both = table1;
  both.tables[3].num_entries ^= 1;

  OutputVerifyStats stats;
  const Status s1 = VerifyDeviceOutput(table1, icmp_, &stats);
  const Status s3 = VerifyDeviceOutput(table3, icmp_, &stats);
  ASSERT_TRUE(s1.IsCorruption()) << s1.ToString();
  ASSERT_TRUE(s3.IsCorruption()) << s3.ToString();
  ASSERT_NE(s1.ToString(), s3.ToString());
  for (int round = 0; round < 20; round++) {
    EXPECT_EQ(s1.ToString(),
              VerifyDeviceOutput(both, icmp_, &stats).ToString())
        << "round " << round;
  }
}

TEST_F(OutputVerifierTest, SilentDeviceCorruptionIsCaughtBeforeInstall) {
  // End to end at the device layer: a silent DMA corruption makes the
  // kernel call SUCCEED with flipped bytes; only the verifier stands
  // between it and the manifest.
  std::vector<std::unique_ptr<fpga::DeviceInput>> inputs;
  for (int i = 0; i < 2; i++) {
    auto input = std::make_unique<fpga::DeviceInput>();
    auto run = MakeRun("key", i, 400, 2, 1000 * (i + 1), 48);
    ASSERT_TRUE(
        BuildDeviceInput(env_.get(), options_, {run}, i, input.get()).ok());
    inputs.push_back(std::move(input));
  }
  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);
  fpga::DeviceFaultInjector injector(fpga::DeviceFaultConfig{});
  device.set_fault_injector(&injector);
  injector.ArmOneShot(fpga::DeviceFaultClass::kDmaCorruption, 1,
                      /*silent=*/true);

  fpga::DeviceOutput output;
  DeviceRunStats stats;
  Status s = device.ExecuteCompaction({inputs[0].get(), inputs[1].get()},
                                      kNoSnapshot, true, &output, &stats);
  ASSERT_TRUE(s.ok()) << "silent corruption must not fail the kernel call";
  EXPECT_EQ(1u, stats.faults_injected);

  OutputVerifyStats verify_stats;
  Status vs = VerifyDeviceOutput(output, icmp_, &verify_stats);
  EXPECT_TRUE(vs.IsCorruption())
      << "silent corruption evaded the verifier: " << vs.ToString();
}

// ---------------------------------------------------------------------
// Kernel deadline watchdog
// ---------------------------------------------------------------------

TEST_F(OutputVerifierTest, NaturalDeadlineOverrunKillsKernel) {
  std::vector<std::unique_ptr<fpga::DeviceInput>> inputs;
  for (int i = 0; i < 2; i++) {
    auto input = std::make_unique<fpga::DeviceInput>();
    auto run = MakeRun("key", i, 400, 2, 1000 * (i + 1), 48);
    ASSERT_TRUE(
        BuildDeviceInput(env_.get(), options_, {run}, i, input.get()).ok());
    inputs.push_back(std::move(input));
  }
  fpga::EngineConfig config;
  config.num_inputs = 2;
  config.kernel_deadline_cycles = 10;  // Impossibly tight watchdog.
  FcaeDevice device(config);

  fpga::DeviceOutput output;
  DeviceRunStats stats;
  Status s = device.ExecuteCompaction({inputs[0].get(), inputs[1].get()},
                                      kNoSnapshot, true, &output, &stats);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(output.tables.empty());
  EXPECT_EQ(1u, device.deadline_kills());
}

}  // namespace host
}  // namespace fcae
