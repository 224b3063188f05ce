// Unit and end-to-end tests of the multi-card offload layer: the
// modeled DMA timeline (double buffering and shared-bus waits),
// DeviceSet placement (least queued bytes, quarantine skipping, probe
// fallback), per-card fault seeds, the double-buffered DMA pipeline of
// FcaeDevice, and a two-card DB that must degrade gracefully when one
// card is quarantined.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "fpga/dma_timeline.h"
#include "fpga/fault_injector.h"
#include "fpga_test_util.h"
#include "gtest/gtest.h"
#include "host/device_set.h"
#include "host/fcae_device.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "mini_json.h"
#include "obs/metrics.h"
#include "table/iterator.h"
#include "test_util.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {
namespace host {

using fpga_test::BuildDeviceInput;
using fpga_test::MakeRun;

// ---------------------------------------------------------------------
// DmaTimeline. Every duration below is a small integer, so each end,
// overlap and wait is exact.
// ---------------------------------------------------------------------

TEST(DmaTimelineTest, LoneCardNeverWaits) {
  // One busy card never contends with itself, whether the timeline is
  // one card wide or its siblings stay idle.
  for (int cards : {1, 3}) {
    fpga::DmaTimeline timeline(cards);
    for (int j = 0; j < 4; j++) {
      const fpga::DmaSlot slot = timeline.Schedule(0, 0, 100, 50, 100);
      EXPECT_EQ(0.0, slot.bus_wait) << cards << " cards, job " << j;
    }
  }
}

TEST(DmaTimelineTest, OverlappingCardsWaitPerDirection) {
  fpga::DmaTimeline timeline(2);
  // Card 0: in [0, 100), kernel [100, 1100), out [1100, 1180).
  const fpga::DmaSlot first = timeline.Schedule(0, 0, 100, 1000, 80);
  EXPECT_EQ(0.0, first.bus_wait);
  EXPECT_EQ(1180.0, first.end);

  // Card 1's transfer-in starts at 0, behind card 0's 100 inbound:
  // wait min(40, 100) = 40. Its transfer-out starts at 40 + 40 + 1050 =
  // 1130, after card 0's outbound 80 started at 1100: wait min(50, 80).
  // Each lane charges only its own direction.
  const fpga::DmaSlot second = timeline.Schedule(1, 0, 40, 1050, 50);
  EXPECT_EQ(40.0 + 50.0, second.bus_wait);
  EXPECT_EQ(1130.0 + 50 + 50, second.end);

  // A burst longer than what the other card charged waits only for
  // that: card 1's next transfer-in starts at 80, when its DMA-in
  // engine frees, and waits min(250, 100). Card 1's own earlier
  // bursts never count.
  const fpga::DmaSlot third = timeline.Schedule(1, 0, 250, 10, 0);
  EXPECT_EQ(80.0, third.start);
  EXPECT_EQ(100.0, third.bus_wait);
  EXPECT_TRUE(third.pipelined);
}

TEST(DmaTimelineTest, SiblingJobThatEndedNeverCharges) {
  fpga::DmaTimeline timeline(2);
  const fpga::DmaSlot first = timeline.Schedule(0, 0, 500, 10, 10);
  ASSERT_EQ(520.0, first.end);
  // Card 0's job left at 520: its 500 inbound must not delay a burst
  // card 1 starts at that instant, and card 1's job, gone by 700, must
  // not delay card 0's next one.
  EXPECT_EQ(0.0, timeline.Schedule(1, 520, 100, 10, 10).bus_wait);
  EXPECT_EQ(0.0, timeline.Schedule(0, 700, 100, 10, 10).bus_wait);
}

TEST(DmaTimelineTest, SerialTimelineKeepsBurstsALaterArrivalMeets) {
  fpga::DmaTimeline timeline(3, /*double_buffered=*/false);
  ASSERT_EQ(1110.0, timeline.Schedule(0, 0, 100, 1000, 10).end);
  ASSERT_EQ(40.0, timeline.Schedule(1, 0, 10, 10, 10).end);
  // Card 0 is busy, so this job is held until 1110; card 1's job, which
  // ends at 40, must survive for the next arrival at 30.
  EXPECT_EQ(1110.0, timeline.Schedule(0, 20, 10, 10, 10).start);
  // Card 2's inbound at 30 meets card 0's 100 and card 1's 10.
  EXPECT_EQ(110.0, timeline.Schedule(2, 30, 200, 10, 10).bus_wait);
}

TEST(DmaTimelineTest, JobArrivingAtAnIdleCardRunsSerially) {
  fpga::DmaTimeline timeline(1);
  const fpga::DmaSlot first = timeline.Schedule(0, 0, 10, 100, 20);
  EXPECT_FALSE(first.pipelined);
  EXPECT_EQ(130.0, timeline.idle_at(0));
  EXPECT_EQ(10.0, timeline.dma_in_free(0));

  // Arriving as the card goes idle, or later, hides nothing.
  for (double arrival : {130.0, 300.0}) {
    const fpga::DmaSlot slot = timeline.Schedule(0, arrival, 10, 100, 20);
    EXPECT_FALSE(slot.pipelined) << arrival;
    EXPECT_EQ(arrival, slot.start);
    EXPECT_EQ(arrival + 130, slot.end);
    EXPECT_EQ(0.0, slot.overlap);
  }
}

TEST(DmaTimelineTest, EqualJobsPayOnlyTheSlowestStage) {
  // n equal jobs arriving at 0 on one card: the first fills the chain
  // and every further one adds only the slowest stage.
  struct Stages {
    double in, kernel, out;
  };
  const Stages kernel_bound{4, 10, 3};
  const Stages in_bound{20, 10, 3};
  const Stages out_bound{4, 10, 20};
  for (const Stages& st : {kernel_bound, in_bound, out_bound}) {
    const double beat = std::max({st.in, st.kernel, st.out});
    for (int n : {1, 2, 4, 8}) {
      fpga::DmaTimeline timeline(1);
      fpga::DmaSlot last;
      int pipelined = 0;
      for (int j = 0; j < n; j++) {
        last = timeline.Schedule(0, 0, st.in, st.kernel, st.out);
        pipelined += last.pipelined ? 1 : 0;
      }
      EXPECT_EQ(st.in + st.kernel + st.out + (n - 1) * beat, last.end)
          << "in " << st.in << " out " << st.out << " n " << n;
      EXPECT_EQ(n - 1, pipelined);
    }
  }

  // Without double buffering the same jobs pay the whole chain each.
  fpga::DmaTimeline serial(1, /*double_buffered=*/false);
  fpga::DmaSlot last;
  for (int j = 0; j < 4; j++) {
    last = serial.Schedule(0, 0, 4, 10, 3);
    EXPECT_FALSE(last.pipelined);
    EXPECT_EQ(0.0, last.overlap);
  }
  EXPECT_EQ(4 * 17.0, last.end);
}

// ---------------------------------------------------------------------
// DeviceSet placement
// ---------------------------------------------------------------------

TEST(DeviceSetTest, PickCardPrefersLeastQueuedBytes) {
  fpga::EngineConfig config;
  DeviceSet devices(config, /*num_cards=*/3);
  ASSERT_EQ(3, devices.num_cards());

  // All empty: ties break toward the lowest card id.
  EXPECT_EQ(0, devices.PickCard());

  devices.AddQueued(0, 300);
  devices.AddQueued(1, 100);
  EXPECT_EQ(2, devices.PickCard());  // Card 2 is idle.
  devices.AddQueued(2, 200);
  EXPECT_EQ(1, devices.PickCard());  // Now card 1 is lightest.
  devices.SubQueued(0, 300);
  EXPECT_EQ(0, devices.PickCard());
  EXPECT_EQ(0u, devices.queued_bytes(0));
}

TEST(DeviceSetTest, PickCardSkipsQuarantinedCard) {
  fpga::EngineConfig config;
  DeviceSet devices(config, /*num_cards=*/2);

  // Card 0 is idle (would win placement) but a sticky failure opens its
  // breaker: every job must flow to card 1.
  devices.monitor(0)->RecordJobFailure(/*sticky=*/true);
  ASSERT_TRUE(devices.monitor(0)->quarantined());
  devices.AddQueued(1, 1 << 20);
  for (int i = 0; i < 4; i++) {
    EXPECT_EQ(1, devices.PickCard());
  }
}

TEST(DeviceSetTest, AllQuarantinedFallsBackToProbes) {
  fpga::EngineConfig config;
  DeviceHealthOptions health;
  health.quarantine_threshold = 1;
  health.sticky_weight = 1;
  health.probe_interval = 3;
  DeviceSet devices(config, /*num_cards=*/2, fpga::PcieModel(), health);

  devices.monitor(0)->RecordJobFailure(/*sticky=*/true);
  devices.monitor(1)->RecordJobFailure(/*sticky=*/true);
  ASSERT_TRUE(devices.monitor(0)->quarantined());
  ASSERT_TRUE(devices.monitor(1)->quarantined());

  // Every breaker admits each probe_interval-th request. PickCard asks
  // the cards in order, so the denials interleave deterministically:
  // calls 1 (0:deny, 1:deny) and 2 (0:deny, 1:deny) return -1 — the
  // caller's CPU fallback; call 3 hits card 0's third request, which is
  // granted as a probe.
  EXPECT_EQ(-1, devices.PickCard());
  EXPECT_EQ(-1, devices.PickCard());
  EXPECT_EQ(0, devices.PickCard());
  EXPECT_EQ(1u, devices.monitor(0)->snapshot().probes);
  // A successful probe closes card 0's breaker; it wins placement again.
  devices.monitor(0)->RecordJobSuccess();
  EXPECT_FALSE(devices.monitor(0)->quarantined());
  EXPECT_EQ(0, devices.PickCard());
}

TEST(DeviceSetTest, PerCardFaultSeedsDiverge) {
  fpga::EngineConfig config;
  DeviceSet devices(config, /*num_cards=*/2);
  EXPECT_EQ(nullptr, devices.injector(0));

  fpga::DeviceFaultConfig base;
  base.seed = 4242;
  base.transient_rate = 0.5;
  devices.InjectFaults(base);
  ASSERT_NE(nullptr, devices.injector(0));
  ASSERT_NE(nullptr, devices.injector(1));

  // Card i draws from seed base.seed + i: the streams must not be the
  // same sequence (independent hardware fails independently).
  int diverged = 0;
  for (int i = 0; i < 64; i++) {
    fpga::FaultDecision d0 = devices.injector(0)->NextLaunch();
    fpga::FaultDecision d1 = devices.injector(1)->NextLaunch();
    if (d0.cls != d1.cls) diverged++;
  }
  EXPECT_GT(diverged, 0);
}

// ---------------------------------------------------------------------
// Pipelined DMA double-buffering
// ---------------------------------------------------------------------

class DevicePipelineTest : public testing::Test {
 public:
  DevicePipelineTest() : env_(NewMemEnv(Env::Default())) {
    options_.env = env_.get();
  }

  /// Two staged runs big enough that a kernel takes visible wall time.
  void BuildInputs() {
    for (int i = 0; i < 2; i++) {
      auto input = std::make_unique<fpga::DeviceInput>();
      auto run = MakeRun("key", i, 800, 2, 1000 * (i + 1), 96);
      ASSERT_TRUE(
          BuildDeviceInput(env_.get(), options_, {run}, i, input.get()).ok());
      inputs_.push_back(std::move(input));
    }
  }

  Status RunOneJob(FcaeDevice* device) {
    fpga::DeviceOutput output;
    DeviceRunStats stats;
    return device->ExecuteCompaction({inputs_[0].get(), inputs_[1].get()},
                                     kNoSnapshot, true, &output, &stats);
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::vector<std::unique_ptr<fpga::DeviceInput>> inputs_;
};

TEST_F(DevicePipelineTest, SerialJobsNeverOverlap) {
  BuildInputs();
  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(RunOneJob(&device).ok());
  }
  // One caller, one job at a time: nothing arrives back-to-back, so the
  // double buffer has nothing to hide.
  EXPECT_EQ(0u, device.pipelined_jobs());
  EXPECT_EQ(0.0, device.total_dma_overlap_micros());
}

TEST_F(DevicePipelineTest, BackToBackJobsOverlapDmaWithCompute) {
  BuildInputs();
  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);

  // Four submitters hammer one card; all but the first arrivals wait in
  // the card's FIFO job queue and therefore run pipelined: their
  // transfer-in overlaps the predecessor's kernel.
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 3;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&]() {
      for (int j = 0; j < kJobsPerThread; j++) {
        if (!RunOneJob(&device).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  ASSERT_EQ(0, failures.load());
  EXPECT_EQ(static_cast<uint64_t>(kThreads * kJobsPerThread),
            device.kernels_launched());
  EXPECT_GT(device.pipelined_jobs(), 0u);
  EXPECT_GT(device.total_dma_overlap_micros(), 0.0);
}

TEST_F(DevicePipelineTest, QueuedCallersRunInArrivalOrder) {
  fpga::EngineConfig config;
  config.num_inputs = 2;
  FcaeDevice device(config);
  // Each job is long enough to hold the card while the test starts the
  // next caller, and while the caller that just left records its finish.
  std::vector<std::unique_ptr<fpga::DeviceInput>> job;
  for (int i = 0; i < 2; i++) {
    job.push_back(std::make_unique<fpga::DeviceInput>());
    auto run = MakeRun("key", i, 20000, 2, 100000 * (i + 1), 96);
    ASSERT_TRUE(BuildDeviceInput(env_.get(), options_, {run}, i,
                                 job.back().get())
                    .ok());
  }

  // Three callers on one card, each started only once the card's queue
  // shows every earlier caller, so they arrive in order 0, 1, 2 while
  // caller 0's kernel still runs.
  constexpr int kCallers = 3;
  DeviceRunStats stats[kCallers];
  Status status[kCallers];
  Mutex mu;
  std::vector<int> finished;
  std::vector<std::thread> threads;
  bool arrived_in_order = true;
  for (int i = 0; i < kCallers && arrived_in_order; i++) {
    threads.emplace_back([&, i]() {
      fpga::DeviceOutput output;
      status[i] = device.ExecuteCompaction({job[0].get(), job[1].get()},
                                           kNoSnapshot, true, &output,
                                           &stats[i]);
      MutexLock lock(&mu);
      finished.push_back(i);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (device.queued_jobs() < static_cast<uint64_t>(i + 1)) {
      if (std::chrono::steady_clock::now() > deadline) {
        arrived_in_order = false;
        break;
      }
      std::this_thread::yield();
    }
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(arrived_in_order) << "caller 0 left the card too soon";

  for (int i = 0; i < kCallers; i++) ASSERT_TRUE(status[i].ok()) << i;
  EXPECT_EQ((std::vector<int>{0, 1, 2}), finished);
  EXPECT_FALSE(stats[0].queued);
  EXPECT_EQ(0u, stats[0].queue_wait_micros);
  for (int i = 1; i < kCallers; i++) {
    EXPECT_TRUE(stats[i].queued) << i;
    EXPECT_GT(stats[i].queue_wait_micros, 0u) << i;
    EXPECT_GT(stats[i].dma_overlap_micros, 0.0) << i;
  }
  EXPECT_EQ(2u, device.pipelined_jobs());
  EXPECT_EQ(0u, device.queued_jobs());
}

// ---------------------------------------------------------------------
// Two-card DB end to end
// ---------------------------------------------------------------------

class MultiCardDbTest : public testing::Test {
 public:
  MultiCardDbTest() : env_(NewMemEnv(Env::Default())) {}

  std::unique_ptr<DB> OpenDb(const std::string& name,
                             CompactionExecutor* executor, int cards) {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 64 * 1024;
    options.compaction_executor = executor;
    options.compaction_threads = 4;
    options.num_offload_cards = cards;
    DB* db = nullptr;
    EXPECT_TRUE(DB::Open(options, name, &db).ok());
    return std::unique_ptr<DB>(db);
  }

  void RunWorkload(DB* db) {
    Random rnd(1234);
    WriteOptions wo;
    for (int i = 0; i < 4000; i++) {
      std::string key = "user" + std::to_string(rnd.Uniform(900));
      if (rnd.Uniform(10) == 0) {
        ASSERT_TRUE(db->Delete(wo, key).ok());
      } else {
        ASSERT_TRUE(
            db->Put(wo, key, key + std::string(100, 'v')).ok());
      }
    }
    db->CompactRange(nullptr, nullptr);
  }

  std::vector<std::pair<std::string, std::string>> Dump(DB* db) {
    std::vector<std::pair<std::string, std::string>> out;
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      out.emplace_back(it->key().ToString(), it->value().ToString());
    }
    EXPECT_TRUE(it->status().ok());
    return out;
  }

  std::unique_ptr<Env> env_;
};

TEST_F(MultiCardDbTest, TwoCardDbMatchesCpuDb) {
  fpga::EngineConfig config;
  config.num_inputs = 9;  // Lets level-0 compactions offload too.
  DeviceSet devices(config, /*num_cards=*/2);
  FcaeCompactionExecutor executor(&devices);

  std::unique_ptr<DB> cpu_db = OpenDb("/mc_cpu", nullptr, 1);
  std::unique_ptr<DB> mc_db = OpenDb("/mc_fpga", &executor, 2);
  RunWorkload(cpu_db.get());
  RunWorkload(mc_db.get());

  auto cpu_dump = Dump(cpu_db.get());
  auto mc_dump = Dump(mc_db.get());
  ASSERT_FALSE(cpu_dump.empty());
  EXPECT_TRUE(cpu_dump == mc_dump);

  // The set actually ran kernels, and every placement was balanced by
  // a matching un-queue when the job left its card.
  uint64_t kernels = devices.device(0)->kernels_launched() +
                     devices.device(1)->kernels_launched();
  EXPECT_GT(kernels, 0u);
  EXPECT_EQ(0u, devices.queued_bytes(0));
  EXPECT_EQ(0u, devices.queued_bytes(1));
}

TEST_F(MultiCardDbTest, ShardsThatWaitForTheirCardRunPipelined) {
  fpga::EngineConfig config;
  config.num_inputs = 9;
  config.sstable_threshold = 128 * 1024;
  DeviceSet devices(config, /*num_cards=*/2);
  FcaeCompactionExecutor executor(&devices);
  obs::MetricsRegistry metrics;

  // Small output tables give level 1 a file grid fine enough for
  // level-0 jobs to split into four shards over the two cards; shards
  // placed on the same card meet in its queue, and the later one runs
  // back-to-back.
  Options options;
  options.env = env_.get();
  options.create_if_missing = true;
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 128 * 1024;
  options.compaction_executor = &executor;
  options.compaction_threads = 4;
  options.num_offload_cards = 2;
  options.max_subcompactions = 4;
  options.metrics_registry = &metrics;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/mc_pipelined", &raw).ok());
  std::unique_ptr<DB> db(raw);
  constexpr int kWrites = 60000;
  Random rnd(7);
  WriteOptions wo;
  for (int i = 0; i < kWrites; i++) {
    const std::string key = test::Cat("user", rnd.Uniform(kWrites));
    ASSERT_TRUE(db->Put(wo, key, std::string(100, 'v')).ok());
  }
  db->CompactRange(nullptr, nullptr);
  db.reset();  // Closing waits for every background job.

  const uint64_t waits = metrics.host_device_queue_waits.value();
  EXPECT_GT(waits, 0u);
  EXPECT_EQ(waits, devices.device(0)->pipelined_jobs() +
                       devices.device(1)->pipelined_jobs());
  EXPECT_EQ(metrics.fpga_pipeline_jobs.value(),
            devices.device(0)->pipelined_jobs() +
                devices.device(1)->pipelined_jobs());
  EXPECT_GT(metrics.fpga_pipeline_overlap_micros.value(), 0u);
}

TEST_F(MultiCardDbTest, QuarantinedCardIsAbsorbedByHealthySibling) {
  fpga::EngineConfig config;
  config.num_inputs = 9;
  DeviceSet devices(config, /*num_cards=*/2);
  FcaeCompactionExecutor executor(&devices);

  // Card 0 dies before the workload: its breaker opens and stays open
  // (no successful probe is possible — but no probe is even attempted,
  // since card 1 stays healthy and wins every placement).
  devices.monitor(0)->RecordJobFailure(/*sticky=*/true);
  ASSERT_TRUE(devices.monitor(0)->quarantined());

  std::unique_ptr<DB> db = OpenDb("/mc_degraded", &executor, 2);
  RunWorkload(db.get());

  auto dump = Dump(db.get());
  ASSERT_FALSE(dump.empty());

  // Graceful degradation: the healthy card absorbed every job — the
  // dead card ran nothing and the DB never fell back to CPU compaction
  // because the device path was "full".
  EXPECT_EQ(0u, devices.device(0)->kernels_launched());
  EXPECT_GT(devices.device(1)->kernels_launched(), 0u);
  auto* impl = reinterpret_cast<DBImpl*>(db.get());
  EXPECT_EQ(0, impl->FallbackCompactions());

  // The modeled device spans land on the track of the job that ran
  // them and name its card: every dma_in starts inside a
  // device_attempt of the same tid and carries card 1, the only
  // healthy card.
  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.trace", &json));
  mini_json::Value trace;
  std::string error;
  ASSERT_TRUE(mini_json::Parse(json, &trace, &error)) << error;
  EXPECT_EQ(0.0, trace["eventsDropped"].number);
  const std::vector<mini_json::Value>& events = trace["traceEvents"].array;
  int dma_in_spans = 0;
  for (const mini_json::Value& span : events) {
    if (span["name"].str != "dma_in") continue;
    dma_in_spans++;
    EXPECT_EQ(1.0, span["args"]["card"].number);
    const double ts = span["ts"].number;
    bool inside_attempt = false;
    for (const mini_json::Value& attempt : events) {
      if (attempt["name"].str == "device_attempt" &&
          attempt["tid"].number == span["tid"].number &&
          attempt["ts"].number <= ts &&
          ts <= attempt["ts"].number + attempt["dur"].number) {
        inside_attempt = true;
      }
    }
    EXPECT_TRUE(inside_attempt)
        << "dma_in at ts " << ts << " on tid " << span["tid"].number;
  }
  EXPECT_GT(dma_in_spans, 0);

  // And the contents are exactly what a CPU-only DB produces.
  std::unique_ptr<DB> cpu_db = OpenDb("/mc_degraded_cpu", nullptr, 1);
  RunWorkload(cpu_db.get());
  EXPECT_TRUE(Dump(cpu_db.get()) == dump);
}

}  // namespace host
}  // namespace fcae
