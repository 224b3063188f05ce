// Multi-threaded stress of the obs/ layer, run under TSan via
// `ctest -C stress`: writers hammer counters/gauges/histograms and the
// trace ring while readers continuously export JSON. Exercises card
// block creation (many threads demanding the same cards), concurrent
// updates of shared instruments, the ring overwrite path and the sink
// hand-off.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace fcae {
namespace obs {
namespace {

TEST(ObsStressTest, RegistryConcurrentWritersAndExporters) {
  MetricsRegistry registry;
  constexpr int kWriters = 8;
  constexpr int kOpsPerWriter = 20000;

  std::atomic<bool> stop{false};
  std::thread exporter([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      std::string json = registry.ToJson();
      ASSERT_FALSE(json.empty());
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&registry, t]() {
      // Half the threads share one card block, half use their own, so
      // both the creation race and concurrent updates are exercised.
      const int card = (t % 2 == 0) ? 0 : t;
      CardInstruments* block = registry.card(card);
      for (int i = 0; i < kOpsPerWriter; i++) {
        registry.db_flush_count.Increment();
        block->busy_micros.Increment();
        block->queued_bytes.Set(i);
        registry.fpga_fifo_output_peak.UpdateMax(i);
        if (i % 64 == 0) registry.db_flush_micros.Observe(i);
        // Periodically re-fetch to stress block lookup under load.
        if (i % 1024 == 0) {
          ASSERT_EQ(block, registry.card(card));
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  exporter.join();

  EXPECT_EQ(static_cast<uint64_t>(kWriters) * kOpsPerWriter,
            registry.db_flush_count.value());
  EXPECT_EQ(static_cast<uint64_t>(kWriters / 2) * kOpsPerWriter,
            registry.card(0)->busy_micros.value());
  EXPECT_EQ(kOpsPerWriter - 1, registry.fpga_fifo_output_peak.value());
}

class CountingSink : public TraceSink {
 public:
  void Append(const TraceEvent& event) override {
    (void)event;
    appended.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<uint64_t> appended{0};
};

TEST(ObsStressTest, TraceRingConcurrentRecordAndExport) {
  Counter dropped;
  TraceRecorder recorder(256, &dropped);  // Small ring: constant overwrite.
  CountingSink sink;
  recorder.set_sink(&sink);

  constexpr int kWriters = 6;
  constexpr int kEventsPerWriter = 10000;

  std::atomic<bool> stop{false};
  std::thread exporter([&]() {
    while (!stop.load(std::memory_order_acquire)) {
      std::string json = recorder.ToJson();
      ASSERT_FALSE(json.empty());
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&recorder, t]() {
      for (int i = 0; i < kEventsPerWriter; i++) {
        if (i % 3 == 0) {
          recorder.RecordInstant("instant", "stress", i, t);
        } else {
          SpanTimer span(&recorder, "span", "stress", t);
          span.AddArg("i", std::to_string(i));
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  exporter.join();
  recorder.set_sink(nullptr);

  const uint64_t total = static_cast<uint64_t>(kWriters) * kEventsPerWriter;
  EXPECT_EQ(total, sink.appended.load());
  EXPECT_EQ(256u, recorder.size());
  EXPECT_EQ(total - 256, dropped.value());
}

}  // namespace
}  // namespace obs
}  // namespace fcae
