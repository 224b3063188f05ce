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
#include "test_util.h"
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

constexpr int kWrites = 6000;

/// Opens a DB for the soak on `env`: small memtables and the offload
/// executor draining level 0, with `rate_limit` bytes/s of background
/// I/O (0 for none).
std::unique_ptr<DB> OpenSoakDb(Env* env, CompactionExecutor* executor,
                               obs::MetricsRegistry* metrics,
                               uint64_t rate_limit) {
  Options options;
  options.env = env;
  options.create_if_missing = true;
  options.write_buffer_size = 32 * 1024;
  options.compaction_executor = executor;
  options.compaction_threads = 2;
  options.metrics_registry = metrics;
  options.rate_limit_bytes_per_sec = rate_limit;
  DB* raw = nullptr;
  if (!DB::Open(options, "/overload-soak", &raw).ok()) return nullptr;
  return std::unique_ptr<DB>(raw);
}

/// Puts the soak's writes as fast as the DB admits them, recording each
/// Put's latency.
void WriteFlatOut(DB* db, std::vector<uint64_t>* latencies) {
  Random rnd(20260808);
  std::string value(1000, 'v');
  latencies->reserve(kWrites);
  Env* clock = Env::Default();
  for (int i = 0; i < kWrites; i++) {
    const std::string key = test::Cat("soak-", rnd.Uniform(4 * kWrites));
    const uint64_t start = clock->NowMicros();
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok()) << i;
    latencies->push_back(clock->NowMicros() - start);
  }
}

}  // namespace

TEST(OverloadSoakTest, SustainedOverloadDegradesGracefully) {
  fpga::EngineConfig engine_config;
  engine_config.num_inputs = 2;
  host::DeviceSet devices(engine_config, /*num_cards=*/1);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;

  // Probe: the same writes with no budget measure the compaction write
  // rate this build sustains on the machine running it.
  double compaction_write_bps = 0;
  {
    std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
    host::FcaeCompactionExecutor executor(&devices, exec_options);
    obs::MetricsRegistry metrics;
    std::unique_ptr<DB> db =
        OpenSoakDb(env.get(), &executor, &metrics, /*rate_limit=*/0);
    ASSERT_TRUE(db != nullptr);
    std::vector<uint64_t> latencies;
    const uint64_t start = Env::Default()->NowMicros();
    WriteFlatOut(db.get(), &latencies);
    if (HasFatalFailure()) return;
    const double secs = (Env::Default()->NowMicros() - start) * 1e-6;
    ASSERT_GT(secs, 0.0);
    compaction_write_bps = metrics.db_compaction_bytes_written.value() / secs;
  }

  // A deliberately tight background budget: half the probe's compaction
  // writes, so flush+compaction I/O runs well past it however fast this
  // build compacts, and the limiter must throttle and the write
  // controller must shed load. The floor keeps a pathologically slow
  // probe from strangling the soak.
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
  host::FcaeCompactionExecutor executor(&devices, exec_options);
  obs::MetricsRegistry metrics;
  std::unique_ptr<DB> db = OpenSoakDb(
      env.get(), &executor, &metrics,
      static_cast<uint64_t>(
          std::max(compaction_write_bps / 2, 1024.0 * 1024)));
  ASSERT_TRUE(db != nullptr);
  std::vector<uint64_t> latencies;
  WriteFlatOut(db.get(), &latencies);
  if (HasFatalFailure()) return;

  const Histogram delays = metrics.db_write_delay_micros.snapshot();
  const uint64_t delayed = delays.Count();
  const double delay_micros = delays.Sum();
  // Hard stops: the L0 stop plus the memory-budget stop.
  const uint64_t stopped =
      metrics.db_write_l0_stop_micros.snapshot().Count() +
      metrics.db_write_memory_stop_micros.snapshot().Count();
  const uint64_t throttled = metrics.ratelimiter_throttled_bytes.value();

  // Graceful degradation, not collapse: the delay ramp engaged ...
  EXPECT_GT(delayed, 0u);
  EXPECT_GT(delay_micros, 0.0);
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
  EXPECT_NE(std::string::npos, json.find("db.write.delay_micros"));
  EXPECT_NE(std::string::npos, json.find("ratelimiter.throttled_bytes"));

  // Every acknowledged write is readable after the storm.
  std::string out;
  ASSERT_TRUE(db->Get(ReadOptions(), "soak-probe", &out).IsNotFound() ||
              !out.empty());
}

}  // namespace fcae
