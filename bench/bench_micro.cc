// Google-benchmark microbenchmarks of the building blocks the compaction
// path is made of: CRC32C, the Snappy codec, block build/parse, memtable
// inserts and the software merge. Useful for spotting regressions in
// the substrate underneath the reproduction benches.
//
// Telemetry flags (stripped before google-benchmark sees argv):
//   --metrics_out=<path>       run a short instrumented DB workload after
//                              the micro benches and write its
//                              fcae.metrics JSON
//   --metrics_prom_out=<path>  same workload; write the Prometheus text
//                              rendering of the metrics registry
//   --trace_out=<path>         same workload; write the fcae.trace export

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "compress/snappy.h"
#include "fpga/compaction_engine.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/memtable.h"
#include "obs/metrics.h"
#include "obs/perf_context.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "util/cache.h"
#include "util/crc32c.h"
#include "util/filter_policy.h"
#include "util/mem_env.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace fcae {
namespace {

std::string MakePayload(size_t len) {
  workload::ValueGenerator gen(301);
  return gen.Generate(len);
}

void BM_Crc32c(benchmark::State& state) {
  std::string data = MakePayload(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_Crc32c)->Arg(100)->Arg(4096)->Arg(65536);

void BM_SnappyCompress(benchmark::State& state) {
  std::string data = MakePayload(state.range(0));
  std::string out;
  for (auto _ : state) {
    snappy::Compress(data.data(), data.size(), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_SnappyCompress)->Arg(4096)->Arg(65536);

void BM_SnappyUncompress(benchmark::State& state) {
  std::string data = MakePayload(state.range(0));
  std::string compressed;
  snappy::Compress(data.data(), data.size(), &compressed);
  std::string out;
  for (auto _ : state) {
    snappy::Uncompress(compressed.data(), compressed.size(), &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_SnappyUncompress)->Arg(4096)->Arg(65536);

void BM_BlockBuild(benchmark::State& state) {
  Options options;
  workload::KeyFormatter keys(16);
  std::string value = MakePayload(state.range(0));
  for (auto _ : state) {
    BlockBuilder builder(&options);
    for (int i = 0; i < 64; i++) {
      builder.Add(keys.Format(i), value);
    }
    benchmark::DoNotOptimize(builder.Finish());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_BlockBuild)->Arg(128)->Arg(1024);

void BM_BlockIterate(benchmark::State& state) {
  Options options;
  workload::KeyFormatter keys(16);
  std::string value = MakePayload(128);
  BlockBuilder builder(&options);
  for (int i = 0; i < 256; i++) {
    builder.Add(keys.Format(i), value);
  }
  std::string contents = builder.Finish().ToString();
  BlockContents bc;
  bc.data = Slice(contents);
  bc.heap_allocated = false;
  bc.cachable = false;
  Block block(bc);

  for (auto _ : state) {
    std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
    int n = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) n++;
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_BlockIterate);

void BM_MemTableInsert(benchmark::State& state) {
  InternalKeyComparator icmp(BytewiseComparator());
  workload::KeyFormatter keys(16);
  std::string value = MakePayload(state.range(0));
  Random rnd(301);

  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  uint64_t seq = 1;
  for (auto _ : state) {
    mem->Add(seq++, kTypeValue, keys.Format(rnd.Next()), value);
    if (mem->ApproximateMemoryUsage() > (64 << 20)) {
      state.PauseTiming();
      mem->Unref();
      mem = new MemTable(icmp);
      mem->Ref();
      state.ResumeTiming();
    }
  }
  mem->Unref();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableInsert)->Arg(128)->Arg(1024);

// Write path plus the kind of instrumentation obs/ hangs on it: one
// counter increment and one gauge-style byte count per insert. Comparing
// against BM_MemTableInsert bounds the metrics overhead the acceptance
// criteria cap at 2% — the real DB is cheaper still, since it only
// touches counters on flush/compaction/stall events, never per Put.
void BM_MemTableInsertWithMetrics(benchmark::State& state) {
  InternalKeyComparator icmp(BytewiseComparator());
  workload::KeyFormatter keys(16);
  std::string value = MakePayload(state.range(0));
  Random rnd(301);

  obs::Counter ops;
  obs::Counter bytes;

  MemTable* mem = new MemTable(icmp);
  mem->Ref();
  uint64_t seq = 1;
  for (auto _ : state) {
    mem->Add(seq++, kTypeValue, keys.Format(rnd.Next()), value);
    ops.Increment();
    bytes.Increment(16 + value.size());
    if (mem->ApproximateMemoryUsage() > (64 << 20)) {
      state.PauseTiming();
      mem->Unref();
      mem = new MemTable(icmp);
      mem->Ref();
      state.ResumeTiming();
    }
  }
  mem->Unref();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemTableInsertWithMetrics)->Arg(128)->Arg(1024);

// Raw cost of one relaxed-atomic counter increment, for sizing budgets.
void BM_MetricsCounterIncrement(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) {
    c.Increment();
  }
  benchmark::DoNotOptimize(c.value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MetricsCounterIncrement);

// Short instrumented DB run backing the --metrics_out /
// --metrics_prom_out / --trace_out artifacts: mem-env DB with the FCAE
// offload executor, a bloom filter and a deliberately small block cache,
// and a mixed load (overwrites, deletes, point reads for present and
// absent keys, a scan) so the read- and write-path PerfContext tick
// sites all fire. The run self-checks: the calling thread enables
// PerfLevel::kEnableTime and fails the bench if the bloom-filter,
// block-cache, or write-stall counters stayed zero — the CI guard that
// the instrumentation stays wired through the engine.
int RunTelemetryWorkload(const bench::ObsExportFlags& obs_flags) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));

  fpga::EngineConfig config;
  config.num_inputs = 9;
  config.input_width = 8;
  config.value_width = 8;
  host::DeviceSet devices(config, /*num_cards=*/1);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  obs::MetricsRegistry registry;
  std::unique_ptr<const FilterPolicy> filter(NewBloomFilterPolicy(10));
  std::unique_ptr<Cache> block_cache(NewLRUCache(64 * 1024));

  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.write_buffer_size = 256 * 1024;
  options.compaction_executor = &executor;
  options.metrics_registry = &registry;
  options.filter_policy = filter.get();
  options.block_cache = block_cache.get();
  // Low stall triggers so the mixed load crosses the slowdown (and
  // ideally the stop) threshold at least once — the self-check below
  // wants nonzero stall ticks.
  options.l0_slowdown_writes_trigger = 2;
  options.l0_stop_writes_trigger = 6;

  obs::SetPerfLevel(obs::PerfLevel::kEnableTime);
  obs::GetPerfContext()->Reset();
  obs::GetIOStats()->Reset();

  const std::string dbname = "/bench_micro_telemetry";
  DestroyDB(dbname, options).IgnoreError();  // fresh mem env
  DB* raw = nullptr;
  Status s = DB::Open(options, dbname, &raw);
  if (!s.ok()) {
    std::fprintf(stderr, "telemetry workload open: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);

  workload::KeyFormatter keys(16);
  workload::ValueGenerator values(301);
  Random rnd(42);
  WriteOptions wo;
  ReadOptions ro;
  std::string value;
  for (int i = 0; i < 20000; i++) {
    s = db->Put(wo, keys.Format(rnd.Uniform(20000)), values.Generate(100));
    if (!s.ok()) {
      std::fprintf(stderr, "telemetry workload put: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    if (i % 16 == 0) {
      // Point reads across the whole key space: roughly half probe
      // written keys (bloom hits, block reads), the rest miss entirely
      // or hit only the filter (bloom negatives).
      db->Get(ro, keys.Format(rnd.Uniform(40000)), &value).IgnoreError();
    }
    if (i % 64 == 0) {
      db->Delete(wo, keys.Format(rnd.Uniform(20000))).IgnoreError();
    }
  }
  db->CompactRange(nullptr, nullptr);
  for (int i = 0; i < 2000; i++) {
    db->Get(ro, keys.Format(rnd.Uniform(40000)), &value).IgnoreError();
  }
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    int scanned = 0;
    for (it->SeekToFirst(); it->Valid() && scanned < 1000; it->Next()) {
      scanned++;
    }
  }

  const obs::PerfContext* perf = obs::GetPerfContext();
  std::printf("telemetry perf_context: %s\n", perf->ToString().c_str());
  std::printf("telemetry io_stats: %s\n",
              obs::GetIOStats()->ToString().c_str());
  bool ok = true;
  if (perf->bloom_filter_hits + perf->bloom_filter_negatives == 0) {
    std::fprintf(stderr, "telemetry: bloom filter ticks are zero\n");
    ok = false;
  }
  if (perf->block_cache_hits + perf->block_cache_misses == 0) {
    std::fprintf(stderr, "telemetry: block cache ticks are zero\n");
    ok = false;
  }
  if (perf->write_delays + perf->write_stops == 0) {
    std::fprintf(stderr, "telemetry: write stall ticks are zero\n");
    ok = false;
  }
  obs::SetPerfLevel(obs::PerfLevel::kDisable);

  std::string json;
  if (!obs_flags.metrics_out.empty()) {
    ok = db->GetProperty("fcae.metrics", &json) &&
         bench::WriteTextFile(obs_flags.metrics_out, json) && ok;
  }
  if (!obs_flags.metrics_prom_out.empty()) {
    // Pump derived counters into the registry first (GetProperty does
    // this as a side effect), then render the same registry as
    // Prometheus text.
    ok = db->GetProperty("fcae.metrics", &json) && ok;
    ok = bench::WriteTextFile(obs_flags.metrics_prom_out,
                              registry.ExportPrometheus()) &&
         ok;
  }
  if (!obs_flags.trace_out.empty()) {
    ok = db->GetProperty("fcae.trace", &json) &&
         bench::WriteTextFile(obs_flags.trace_out, json) && ok;
  }
  return ok ? 0 : 1;
}

// Tail latency over a scratch vector of per-op microseconds (the vector
// is reordered in place).
double PercentileMicros(std::vector<uint64_t>* latencies, double pct) {
  if (latencies->empty()) return 0;
  const size_t idx =
      static_cast<size_t>(pct * static_cast<double>(latencies->size() - 1));
  std::nth_element(latencies->begin(), latencies->begin() + idx,
                   latencies->end());
  return static_cast<double>((*latencies)[idx]);
}

// One timed run of the perf-gate workload under a given scheduler
// configuration. Returns false on any DB error.
struct PerfRunResult {
  double write_mbps = 0;       // Sustained: puts blocked on stalls included.
  double compaction_mbps = 0;  // Compaction bytes moved per wall second.
  double write_p99_micros = 0;  // Per-Put tail: delays + stalls surface here.
  uint64_t user_bytes = 0;
  uint64_t stall_micros = 0;   // Writer time lost to stalls + slowdowns.
  uint64_t stall_memtable_micros = 0;
  uint64_t stall_l0_micros = 0;
  uint64_t slowdown_micros = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t sharded_jobs = 0;  // Compactions split into key-range shards.
  uint64_t shards_run = 0;
  uint64_t reopen_micros = 0;  // Close + recover over the final state.
};

bool RunPerfWorkload(int threads, int subcompactions, PerfRunResult* result) {
  std::unique_ptr<Env> env(NewMemEnv(Env::Default()));

  fpga::EngineConfig config;
  config.num_inputs = 9;
  config.input_width = 8;
  config.value_width = 8;
  host::DeviceSet devices(config, /*num_cards=*/1);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  host::FcaeCompactionExecutor executor(&devices, exec_options);

  obs::MetricsRegistry registry;
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.write_buffer_size = 256 * 1024;
  options.compaction_executor = &executor;
  options.compaction_threads = threads;
  options.max_subcompactions = subcompactions;
  options.metrics_registry = &registry;

  const std::string dbname = "/bench_micro_perf";
  DestroyDB(dbname, options).IgnoreError();  // fresh mem env
  DB* raw = nullptr;
  if (!DB::Open(options, dbname, &raw).ok()) return false;
  std::unique_ptr<DB> db(raw);

  workload::KeyFormatter keys(16);
  workload::ValueGenerator values(301);
  Random rnd(42);
  WriteOptions wo;
  // Large enough that L1 grows a multi-file grid: sub-compaction
  // sharding only engages once L0->L1 jobs have >= 2 parent files.
  constexpr int kWrites = 100000;
  constexpr int kValueLen = 100;

  Env* clock = Env::Default();
  std::vector<uint64_t> latencies;
  latencies.reserve(kWrites);
  const uint64_t write_start = clock->NowMicros();
  uint64_t put_start = write_start;
  for (int i = 0; i < kWrites; i++) {
    if (!db->Put(wo, keys.Format(rnd.Uniform(kWrites)), values.Generate(kValueLen))
             .ok()) {
      return false;
    }
    const uint64_t put_end = clock->NowMicros();
    latencies.push_back(put_end - put_start);
    put_start = put_end;
  }
  const uint64_t write_end = clock->NowMicros();
  // Drain: every queued job must install so compaction counters are
  // comparable across scheduler configurations.
  db->CompactRange(nullptr, nullptr);
  const uint64_t drain_end = clock->NowMicros();

  result->write_p99_micros = PercentileMicros(&latencies, 0.99);
  result->user_bytes = static_cast<uint64_t>(kWrites) * (16 + kValueLen);
  // Memtable waits include the memory-budget stops.
  result->stall_memtable_micros = static_cast<uint64_t>(
      registry.db_write_memtable_stop_micros.snapshot().Sum() +
      registry.db_write_memory_stop_micros.snapshot().Sum());
  result->stall_l0_micros =
      static_cast<uint64_t>(registry.db_write_l0_stop_micros.snapshot().Sum());
  result->slowdown_micros =
      static_cast<uint64_t>(registry.db_write_delay_micros.snapshot().Sum());
  result->stall_micros = result->stall_memtable_micros +
                         result->stall_l0_micros + result->slowdown_micros;
  result->flushes = registry.db_flush_count.value();
  result->compactions = registry.db_compaction_count.value();
  result->compaction_bytes_written =
      registry.db_compaction_bytes_written.value();
  result->sharded_jobs = registry.scheduler_sharded_jobs.value();
  result->shards_run = registry.scheduler_shards_run.value();
  const uint64_t compaction_bytes_moved =
      registry.db_compaction_bytes_read.value() +
      result->compaction_bytes_written;
  const double write_secs = (write_end - write_start) * 1e-6;
  const double total_secs = (drain_end - write_start) * 1e-6;
  if (write_secs > 0) {
    result->write_mbps = result->user_bytes / write_secs / (1 << 20);
  }
  if (total_secs > 0) {
    result->compaction_mbps = compaction_bytes_moved / total_secs / (1 << 20);
  }

  // Close and reopen over the state the workload built: recovery cost =
  // MANIFEST replay + WAL redo. recovery.micros accumulates across every
  // open on this registry, so the reopen alone is the delta.
  const uint64_t open_micros_before = registry.recovery_micros.value();
  db.reset();
  options.create_if_missing = false;
  raw = nullptr;
  if (!DB::Open(options, dbname, &raw).ok()) return false;
  db.reset(raw);
  result->reopen_micros = registry.recovery_micros.value() - open_micros_before;
  return true;
}

// Overload soak for the graceful-degradation gate (DESIGN.md §10).
// Phase 1 measures the backpressure-paced sustainable ingest rate with
// the offload executor, and the compaction write rate it drives. Phase
// 2 replays on a fresh DB with a client that insists on twice that
// rate and a background-I/O budget enforced by the rate limiter
// (compaction on the low-priority lane, flushes on the high-priority
// one). Graceful degradation means: the controller's delay ramp
// absorbs the excess (delayed_writes > 0), writes are never
// hard-stopped, compaction I/O gets throttled rather than saturating
// the device, and per-Put p99 stays bounded by the controller's
// maximum delay instead of the unbounded stall spikes of the classic
// stop-the-world behaviour.
struct OverloadRunResult {
  double sustainable_mbps = 0;
  double achieved_mbps = 0;     // Ingest under 2x-overload attempts.
  double write_p99_micros = 0;
  uint64_t hard_stops = 0;      // L0 plus memory-budget stops: must stay 0.
  uint64_t delayed_writes = 0;  // Delay passes: must be > 0.
  uint64_t delay_micros = 0;
  uint64_t throttled_bytes = 0;  // ratelimiter.throttled_bytes.
  std::string metrics_json;      // fcae.metrics export of the soak run.
};

bool RunOverloadWorkload(OverloadRunResult* result) {
  constexpr int kWrites = 60000;
  constexpr int kValueLen = 100;
  const double op_bytes = 16 + kValueLen;
  Env* clock = Env::Default();

  workload::KeyFormatter keys(16);
  workload::ValueGenerator values(301);
  WriteOptions wo;

  fpga::EngineConfig config;
  config.num_inputs = 9;
  config.input_width = 8;
  config.value_width = 8;
  host::DeviceSet devices(config, /*num_cards=*/1);
  host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;

  // Phase 1: sustainable rate and the compaction write rate it drives,
  // full speed, no I/O budget.
  double sustainable_bps = 0;
  double compaction_write_bps = 0;
  {
    std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
    host::FcaeCompactionExecutor executor(&devices, exec_options);
    obs::MetricsRegistry registry;
    Options options;
    options.env = env.get();
    options.create_if_missing = true;
    options.write_buffer_size = 256 * 1024;
    options.compaction_executor = &executor;
    options.compaction_threads = 4;
    options.max_subcompactions = 4;
    options.metrics_registry = &registry;

    const std::string dbname = "/bench_micro_overload_probe";
    DestroyDB(dbname, options).IgnoreError();  // fresh mem env
    DB* raw = nullptr;
    if (!DB::Open(options, dbname, &raw).ok()) return false;
    std::unique_ptr<DB> db(raw);

    Random rnd(42);
    const uint64_t start = clock->NowMicros();
    for (int i = 0; i < kWrites; i++) {
      if (!db->Put(wo, keys.Format(rnd.Uniform(kWrites)),
                   values.Generate(kValueLen))
               .ok()) {
        return false;
      }
    }
    const double secs = (clock->NowMicros() - start) * 1e-6;
    if (secs <= 0) return false;
    sustainable_bps = kWrites * op_bytes / secs;
    result->sustainable_mbps = sustainable_bps / (1 << 20);
    compaction_write_bps = registry.db_compaction_bytes_written.value() / secs;
  }

  // Phase 2: 2x-overload soak under a background-I/O budget. The budget
  // is half the compaction write rate the probe measured, so the
  // soak's compaction demand exceeds it and the limiter demonstrably
  // throttles however fast the kernels run; the floor keeps a
  // pathologically slow probe from strangling the run outright.
  {
    std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
    host::FcaeCompactionExecutor executor(&devices, exec_options);
    obs::MetricsRegistry registry;
    Options options;
    options.env = env.get();
    options.create_if_missing = true;
    options.write_buffer_size = 256 * 1024;
    options.compaction_executor = &executor;
    options.compaction_threads = 4;
    options.max_subcompactions = 4;
    options.metrics_registry = &registry;
    options.rate_limit_bytes_per_sec = static_cast<uint64_t>(
        std::max(compaction_write_bps / 2, 1024.0 * 1024));

    const std::string dbname = "/bench_micro_overload_soak";
    DestroyDB(dbname, options).IgnoreError();  // fresh mem env
    DB* raw = nullptr;
    if (!DB::Open(options, dbname, &raw).ok()) return false;
    std::unique_ptr<DB> db(raw);

    Random rnd(43);
    std::vector<uint64_t> latencies;
    latencies.reserve(kWrites);
    const double target_bps = 2.0 * sustainable_bps;
    const uint64_t start = clock->NowMicros();
    uint64_t put_start = start;
    for (int i = 0; i < kWrites; i++) {
      // Pace the client at twice the sustainable rate: sleep only when
      // ahead of that schedule (under real overload the backlog keeps
      // the client permanently behind it, i.e. writing flat out).
      const uint64_t due =
          start + static_cast<uint64_t>(i * op_bytes * 1e6 / target_bps);
      const uint64_t now = clock->NowMicros();
      if (now < due) clock->SleepForMicroseconds(static_cast<int>(due - now));
      if (!db->Put(wo, keys.Format(rnd.Uniform(kWrites)),
                   values.Generate(kValueLen))
               .ok()) {
        return false;
      }
      const uint64_t put_end = clock->NowMicros();
      latencies.push_back(put_end - std::max(put_start, due));
      put_start = put_end;
    }
    const double secs = (clock->NowMicros() - start) * 1e-6;
    if (secs > 0) {
      result->achieved_mbps = kWrites * op_bytes / secs / (1 << 20);
    }
    result->write_p99_micros = PercentileMicros(&latencies, 0.99);
    result->hard_stops =
        registry.db_write_l0_stop_micros.snapshot().Count() +
        registry.db_write_memory_stop_micros.snapshot().Count();
    const Histogram delays = registry.db_write_delay_micros.snapshot();
    result->delayed_writes = delays.Count();
    result->delay_micros = static_cast<uint64_t>(delays.Sum());
    result->throttled_bytes = registry.ratelimiter_throttled_bytes.value();
    if (!db->GetProperty("fcae.metrics", &result->metrics_json)) return false;
  }
  return true;
}

// The card model alone on one 9-input job in the engine shape the
// perfbench workloads and the perf workload above run (N=9, W_in=8,
// V=8): 100-byte values, each input as large as one of fill's input
// files, keys interleaved across the inputs so every selection compares
// all nine lanes. The cycle count is deterministic; the simulator's wall
// time per modeled microsecond measures the host it runs on, so it is
// tracked only.
struct EngineRunResult {
  uint64_t kernel_cycles = 0;
  double sim_over_modeled = 0;  // Wall us of Run() / modeled us.
};

bool RunEngineWorkload(EngineRunResult* result) {
  constexpr int kInputs = 9;
  constexpr uint64_t kInputBytes = 1060 * 1000;
  constexpr size_t kKeyLen = 16;
  constexpr size_t kValueLen = 100;
  const uint64_t records = bench::RecordsFor(kInputBytes, kKeyLen, kValueLen);
  bench::StagedInputBuilder builder;
  std::vector<std::unique_ptr<fpga::DeviceInput>> inputs;
  std::vector<const fpga::DeviceInput*> ptrs;
  for (int i = 0; i < kInputs; i++) {
    inputs.push_back(std::make_unique<fpga::DeviceInput>());
    if (!builder
             .Build(i, i, records, kInputs, kKeyLen, kValueLen,
                    inputs.back().get())
             .ok()) {
      return false;
    }
    ptrs.push_back(inputs.back().get());
  }

  fpga::EngineConfig config;
  config.num_inputs = kInputs;
  config.input_width = 8;
  config.value_width = 8;
  fpga::DeviceOutput output;
  fpga::CompactionEngine engine(config, ptrs, bench::kNoSnapshot,
                                /*drop_deletions=*/true, &output);
  Env* clock = Env::Default();
  const uint64_t start = clock->NowMicros();
  if (!engine.Run().ok()) return false;
  const double wall_micros = static_cast<double>(clock->NowMicros() - start);
  result->kernel_cycles = engine.stats().cycles;
  result->sim_over_modeled = wall_micros / engine.stats().Micros(config);
  return true;
}

// The CI perf gate: the same workload on one worker vs. four workers
// with sub-compaction sharding, the overload soak, and the card model
// alone. BENCH_micro_perf.json carries absolute throughputs (trajectory
// / loose gate), the t4/t1 ratio (tight gate: parallel must not regress
// below single-thread) and the engine's cycle count (exact gate).
int RunPerfGate() {
  PerfRunResult t1, t4;
  if (!RunPerfWorkload(/*threads=*/1, /*subcompactions=*/1, &t1) ||
      !RunPerfWorkload(/*threads=*/4, /*subcompactions=*/4, &t4)) {
    std::fprintf(stderr, "perf workload failed\n");
    return 1;
  }
  OverloadRunResult overload;
  if (!RunOverloadWorkload(&overload)) {
    std::fprintf(stderr, "overload workload failed\n");
    return 1;
  }
  EngineRunResult engine;
  if (!RunEngineWorkload(&engine)) {
    std::fprintf(stderr, "engine workload failed\n");
    return 1;
  }
  // The soak run's metrics export doubles as the overload-protection
  // contract check: CI validates it against bench/metrics_schema.json,
  // proving the write-stall and rate-limiter instruments are live
  // under load.
  if (!bench::WriteTextFile("BENCH_micro_perf_overload_metrics.json",
                            overload.metrics_json)) {
    return 1;
  }

  bench::JsonReport report("micro_perf");
  report.Add("perf.t1.write_mbps", t1.write_mbps);
  report.Add("perf.t1.compaction_mbps", t1.compaction_mbps);
  report.Add("perf.t4.write_mbps", t4.write_mbps);
  report.Add("perf.t4.compaction_mbps", t4.compaction_mbps);
  report.Add("perf.t4_over_t1_write",
             t1.write_mbps > 0 ? t4.write_mbps / t1.write_mbps : 0.0);
  report.Add("perf.write_p99_micros", t4.write_p99_micros);
  report.Add("perf.t1.write_p99_micros", t1.write_p99_micros);
  report.Add("perf.stall_seconds_t4", t4.stall_micros * 1e-6);
  report.Add("perf.overload.sustainable_mbps", overload.sustainable_mbps);
  report.Add("perf.overload.achieved_mbps", overload.achieved_mbps);
  report.Add("perf.overload.write_p99_micros", overload.write_p99_micros);
  report.Add("perf.overload.hard_stops", overload.hard_stops);
  report.Add("perf.overload.delayed_writes", overload.delayed_writes);
  report.Add("perf.overload.delay_micros", overload.delay_micros);
  report.Add("perf.overload.throttled_bytes", overload.throttled_bytes);
  report.Add("perf.engine.kernel_cycles", engine.kernel_cycles);
  report.Add("perf.engine.sim_over_modeled", engine.sim_over_modeled);
  report.Add("work.user_bytes", t4.user_bytes);
  report.Add("work.t1.stall_micros", t1.stall_micros);
  report.Add("work.t4.stall_micros", t4.stall_micros);
  report.Add("work.t1.stall_memtable_micros", t1.stall_memtable_micros);
  report.Add("work.t1.stall_l0_micros", t1.stall_l0_micros);
  report.Add("work.t1.slowdown_micros", t1.slowdown_micros);
  report.Add("work.t4.stall_memtable_micros", t4.stall_memtable_micros);
  report.Add("work.t4.stall_l0_micros", t4.stall_l0_micros);
  report.Add("work.t4.slowdown_micros", t4.slowdown_micros);
  report.Add("work.t1.flushes", t1.flushes);
  report.Add("work.t1.compactions", t1.compactions);
  report.Add("work.t1.compaction_bytes_written", t1.compaction_bytes_written);
  report.Add("work.t4.flushes", t4.flushes);
  report.Add("work.t4.compactions", t4.compactions);
  report.Add("work.t4.compaction_bytes_written", t4.compaction_bytes_written);
  report.Add("work.t1.sharded_jobs", t1.sharded_jobs);
  report.Add("work.t1.shards_run", t1.shards_run);
  report.Add("work.t4.sharded_jobs", t4.sharded_jobs);
  report.Add("work.t4.shards_run", t4.shards_run);
  report.Add("recovery.t1.reopen_micros", t1.reopen_micros);
  report.Add("recovery.t4.reopen_micros", t4.reopen_micros);
  if (!report.WriteFile()) return 1;

  std::printf("perf: t1 %.1f MB/s, t4 %.1f MB/s (ratio %.3f)\n", t1.write_mbps,
              t4.write_mbps,
              t1.write_mbps > 0 ? t4.write_mbps / t1.write_mbps : 0.0);
  std::printf(
      "overload: sustainable %.1f MB/s, 2x soak achieved %.1f MB/s, "
      "p99 %.0f us, %llu delayed, %llu hard stops, %llu throttled bytes\n",
      overload.sustainable_mbps, overload.achieved_mbps,
      overload.write_p99_micros,
      (unsigned long long)overload.delayed_writes,
      (unsigned long long)overload.hard_stops,
      (unsigned long long)overload.throttled_bytes);
  std::printf("engine: %llu cycles, simulated at %.2fx the modeled time\n",
              (unsigned long long)engine.kernel_cycles,
              engine.sim_over_modeled);
  return 0;
}

}  // namespace
}  // namespace fcae

int main(int argc, char** argv) {
  fcae::bench::ObsExportFlags obs_flags;
  obs_flags.Consume(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!obs_flags.metrics_out.empty() || !obs_flags.metrics_prom_out.empty() ||
      !obs_flags.trace_out.empty()) {
    int rc = fcae::RunTelemetryWorkload(obs_flags);
    if (rc != 0) return rc;
  }
  if (obs_flags.perf) {
    return fcae::RunPerfGate();
  }
  return 0;
}
