// Ablation over the host scheduler policy (DESIGN.md item 6): the
// paper's strict Fig. 6 rule (software fallback for >N-input jobs) vs
// tournament scheduling (decompose into N-input kernel passes on the
// card). Reported both at the system level (calibrated simulator) and
// on the real storage engine (offload share of compactions).

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "bench_util.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "lsm/db_impl.h"
#include "syssim/simulator.h"
#include "util/mem_env.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace fcae {
namespace bench {
namespace {

void SystemLevel() {
  using syssim::ExecMode;
  using syssim::SimConfig;
  using syssim::Simulator;

  PrintHeader("Scheduler ablation (system level, 1 GB fillrandom, 512 B)");
  std::printf("%-28s %10s %12s %10s\n", "policy", "MB/s", "offloaded",
              "sw-fallback");

  for (int n : {2, 9}) {
    for (bool multipass : {false, true}) {
      SimConfig config;
      config.mode = ExecMode::kLevelDbFcae;
      config.value_length = 512;
      config.engine.num_inputs = n;
      config.engine.input_width = n == 9 ? 8 : 64;
      config.engine.value_width = n == 9 ? 8 : 16;
      config.multipass_offload = multipass;
      auto r = Simulator(config).RunFillRandom(1e9);
      char label[64];
      std::snprintf(label, sizeof(label), "N=%d %s", n,
                    multipass ? "tournament" : "strict (Fig. 6)");
      std::printf("%-28s %10.2f %12llu %10llu\n", label, r.throughput_mbps,
                  (unsigned long long)r.compactions_offloaded,
                  (unsigned long long)r.compactions_sw);
    }
  }
}

// The calibrated simulator's parallel-compaction model: up to K jobs in
// flight on disjoint level pairs, sharing one background core and one
// card (kernels queue FIFO). device_queue_seconds is the staged-job
// time spent waiting for the card — the cost parallelism pays for a
// single device, and the case for a per-device queue on the host.
void ParallelScheduling() {
  using syssim::ExecMode;
  using syssim::SimConfig;
  using syssim::Simulator;

  PrintHeader("Parallel compaction (system level, 1 GB fillrandom, 512 B)");
  std::printf("%-28s %10s %12s %14s\n", "workers", "MB/s", "offloaded",
              "device-queue s");

  for (int threads : {1, 2, 4}) {
    SimConfig config;
    config.mode = ExecMode::kLevelDbFcae;
    config.value_length = 512;
    config.engine.num_inputs = 9;
    config.engine.input_width = 8;
    config.engine.value_width = 8;
    config.multipass_offload = true;
    config.compaction_threads = threads;
    auto r = Simulator(config).RunFillRandom(1e9);
    char label[64];
    std::snprintf(label, sizeof(label), "compaction_threads=%d", threads);
    std::printf("%-28s %10.2f %12llu %14.2f\n", label, r.throughput_mbps,
                (unsigned long long)r.compactions_offloaded,
                r.device_queue_seconds);
  }
}

// Multi-card ablation at the system level: the same slow-engine setup
// the syssim tests use to provoke kernel queueing (analytic cost model,
// unseparated key-value path, leveling ratio 3 so jobs on disjoint
// level pairs coexist). Columns show what each knob buys: a second
// card drains device_queue_seconds, pipelined DMA converts queue time
// into overlap, and the shared bus charges the cards for colliding
// bursts.
void MultiCardSystemLevel() {
  using syssim::CostModel;
  using syssim::ExecMode;
  using syssim::SimConfig;
  using syssim::Simulator;

  PrintHeader("Multi-card offload (system level, 300 MB fillrandom, 512 B)");
  std::printf("%-28s %10s %12s %12s %12s\n", "config", "MB/s", "queue s",
              "overlap s", "bus s");

  for (int cards : {1, 2, 4}) {
    for (bool pipelined : {false, true}) {
      SimConfig config;
      config.mode = ExecMode::kLevelDbFcae;
      config.cost = CostModel::Simulated();
      config.value_length = 512;
      config.engine.num_inputs = 9;
      config.engine.input_width = 8;
      config.engine.value_width = 8;
      config.engine.opt_level = fpga::OptLevel::kBasic;
      config.multipass_offload = true;
      config.compaction_threads = 4;
      config.leveling_ratio = 3;
      config.num_cards = cards;
      config.pipelined_dma = pipelined;
      auto r = Simulator(config).RunFillRandom(3e8);
      char label[64];
      std::snprintf(label, sizeof(label), "cards=%d dma=%s", cards,
                    pipelined ? "pipelined" : "serial");
      std::printf("%-28s %10.2f %12.2f %12.3f %12.3f\n", label,
                  r.throughput_mbps, r.device_queue_seconds,
                  r.pipeline_overlap_seconds, r.bus_contention_seconds);
    }
  }
}

// Multi-card fan-out on the real device model: eight staged
// sub-compaction shards pushed through a DeviceSet at every point of
// the cards {1,2,4} x in-flight shards {1,4} grid (in-flight workers
// play the role of max_subcompactions: how many shards of one job are
// eligible to run at once). The s4 column pair feeds the CI ablation
// gate (bench/ablation_baseline.json): two cards must beat one by the
// gated ratio, and the four-deep queue must keep the DMA pipeline
// engaged.
void MultiCard(JsonReport* report) {
  PrintHeader("Multi-card offload (real device model, 8 x ~1 MB shards)");
  std::printf("%-28s %12s %12s %12s %10s\n", "config", "model MB/s",
              "overlap us", "bus-wait us", "kernels");

  fpga::EngineConfig engine;
  engine.num_inputs = 9;
  engine.input_width = 8;
  engine.value_width = 8;

  constexpr int kShards = 8;
  constexpr int kRunsPerShard = 2;
  constexpr uint64_t kRecordsPerRun = 4000;
  StagedInputBuilder builder;
  std::vector<fpga::DeviceInput> inputs(kShards * kRunsPerShard);
  std::vector<std::vector<const fpga::DeviceInput*>> shards(kShards);
  for (int s = 0; s < kShards; s++) {
    for (int r = 0; r < kRunsPerShard; r++) {
      fpga::DeviceInput* input = &inputs[s * kRunsPerShard + r];
      Status st = builder.Build(s * kRunsPerShard + r, s * 100000 + r,
                                kRecordsPerRun, kRunsPerShard, 16, 100,
                                input);
      if (!st.ok()) {
        std::fprintf(stderr, "stage: %s\n", st.ToString().c_str());
        std::exit(1);
      }
      shards[s].push_back(input);
    }
  }

  double c1_s4_mbps = 0, c2_s4_mbps = 0, c2_s4_overlap = 0;
  for (int cards : {1, 2, 4}) {
    for (int inflight : {1, 4}) {
      host::DeviceSet devices(engine, cards);
      DeviceFanoutResult r = RunDeviceFanout(&devices, shards, inflight);
      if (!r.ok) {
        std::fprintf(stderr, "fan-out failed (cards=%d)\n", cards);
        std::exit(1);
      }
      char label[64];
      std::snprintf(label, sizeof(label), "cards=%d subcompactions=%d",
                    cards, inflight);
      std::printf("%-28s %12.1f %12.0f %12.0f %10llu\n", label,
                  r.modeled_mbps, r.pipeline_overlap_micros,
                  r.bus_wait_micros, (unsigned long long)r.kernels_launched);

      char prefix[32];
      std::snprintf(prefix, sizeof(prefix), "multicard.c%d.s%d", cards,
                    inflight);
      const std::string p(prefix);
      report->Add(p + ".modeled_mbps", r.modeled_mbps);
      report->Add(p + ".pipeline_overlap_micros", r.pipeline_overlap_micros);
      report->Add(p + ".bus_wait_micros", r.bus_wait_micros);
      report->Add(p + ".kernels", r.kernels_launched);
      report->Add(p + ".pipelined_jobs", r.pipelined_jobs);
      if (inflight == 4 && cards == 1) c1_s4_mbps = r.modeled_mbps;
      if (inflight == 4 && cards == 2) {
        c2_s4_mbps = r.modeled_mbps;
        c2_s4_overlap = r.pipeline_overlap_micros;
      }
    }
  }
  report->Add("perf.offload.c2_over_c1",
              c1_s4_mbps > 0 ? c2_s4_mbps / c1_s4_mbps : 0.0);
  report->Add("perf.offload.pipeline_overlap_micros", c2_s4_overlap);
  std::printf("(gate: c2/c1 at 4 in-flight shards = %.3f, overlap %.0f us)\n",
              c1_s4_mbps > 0 ? c2_s4_mbps / c1_s4_mbps : 0.0, c2_s4_overlap);
}

void RealDb(JsonReport* report) {
  PrintHeader("Scheduler ablation (real DB, 30k x 256 B writes, N=2 card)");
  std::printf("%-28s %12s %12s %14s\n", "policy", "offloaded", "on cpu",
              "device cycles");

  JsonReport& report_ref = *report;
  for (bool tournament : {false, true}) {
    std::unique_ptr<Env> env(NewMemEnv(Env::Default()));
    fpga::EngineConfig engine;
    engine.num_inputs = 2;
    host::DeviceSet devices(engine, /*num_cards=*/1);
    host::FcaeExecutorOptions exec_options;
    exec_options.tournament_scheduling = tournament;
    host::FcaeCompactionExecutor executor(&devices, exec_options);

    Options options;
    options.env = env.get();
    options.create_if_missing = true;
    options.write_buffer_size = 128 * 1024;
    options.compaction_executor = &executor;
    DB* raw = nullptr;
    Status s = DB::Open(options, "/sched_db", &raw);
    if (!s.ok()) {
      std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
      return;
    }
    std::unique_ptr<DB> db(raw);

    workload::KeyFormatter keys(16);
    workload::ValueGenerator values(3);
    Random rnd(99);
    for (int i = 0; i < 30000; i++) {
      Status put = db->Put(WriteOptions(), keys.Format(rnd.Uniform(20000)),
                           values.Generate(256));
      if (!put.ok()) {
        std::fprintf(stderr, "put: %s\n", put.ToString().c_str());
        std::exit(1);
      }
    }
    auto* impl = reinterpret_cast<DBImpl*>(db.get());
    if (Status flush = impl->TEST_CompactMemTable(); !flush.ok()) {
      std::fprintf(stderr, "flush: %s\n", flush.ToString().c_str());
      std::exit(1);
    }
    for (int level = 0; level < kNumLevels - 1; level++) {
      impl->TEST_CompactRange(level, nullptr, nullptr);
    }

    std::string stats_str;
    db->GetProperty("fcae.stats", &stats_str);
    // Parse would be fragile; report via OffloadStats + device counters.
    CompactionExecStats stats = impl->OffloadStats();
    std::printf("%-28s %12llu %12s %14llu\n",
                tournament ? "tournament" : "strict (Fig. 6)",
                (unsigned long long)devices.device(0)->kernels_launched(),
                tournament ? "(none)" : "(L0 jobs)",
                (unsigned long long)stats.device_cycles);

    const std::string prefix = tournament ? "tournament" : "strict";
    report_ref.Add(prefix + ".kernels_launched",
                   devices.device(0)->kernels_launched());
    report_ref.Add(prefix + ".device_cycles", stats.device_cycles);
    report_ref.AddRobustness(prefix, stats, impl->FallbackCompactions());
  }
  std::printf("(strict: level-0 compactions exceed the 2-input limit and "
              "run in software;\n tournament: every compaction reaches the "
              "device)\n");
}

}  // namespace
}  // namespace bench
}  // namespace fcae

int main() {
  fcae::bench::SystemLevel();
  fcae::bench::ParallelScheduling();
  fcae::bench::MultiCardSystemLevel();
  fcae::bench::JsonReport report("ablation_scheduler");
  fcae::bench::RealDb(&report);
  fcae::bench::MultiCard(&report);
  report.WriteFile();
  return 0;
}
