// Ablation over the engine's optimization levels (the design choices of
// Sections V-B, V-C and V-D, called out in DESIGN.md): basic pipeline ->
// + index/data block separation -> + key-value separation -> + full
// data-path bandwidth. Also cross-checks the cycle simulator against the
// closed-form timing model (Tables II/III).

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "fpga/compaction_engine.h"
#include "fpga/timing_model.h"

namespace fcae {
namespace bench {
namespace {

constexpr uint64_t kKeyLen = 16;
constexpr uint64_t kBytesPerInput = 2ull << 20;

double RunLevel(fpga::OptLevel level, int value_len, uint64_t* cycles,
                uint64_t* fetch_stalls) {
  StagedInputBuilder builder;
  fpga::DeviceInput in_a, in_b;
  const uint64_t records = RecordsFor(kBytesPerInput, kKeyLen, value_len);
  Status s = builder.Build(0, 0, records, 1, kKeyLen, value_len, &in_a);
  if (s.ok()) {
    s = builder.Build(1, records, records, 1, kKeyLen, value_len, &in_b);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "stage: %s\n", s.ToString().c_str());
    std::exit(1);
  }

  fpga::EngineConfig config;
  config.num_inputs = 2;
  config.value_width = 16;
  config.opt_level = level;
  fpga::DeviceOutput out;
  fpga::CompactionEngine engine(config, {&in_a, &in_b}, kNoSnapshot, true,
                                &out);
  s = engine.Run();
  if (!s.ok()) {
    std::fprintf(stderr, "engine: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  *cycles = engine.stats().cycles;
  *fetch_stalls = engine.stats().decoder_fetch_stalls;
  return engine.stats().CompactionSpeedMBps(config);
}

void Run() {
  PrintHeader("Ablation: engine speed (MB/s) by optimization level");
  std::printf(
      "(the basic design is Comparer-bound — Table II's period is\n"
      " (2+log2 N) x (L_key+L_value) — so block separation shows up as\n"
      " removed decoder stalls rather than end-to-end speed; key-value\n"
      " separation and the bandwidth widening unlock the big steps)\n");
  std::printf("%8s %10s %12s %10s %12s\n", "L_value", "basic", "+block-sep",
              "+kv-sep", "+bandwidth");

  for (int value_len : {64, 256, 1024}) {
    std::printf("%8d", value_len);
    uint64_t prev_cycles = ~0ull;
    uint64_t stalls[4];
    int si = 0;
    for (fpga::OptLevel level :
         {fpga::OptLevel::kBasic, fpga::OptLevel::kBlockSeparation,
          fpga::OptLevel::kKeyValueSeparation,
          fpga::OptLevel::kFullBandwidth}) {
      uint64_t cycles = 0;
      double speed = RunLevel(level, value_len, &cycles, &stalls[si]);
      si++;
      std::printf(" %10.1f", speed);
      if (cycles > prev_cycles) {
        std::printf("(!)");
      }
      prev_cycles = cycles;
    }
    std::printf("   fetch stalls: %llu -> %llu (block separation hides "
                "DRAM round trips)\n",
                (unsigned long long)stalls[0],
                (unsigned long long)stalls[1]);
  }

  PrintHeader("Timing model cross-check (Table III bottlenecks, V=16, N=2)");
  fpga::EngineConfig config;
  config.num_inputs = 2;
  config.value_width = 16;
  fpga::TimingModel model(config);
  std::printf("%8s %10s %10s %10s %10s %18s\n", "L_value", "decoder",
              "comparer", "transfer", "encoder", "bottleneck");
  for (int value_len : {64, 128, 256, 512, 1024, 2048}) {
    const uint64_t key = kKeyLen + 8;  // Internal key incl. mark.
    std::printf("%8d %10llu %10llu %10llu %10llu %18s\n", value_len,
                (unsigned long long)model.DecoderPeriod(key, value_len),
                (unsigned long long)model.ComparerPeriod(key, value_len),
                (unsigned long long)model.TransferPeriod(key, value_len),
                (unsigned long long)model.EncoderPeriod(key, value_len),
                fpga::TimingModel::BottleneckName(
                    model.BottleneckModule(key, value_len)));
  }
  std::printf("(paper Section V-D1: decoder-bound iff L_key < L_value /"
              " ((1 + ceil(log2 N)) * V))\n");
}

}  // namespace
}  // namespace bench
}  // namespace fcae

int main() {
  fcae::bench::Run();
  return 0;
}
