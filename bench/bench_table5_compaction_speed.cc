// Reproduces Table V and Fig. 9: compaction speed of the CPU baseline
// vs the 2-input engine across value lengths and value-path widths V,
// plus the resulting acceleration ratios.
//
// The CPU column is measured for real on this host (single-threaded
// merge over memory-resident images, Snappy decode/encode included);
// the FCAE columns come from the cycle-level engine simulation at
// 200 MHz. Absolute magnitudes differ from the paper's testbed (their
// CPU column is 5-15 MB/s; a modern host is faster, and their silicon
// carries overheads Table III idealizes away) — the trends to check are:
// both speeds grow with value length, FCAE grows faster, and larger V
// helps long values (Section VII-B1).

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "fpga/compaction_engine.h"
#include "host/cpu_compactor.h"

namespace fcae {
namespace bench {
namespace {

constexpr uint64_t kInputBytesPerRun = 4ull << 20;  // 2 x 4 MB inputs.
constexpr uint64_t kKeyLen = 16;

void Run() {
  PrintHeader("Table V: compaction speed (MB/s), 2-input, key 16 B");
  std::printf("%8s %10s %8s %8s %8s %8s\n", "L_value", "CPU(meas)", "V=8",
              "V=16", "V=32", "V=64");

  const int value_lengths[] = {64, 128, 256, 512, 1024, 2048};
  const int widths[] = {8, 16, 32, 64};
  const double paper_cpu[] = {5.3, 6.9, 9.0, 12.2, 14.8, 13.3};
  const double paper_fcae[4][6] = {
      {178.5, 260.1, 343.9, 446.9, 448.5, 506.3},
      {164.5, 312.1, 451.6, 627.9, 739.5, 709.0},
      {181.8, 311.8, 510.7, 672.8, 896.7, 1077.4},
      {175.8, 291.7, 524.9, 745.4, 1026.3, 1205.6}};

  double ratios[4][6];

  for (int li = 0; li < 6; li++) {
    const int value_len = value_lengths[li];
    const uint64_t records =
        RecordsFor(kInputBytesPerRun, kKeyLen, value_len);

    // Consecutive key ranges: the merge drains one input at a time, so a
    // single decoder lane must sustain the full record rate — the regime
    // in which Table III's V-dependence is visible. (With interleaved
    // ranges the N parallel decode lanes hide the value-read time and
    // the Comparer bounds everything.)
    StagedInputBuilder builder;
    fpga::DeviceInput in_a, in_b;
    Status s = builder.Build(0, 0, records, 1, kKeyLen, value_len, &in_a);
    if (s.ok()) {
      s = builder.Build(1, records, records, 1, kKeyLen, value_len, &in_b);
    }
    if (!s.ok()) {
      std::fprintf(stderr, "staging failed: %s\n", s.ToString().c_str());
      return;
    }

    // CPU baseline: best of 3 runs.
    host::CpuCompactorOptions cpu_options;
    cpu_options.smallest_snapshot = kNoSnapshot;
    cpu_options.drop_deletions = true;
    double cpu_speed = 0;
    for (int rep = 0; rep < 3; rep++) {
      fpga::DeviceOutput out;
      host::CpuCompactStats stats;
      s = host::CpuCompactImages({&in_a, &in_b}, cpu_options, &out, &stats);
      if (!s.ok()) {
        std::fprintf(stderr, "cpu merge failed: %s\n", s.ToString().c_str());
        return;
      }
      cpu_speed = std::max(cpu_speed, stats.SpeedMBps());
    }
    std::printf("%8d %10.1f", value_len, cpu_speed);
    for (int wi = 0; wi < 4; wi++) {
      fpga::EngineConfig config;
      config.num_inputs = 2;
      config.value_width = widths[wi];
      fpga::DeviceOutput out;
      fpga::CompactionEngine engine(config, {&in_a, &in_b}, kNoSnapshot,
                                    true, &out);
      s = engine.Run();
      if (!s.ok()) {
        std::fprintf(stderr, "engine failed: %s\n", s.ToString().c_str());
        return;
      }
      const double speed = engine.stats().CompactionSpeedMBps(config);
      ratios[wi][li] = speed / cpu_speed;
      std::printf(" %8.1f", speed);
    }
    std::printf("\n");
  }

  std::printf("\npaper:   (CPU)  (V=8)  (V=16)  (V=32)  (V=64)\n");
  for (int li = 0; li < 6; li++) {
    std::printf("%8d %6.1f %7.1f %7.1f %7.1f %7.1f\n", value_lengths[li],
                paper_cpu[li], paper_fcae[0][li], paper_fcae[1][li],
                paper_fcae[2][li], paper_fcae[3][li]);
  }

  PrintHeader("Fig. 9: acceleration ratio (FCAE / CPU)");
  std::printf("%8s %8s %8s %8s %8s   (paper V=16 ratio)\n", "L_value", "V=8",
              "V=16", "V=32", "V=64");
  for (int li = 0; li < 6; li++) {
    std::printf("%8d %8.1f %8.1f %8.1f %8.1f   %6.1f\n", value_lengths[li],
                ratios[0][li], ratios[1][li], ratios[2][li], ratios[3][li],
                paper_fcae[1][li] / paper_cpu[li]);
  }
}

}  // namespace
}  // namespace bench
}  // namespace fcae

int main() {
  fcae::bench::Run();
  return 0;
}
