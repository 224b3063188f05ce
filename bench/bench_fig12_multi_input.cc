// Reproduces Figs. 12 and 13: compaction speed of the 9-input engine
// (W_in=8, V=8 — the largest configuration that fits, Table VII) vs the
// 2-input engine (W_in=64, V=16), and their acceleration ratios over
// the CPU baselines merging the same numbers of runs.
//
// Expected shape: the 9-input engine is substantially slower for short
// values (Comparer-bound; deeper compare tree) with the gap narrowing
// as values grow (Data Block Decoder-bound; nearly N-independent), yet
// its acceleration ratio over the *9-way* CPU merge exceeds the 2-input
// ratio because the software merge degrades linearly in N.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "fpga/compaction_engine.h"
#include "host/cpu_compactor.h"

namespace fcae {
namespace bench {
namespace {

constexpr uint64_t kKeyLen = 16;
constexpr uint64_t kBytesPerInput = 1ull << 21;  // 2 MB per input run.

struct Result {
  double engine_mbps = 0;
  double cpu_mbps = 0;
};

Result RunConfig(int n, int win, int v, int value_len) {
  StagedInputBuilder builder;
  std::vector<std::unique_ptr<fpga::DeviceInput>> inputs;
  const uint64_t records = RecordsFor(kBytesPerInput, kKeyLen, value_len);
  for (int i = 0; i < n; i++) {
    // Consecutive ranges per input (see bench_table5 for why).
    auto input = std::make_unique<fpga::DeviceInput>();
    Status s = builder.Build(i, i * records, records, 1, kKeyLen, value_len,
                             input.get());
    if (!s.ok()) {
      std::fprintf(stderr, "stage: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    inputs.push_back(std::move(input));
  }
  std::vector<const fpga::DeviceInput*> ptrs;
  for (auto& in : inputs) ptrs.push_back(in.get());

  Result result;
  {
    fpga::EngineConfig config;
    config.num_inputs = n;
    config.input_width = win;
    config.value_width = v;
    fpga::DeviceOutput out;
    fpga::CompactionEngine engine(config, ptrs, kNoSnapshot, true, &out);
    Status s = engine.Run();
    if (!s.ok()) {
      std::fprintf(stderr, "engine: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    result.engine_mbps = engine.stats().CompactionSpeedMBps(config);
  }
  {
    host::CpuCompactorOptions options;
    options.smallest_snapshot = kNoSnapshot;
    options.drop_deletions = true;
    for (int rep = 0; rep < 3; rep++) {
      fpga::DeviceOutput out;
      host::CpuCompactStats stats;
      Status s = host::CpuCompactImages(ptrs, options, &out, &stats);
      if (!s.ok()) {
        std::fprintf(stderr, "cpu: %s\n", s.ToString().c_str());
        std::exit(1);
      }
      result.cpu_mbps = std::max(result.cpu_mbps, stats.SpeedMBps());
    }
  }
  return result;
}

void Run() {
  PrintHeader("Fig. 12: compaction speed (MB/s), 2-input vs 9-input");
  std::printf("%8s %12s %12s %8s | %12s %12s\n", "L_value", "2in(W64,V16)",
              "9in(W8,V8)", "9/2", "CPU 2-way", "CPU 9-way");

  const int value_lengths[] = {64, 128, 256, 512, 1024, 2048};
  double r2[6], r9[6];
  for (int li = 0; li < 6; li++) {
    const int value_len = value_lengths[li];
    Result two = RunConfig(2, 64, 16, value_len);
    Result nine = RunConfig(9, 8, 8, value_len);
    r2[li] = two.engine_mbps / two.cpu_mbps;
    r9[li] = nine.engine_mbps / nine.cpu_mbps;
    std::printf("%8d %12.1f %12.1f %8.2f | %12.1f %12.1f\n", value_len,
                two.engine_mbps, nine.engine_mbps,
                nine.engine_mbps / two.engine_mbps, two.cpu_mbps,
                nine.cpu_mbps);
  }

  PrintHeader("Fig. 13: acceleration ratio over the CPU baseline");
  std::printf("%8s %10s %10s   (paper: 9-input exceeds 2-input; up to 92x)\n",
              "L_value", "2-input", "9-input");
  for (int li = 0; li < 6; li++) {
    std::printf("%8d %10.1f %10.1f\n", value_lengths[li], r2[li], r9[li]);
  }
}

}  // namespace
}  // namespace bench
}  // namespace fcae

int main() {
  fcae::bench::Run();
  return 0;
}
