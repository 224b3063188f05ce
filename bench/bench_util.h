#ifndef FCAE_BENCH_BENCH_UTIL_H_
#define FCAE_BENCH_BENCH_UTIL_H_

// Shared helpers for the reproduction benches: staged-input builders and
// table formatting. Every bench prints the measured series side by side
// with the paper's published values so EXPERIMENTS.md can be regenerated
// by running the binaries.

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fpga/device_memory.h"
#include "fpga/dma_timeline.h"
#include "host/device_set.h"
#include "host/sstable_stager.h"
#include "lsm/compaction_executor.h"
#include "lsm/dbformat.h"
#include "table/table_builder.h"
#include "util/env.h"
#include "util/mem_env.h"
#include "workload/key_generator.h"

namespace fcae {
namespace bench {

/// A "no snapshots held" smallest_snapshot: above every sequence number
/// the benches write, so the newest version of each key survives and
/// older ones drop. kMaxSequenceNumber would drop every record: the
/// Validity Check starts each key at kMaxSequenceNumber and drops a
/// record once its newer version is at or below the snapshot.
constexpr uint64_t kNoSnapshot = 1ull << 40;

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void PrintRow(const char* format, ...) {
  va_list args;
  va_start(args, format);
  std::vfprintf(stdout, format, args);
  va_end(args);
  std::printf("\n");
}

/// Builds one staged device input: a sorted run of `num_records`
/// internal-key records with the given key/value lengths. Keys are
/// spaced by `stride` starting at `start` so multiple runs interleave.
class StagedInputBuilder {
 public:
  StagedInputBuilder()
      : env_(NewMemEnv(Env::Default())),
        icmp_(BytewiseComparator()),
        values_(12345) {}

  Status Build(int input_no, uint64_t start, uint64_t num_records,
               uint64_t stride, size_t key_len, size_t value_len,
               fpga::DeviceInput* input) {
    workload::KeyFormatter keys(key_len);
    Options options;
    options.env = env_.get();
    options.comparator = &icmp_;

    const std::string fname = "/bench_input" + std::to_string(input_no) +
                              "_" + std::to_string(serial_++) + ".ldb";
    WritableFile* file;
    Status s = env_->NewWritableFile(fname, &file);
    if (!s.ok()) return s;
    {
      TableBuilder builder(options, file);
      for (uint64_t i = 0; i < num_records; i++) {
        std::string ikey;
        AppendInternalKey(
            &ikey, ParsedInternalKey(keys.Format(start + i * stride),
                                     1000 + i, kTypeValue));
        builder.Add(ikey, values_.Generate(value_len));
      }
      s = builder.Finish();
    }
    if (s.ok()) s = file->Close();
    delete file;
    if (!s.ok()) return s;

    host::SstableStager stager(env_.get());
    return stager.AddTable(fname, input);
  }

  Env* env() { return env_.get(); }

 private:
  std::unique_ptr<Env> env_;
  InternalKeyComparator icmp_;
  workload::ValueGenerator values_;
  int serial_ = 0;
};

/// Records per input so the staged data totals roughly `total_bytes`.
inline uint64_t RecordsFor(uint64_t total_bytes, size_t key_len,
                           size_t value_len) {
  return total_bytes / (key_len + 8 + value_len);
}

/// One multi-card fan-out run (see RunDeviceFanout). Throughput is
/// computed over the *modeled* makespan — the busiest card's serialized
/// occupancy, kernel + DMA - pipeline overlap + bus waits — so every
/// number is deterministic on any host.
struct DeviceFanoutResult {
  bool ok = false;
  double makespan_micros = 0;  // Busiest card's modeled occupancy.
  double modeled_mbps = 0;     // Input bytes over the modeled makespan.
  uint64_t input_bytes = 0;
  uint64_t kernels_launched = 0;
  uint64_t pipelined_jobs = 0;          // Arrived while their card was busy.
  double pipeline_overlap_micros = 0;   // DMA hidden behind kernels.
  double bus_wait_micros = 0;           // Bursts waiting for other cards'.
};

/// Drains `shards` (each one sub-compaction: the staged runs of one
/// merge job) through a *fresh* DeviceSet with `threads` modeled
/// workers. Placement uses the executor's own calls — PickCard() plus
/// the queued-byte accounting — so the scheduler ablation measures the
/// policy the storage engine actually runs. Every shard is placed, in
/// shard order, before any runs. The shards then run in shard order on
/// the calling thread, and one fpga::DmaTimeline for the set schedules
/// them: shard i arrives when the earliest of the `threads` workers
/// frees (each worker holds its shard until the shard leaves its card),
/// so shards that meet at a card run double-buffered and sibling cards'
/// bursts share the bus.
/// The set must be freshly constructed: per-card kernel and DMA times
/// are read from the devices' lifetime counters.
inline DeviceFanoutResult RunDeviceFanout(
    host::DeviceSet* devices,
    const std::vector<std::vector<const fpga::DeviceInput*>>& shards,
    int threads) {
  DeviceFanoutResult result;
  std::vector<int> cards(shards.size());
  std::vector<uint64_t> bytes(shards.size(), 0);
  for (size_t i = 0; i < shards.size(); i++) {
    for (const fpga::DeviceInput* in : shards[i]) bytes[i] += in->TotalBytes();
    cards[i] = devices->PickCard();
    if (cards[i] < 0) return result;  // Every breaker denied.
    devices->AddQueued(cards[i], bytes[i]);
  }

  const int num_cards = devices->num_cards();
  fpga::DmaTimeline timeline(num_cards);
  std::vector<double> worker_free(static_cast<size_t>(std::max(1, threads)),
                                  0);
  std::vector<double> overlap(num_cards, 0), bus_wait(num_cards, 0);
  for (size_t i = 0; i < shards.size(); i++) {
    host::FcaeDevice* device = devices->device(cards[i]);
    fpga::DeviceOutput output;
    host::DeviceRunStats stats;
    const Status s = device->ExecuteCompaction(
        shards[i], kNoSnapshot, /*drop_deletions=*/true, &output, &stats);
    devices->SubQueued(cards[i], bytes[i]);
    if (!s.ok()) return result;
    result.input_bytes += bytes[i];

    auto worker = std::min_element(worker_free.begin(), worker_free.end());
    const fpga::DmaSlot slot = timeline.Schedule(
        cards[i], *worker, device->pcie().TransferMicros(stats.input_bytes),
        stats.kernel_micros, device->pcie().TransferMicros(stats.output_bytes));
    *worker = slot.end;
    overlap[cards[i]] += slot.overlap;
    bus_wait[cards[i]] += slot.bus_wait;
    if (slot.pipelined) result.pipelined_jobs++;
  }

  result.ok = true;
  for (int card = 0; card < num_cards; card++) {
    host::FcaeDevice* device = devices->device(card);
    const double occupancy =
        device->config().CyclesToMicros(device->total_kernel_cycles()) +
        device->total_pcie_micros() - overlap[card] + bus_wait[card];
    result.makespan_micros = std::max(result.makespan_micros, occupancy);
    result.kernels_launched += device->kernels_launched();
    result.pipeline_overlap_micros += overlap[card];
    result.bus_wait_micros += bus_wait[card];
  }
  if (result.makespan_micros > 0) {
    result.modeled_mbps = static_cast<double>(result.input_bytes) /
                          result.makespan_micros * 1e6 / (1 << 20);
  }
  return result;
}

/// Telemetry-export flags shared by the bench binaries. Consume() strips
/// `--metrics_out=<path>`, `--metrics_prom_out=<path>`, and
/// `--trace_out=<path>` from argv so the remaining flags can be handed
/// to google-benchmark (which rejects options it does not know) or to a
/// bench's own parser. The bench then writes the `fcae.metrics` /
/// `fcae.trace` property JSON — and, for the prom flag, the Prometheus
/// text rendering of the same registry — to the requested paths at exit.
struct ObsExportFlags {
  std::string metrics_out;
  std::string metrics_prom_out;
  std::string trace_out;
  // --perf runs the instrumented DB workload once per scheduler config
  // (1 worker vs. 4 workers + sharding) and writes BENCH_micro_perf.json
  // with throughput and work counters; bench/check_regression.py gates
  // CI on it against bench/baseline.json.
  bool perf = false;

  void Consume(int* argc, char** argv) {
    int kept = 1;
    for (int i = 1; i < *argc; i++) {
      std::string arg = argv[i];
      if (arg.rfind("--metrics_out=", 0) == 0) {
        metrics_out = arg.substr(std::string("--metrics_out=").size());
      } else if (arg.rfind("--metrics_prom_out=", 0) == 0) {
        metrics_prom_out =
            arg.substr(std::string("--metrics_prom_out=").size());
      } else if (arg.rfind("--trace_out=", 0) == 0) {
        trace_out = arg.substr(std::string("--trace_out=").size());
      } else if (arg == "--perf") {
        perf = true;
      } else {
        argv[kept++] = argv[i];
      }
    }
    *argc = kept;
  }

  bool active() const {
    return !metrics_out.empty() || !metrics_prom_out.empty() ||
           !trace_out.empty() || perf;
  }
};

/// Writes `contents` to `path` on the real filesystem (bench artifacts
/// must survive the process even when the DB ran on a mem env).
inline bool WriteTextFile(const std::string& path,
                          const std::string& contents) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(contents.data(), 1, contents.size(), f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

/// Flat key/value JSON emitter for machine-readable bench artifacts.
/// Each bench that opts in writes `BENCH_<name>.json` next to its
/// stdout table so runs can be diffed without scraping text. Keys use
/// dotted prefixes ("tournament.device_faults") instead of nesting.
class JsonReport {
 public:
  explicit JsonReport(const std::string& bench_name) : name_(bench_name) {
    Add("bench", bench_name);
  }

  void Add(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += Escape(value);
    quoted += '"';
    entries_.emplace_back(key, std::move(quoted));
  }
  void Add(const std::string& key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", value);
    entries_.emplace_back(key, buf);
  }
  void Add(const std::string& key, uint64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu", (unsigned long long)value);
    entries_.emplace_back(key, buf);
  }
  void Add(const std::string& key, int64_t value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", (long long)value);
    entries_.emplace_back(key, buf);
  }
  void Add(const std::string& key, int value) {
    Add(key, (int64_t)value);
  }

  /// Robustness counters from the fault-tolerant offload path. All of
  /// these stay at ~0 when the fault injector is off, so a nonzero
  /// reading in a BENCH_*.json flags unexpected retry/verify overhead.
  void AddRobustness(const std::string& prefix,
                     const CompactionExecStats& stats,
                     int64_t fallback_compactions) {
    Add(prefix + ".device_attempts", stats.device_attempts);
    Add(prefix + ".device_retries", stats.device_retries);
    Add(prefix + ".device_faults", stats.device_faults);
    Add(prefix + ".verify_failures", stats.verify_failures);
    Add(prefix + ".verify_micros", stats.verify_micros);
    Add(prefix + ".fallback_compactions", fallback_compactions);
  }

  /// Writes BENCH_<name>.json in the current directory.
  bool WriteFile() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n");
    for (size_t i = 0; i < entries_.size(); i++) {
      std::fprintf(f, "  \"%s\": %s%s\n", Escape(entries_[i].first).c_str(),
                   entries_[i].second.c_str(),
                   i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  static std::string Escape(const std::string& in) {
    std::string out;
    for (char c : in) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace bench
}  // namespace fcae

#endif  // FCAE_BENCH_BENCH_UTIL_H_
