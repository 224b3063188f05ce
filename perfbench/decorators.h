#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

// Benchmark-owned decorators installed at the engine's existing plug-in
// points: an Env whose files count and time their calls, a block Cache,
// a FilterPolicy, a CompactionExecutor and an EventListener. Each one
// forwards to the real object and records what crossed the boundary.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "fpga/config.h"
#include "lsm/compaction_executor.h"
#include "obs/event_listener.h"
#include "util/cache.h"
#include "util/env.h"
#include "util/filter_policy.h"

namespace fcae {
namespace host {
class FcaeDevice;
}  // namespace host
}  // namespace fcae

namespace perfbench {

/// Forwards to `base`; files it opens count bytes per kind (log, table,
/// manifest) and, while tracing, time each call as a span.
class BenchEnv : public fcae::Env {
 public:
  explicit BenchEnv(fcae::Env* base) : base_(base) {}

  fcae::Status NewSequentialFile(const std::string& f,
                                 fcae::SequentialFile** r) override {
    return base_->NewSequentialFile(f, r);
  }
  fcae::Status NewRandomAccessFile(const std::string& f,
                                   fcae::RandomAccessFile** r) override;
  fcae::Status NewWritableFile(const std::string& f,
                               fcae::WritableFile** r) override;
  fcae::Status NewAppendableFile(const std::string& f,
                                 fcae::WritableFile** r) override;
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  fcae::Status GetChildren(const std::string& dir,
                           std::vector<std::string>* r) override {
    return base_->GetChildren(dir, r);
  }
  fcae::Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  fcae::Status CreateDir(const std::string& d) override {
    return base_->CreateDir(d);
  }
  fcae::Status RemoveDir(const std::string& d) override {
    return base_->RemoveDir(d);
  }
  fcae::Status GetFileSize(const std::string& f, uint64_t* s) override {
    return base_->GetFileSize(f, s);
  }
  fcae::Status RenameFile(const std::string& s,
                          const std::string& t) override {
    return base_->RenameFile(s, t);
  }
  fcae::Status SyncDir(const std::string& d) override {
    return base_->SyncDir(d);
  }
  fcae::Status LockFile(const std::string& f, fcae::FileLock** l) override {
    return base_->LockFile(f, l);
  }
  fcae::Status UnlockFile(fcae::FileLock* l) override {
    return base_->UnlockFile(l);
  }
  void Schedule(void (*fn)(void*), void* arg) override {
    base_->Schedule(fn, arg);
  }
  void SchedulePool(const char* pool, int max_threads, void (*fn)(void*),
                    void* arg) override {
    base_->SchedulePool(pool, max_threads, fn, arg);
  }
  void StartThread(void (*fn)(void*), void* arg) override {
    base_->StartThread(fn, arg);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }
  void SleepForMicroseconds(int micros) override {
    base_->SleepForMicroseconds(micros);
  }

 private:
  fcae::Env* const base_;
};

/// Block cache that counts hits and misses and times lookups/inserts.
class TracedCache : public fcae::Cache {
 public:
  explicit TracedCache(size_t capacity);

  Handle* Insert(const fcae::Slice& key, void* value, size_t charge,
                 void (*deleter)(const fcae::Slice&, void*)) override;
  Handle* Lookup(const fcae::Slice& key) override;
  void Release(Handle* h) override { inner_->Release(h); }
  void* Value(Handle* h) override { return inner_->Value(h); }
  void Erase(const fcae::Slice& key) override { inner_->Erase(key); }
  uint64_t NewId() override { return inner_->NewId(); }
  void Prune() override { inner_->Prune(); }
  size_t TotalCharge() const override { return inner_->TotalCharge(); }

 private:
  std::unique_ptr<fcae::Cache> inner_;
};

/// Filter policy that counts probes and negatives and times probes.
class TracedFilterPolicy : public fcae::FilterPolicy {
 public:
  explicit TracedFilterPolicy(const fcae::FilterPolicy* inner)
      : inner_(inner) {}

  const char* Name() const override { return inner_->Name(); }
  void CreateFilter(const fcae::Slice* keys, int n,
                    std::string* dst) const override {
    inner_->CreateFilter(keys, n, dst);
  }
  bool KeyMayMatch(const fcae::Slice& key,
                   const fcae::Slice& filter) const override;

 private:
  std::unique_ptr<const fcae::FilterPolicy> inner_;
};

/// Times every Execute() and sums the stats the executor returns.
class TimedExecutor : public fcae::CompactionExecutor {
 public:
  explicit TimedExecutor(fcae::CompactionExecutor* inner) : inner_(inner) {}

  const char* Name() const override { return inner_->Name(); }
  bool CanExecute(const fcae::CompactionJob& job) const override {
    return inner_->CanExecute(job);
  }
  fcae::Status Execute(const fcae::CompactionJob& job,
                       std::vector<fcae::CompactionOutput>* outputs,
                       fcae::CompactionExecStats* stats) override;
  std::string HealthString() const override { return inner_->HealthString(); }

  std::atomic<uint64_t> verify_us{0};
  std::atomic<uint64_t> device_modeled_us{0};  // Kernel plus PCIe.
  std::atomic<uint64_t> retries{0};

 private:
  fcae::CompactionExecutor* const inner_;
};

/// Sums flush, compaction and write-stall events; while tracing, also
/// records each flush and compaction job as a span.
class DbEvents : public fcae::obs::EventListener {
 public:
  /// `offload`: the DB runs an offload executor, so a job that ends on
  /// the CPU is a fallback.
  explicit DbEvents(bool offload) : offload_(offload) {}

  /// Zeroes every sum; called when set-up ends and the run begins.
  void Reset();

  void OnFlushCompleted(const fcae::obs::FlushJobInfo& info) override;
  void OnCompactionBegin(const fcae::obs::CompactionJobInfo& info) override;
  void OnCompactionCompleted(
      const fcae::obs::CompactionJobInfo& info) override;
  void OnWriteStallEnd(const fcae::obs::WriteStallInfo& info) override;
  void OnBackgroundError(const fcae::obs::BackgroundErrorInfo& info) override;

  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> flush_us{0};
  std::atomic<uint64_t> flush_out_bytes{0};
  std::atomic<uint64_t> jobs{0};
  std::atomic<uint64_t> input_files{0};
  std::atomic<uint64_t> job_wall_ns{0};  // OnCompactionBegin..Completed.
  std::atomic<uint64_t> in_bytes{0};
  std::atomic<uint64_t> out_bytes{0};
  std::atomic<uint64_t> offloaded_in_bytes{0};
  std::atomic<uint64_t> fallbacks{0};  // Refused by or fell back from the card.
  std::atomic<uint64_t> stalls{0};
  std::atomic<uint64_t> stall_delay_us{0};
  std::atomic<uint64_t> stall_stop_us{0};
  std::atomic<uint64_t> background_errors{0};

 private:
  const bool offload_;
};

/// The card every offload workload builds: the 9-input engine with the
/// narrow datapaths the repo's end-to-end benches use.
inline fcae::fpga::EngineConfig OffloadEngineConfig() {
  fcae::fpga::EngineConfig config;
  config.num_inputs = 9;
  config.input_width = 8;
  config.value_width = 8;
  return config;
}

/// Lifetime counters of one simulated card, read through its public
/// accessors (modeled figures, not wall time).
struct DeviceCounters {
  uint64_t kernels = 0;
  uint64_t kernel_cycles = 0;
  double kernel_us = 0;
  double pcie_us = 0;
  double dma_overlap_us = 0;
  double bus_wait_us = 0;

  static DeviceCounters Read(fcae::host::FcaeDevice* device);
  /// Modeled card time: kernel plus PCIe, minus DMA overlap, plus bus
  /// contention.
  double modeled_us() const {
    return kernel_us + pcie_us - dma_overlap_us + bus_wait_us;
  }
};

/// The offload stages offload_pipeline times one by one. Each stage timer
/// wraps only its public call; `job_wall_us` is read separately, from the
/// start of a job to the end of its assembly.
struct PipelineTotals {
  double stage_us = 0;
  uint64_t stage_bytes = 0;
  double sim_us = 0;
  double verify_us = 0;
  uint64_t verify_blocks = 0;
  double assemble_us = 0;
  uint64_t assemble_bytes = 0;
  double cpu_merge_us = 0;
  double job_wall_us = 0;

  double residual_pct() const {
    if (job_wall_us <= 0) return 0;
    return 100.0 *
           (1.0 - (stage_us + sim_us + verify_us + assemble_us) / job_wall_us);
  }
};

/// Everything the per-layer metrics are computed from. Null or zero
/// members stand for layers a workload does not exercise.
struct LayerSources {
  const DbEvents* events = nullptr;
  const TimedExecutor* executor = nullptr;
  DeviceCounters device;
  double offload_in_bytes = 0;  // Input bytes the card's modeled time covers.
  PipelineTotals pipeline;
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
};

/// Appends every per-layer metric, in BENCHMARK.json order, to `result`.
void AddLayerMetrics(const LayerSources& sources, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
