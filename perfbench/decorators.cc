#include "decorators.h"

#include <algorithm>

#include "host/fcae_device.h"
#include "trace.h"

namespace perfbench {

namespace {

bool EndsWith(const std::string& s, const char* suffix) {
  const std::string tail(suffix);
  return s.size() >= tail.size() &&
         s.compare(s.size() - tail.size(), tail.size(), tail) == 0;
}

bool IsTableFile(const std::string& fname) {
  return EndsWith(fname, ".ldb") || EndsWith(fname, ".sst");
}

class CountingWritableFile : public fcae::WritableFile {
 public:
  CountingWritableFile(fcae::WritableFile* inner, int layer,
                       Counter bytes_counter)
      : inner_(inner), layer_(layer), bytes_counter_(bytes_counter) {}

  fcae::Status Append(const fcae::Slice& data) override {
    Count(bytes_counter_, data.size());
    Span span(layer_);
    return inner_->Append(data);
  }
  fcae::Status Close() override { return inner_->Close(); }
  fcae::Status Flush() override { return inner_->Flush(); }
  fcae::Status Sync() override {
    Count(kSyncs, 1);
    Span span(kFileSync);
    return inner_->Sync();
  }

 private:
  std::unique_ptr<fcae::WritableFile> inner_;
  const int layer_;
  const Counter bytes_counter_;
};

class CountingRandomAccessFile : public fcae::RandomAccessFile {
 public:
  explicit CountingRandomAccessFile(fcae::RandomAccessFile* inner)
      : inner_(inner) {}

  fcae::Status Read(uint64_t offset, size_t n, fcae::Slice* result,
                    char* scratch) const override {
    fcae::Status s;
    {
      Span span(kFileRead);
      s = inner_->Read(offset, n, result, scratch);
    }
    Count(kFileReads, 1);
    Count(kFileReadBytes, result->size());
    return s;
  }

 private:
  std::unique_ptr<fcae::RandomAccessFile> inner_;
};

fcae::WritableFile* WrapWritable(const std::string& fname,
                                 fcae::WritableFile* file) {
  if (EndsWith(fname, ".log")) {
    return new CountingWritableFile(file, kWalAppend, kLogBytes);
  }
  if (IsTableFile(fname)) {
    return new CountingWritableFile(file, kTableAppend, kTableBytes);
  }
  if (fname.find("MANIFEST") != std::string::npos) {
    return new CountingWritableFile(file, kManifestAppend, kManifestBytes);
  }
  return file;  // CURRENT and temporary files are not accounted.
}

}  // namespace

fcae::Status BenchEnv::NewRandomAccessFile(const std::string& fname,
                                           fcae::RandomAccessFile** result) {
  fcae::RandomAccessFile* file = nullptr;
  fcae::Status s = base_->NewRandomAccessFile(fname, &file);
  if (!s.ok()) {
    *result = nullptr;
    return s;
  }
  if (IsTableFile(fname)) Count(kTableOpens, 1);
  *result = new CountingRandomAccessFile(file);
  return s;
}

fcae::Status BenchEnv::NewWritableFile(const std::string& fname,
                                       fcae::WritableFile** result) {
  fcae::WritableFile* file = nullptr;
  fcae::Status s = base_->NewWritableFile(fname, &file);
  *result = s.ok() ? WrapWritable(fname, file) : nullptr;
  return s;
}

fcae::Status BenchEnv::NewAppendableFile(const std::string& fname,
                                         fcae::WritableFile** result) {
  fcae::WritableFile* file = nullptr;
  fcae::Status s = base_->NewAppendableFile(fname, &file);
  *result = s.ok() ? WrapWritable(fname, file) : nullptr;
  return s;
}

TracedCache::TracedCache(size_t capacity)
    : inner_(fcae::NewLRUCache(capacity)) {}

fcae::Cache::Handle* TracedCache::Insert(
    const fcae::Slice& key, void* value, size_t charge,
    void (*deleter)(const fcae::Slice&, void*)) {
  Span span(kCacheInsert);
  return inner_->Insert(key, value, charge, deleter);
}

fcae::Cache::Handle* TracedCache::Lookup(const fcae::Slice& key) {
  Handle* handle;
  {
    Span span(kCacheLookup);
    handle = inner_->Lookup(key);
  }
  Count(handle != nullptr ? kCacheHits : kCacheMisses, 1);
  return handle;
}

bool TracedFilterPolicy::KeyMayMatch(const fcae::Slice& key,
                                     const fcae::Slice& filter) const {
  bool may_match;
  {
    Span span(kFilterProbe);
    may_match = inner_->KeyMayMatch(key, filter);
  }
  Count(kFilterProbes, 1);
  if (!may_match) Count(kFilterNegatives, 1);
  return may_match;
}

fcae::Status TimedExecutor::Execute(
    const fcae::CompactionJob& job,
    std::vector<fcae::CompactionOutput>* outputs,
    fcae::CompactionExecStats* stats) {
  fcae::Status s;
  {
    Span span(kCompactionExec);
    s = inner_->Execute(job, outputs, stats);
  }
  verify_us.fetch_add(static_cast<uint64_t>(stats->verify_micros));
  device_modeled_us.fetch_add(
      static_cast<uint64_t>(stats->device_micros + stats->pcie_micros));
  retries.fetch_add(stats->device_retries);
  return s;
}

namespace {
thread_local uint64_t t_compaction_begin_ns = 0;
}  // namespace

void DbEvents::Reset() {
  for (std::atomic<uint64_t>* sum :
       {&flushes, &flush_us, &flush_out_bytes, &jobs, &input_files,
        &job_wall_ns, &in_bytes,
        &out_bytes, &offloaded_in_bytes, &fallbacks, &stalls, &stall_delay_us,
        &stall_stop_us, &background_errors}) {
    sum->store(0);
  }
}

void DbEvents::OnFlushCompleted(const fcae::obs::FlushJobInfo& info) {
  flushes.fetch_add(1);
  flush_us.fetch_add(info.micros);
  flush_out_bytes.fetch_add(info.output_bytes);
  const uint64_t now = NowNanos();
  RecordSpan(kFlushJob, now - std::min(now, info.micros * 1000), now);
}

void DbEvents::OnCompactionBegin(const fcae::obs::CompactionJobInfo&) {
  t_compaction_begin_ns = NowNanos();
}

void DbEvents::OnCompactionCompleted(
    const fcae::obs::CompactionJobInfo& info) {
  const uint64_t now = NowNanos();
  jobs.fetch_add(1);
  input_files.fetch_add(info.input_files);
  job_wall_ns.fetch_add(now - t_compaction_begin_ns);
  in_bytes.fetch_add(info.input_bytes);
  out_bytes.fetch_add(info.output_bytes);
  if (info.offloaded && !info.fell_back) {
    offloaded_in_bytes.fetch_add(info.input_bytes);
  } else if (offload_) {
    fallbacks.fetch_add(1);
  }
  if (!info.status.ok()) background_errors.fetch_add(1);
  RecordSpan(kCompactionJob, t_compaction_begin_ns, now);
}

void DbEvents::OnWriteStallEnd(const fcae::obs::WriteStallInfo& info) {
  stalls.fetch_add(1);
  if (info.cause == fcae::obs::WriteStallCause::kCompactionDebt) {
    stall_delay_us.fetch_add(info.micros);
  } else {
    stall_stop_us.fetch_add(info.micros);
  }
}

void DbEvents::OnBackgroundError(const fcae::obs::BackgroundErrorInfo&) {
  background_errors.fetch_add(1);
}

DeviceCounters DeviceCounters::Read(fcae::host::FcaeDevice* device) {
  DeviceCounters c;
  c.kernels = device->kernels_launched();
  c.kernel_cycles = device->total_kernel_cycles();
  c.kernel_us = device->config().CyclesToMicros(c.kernel_cycles);
  c.pcie_us = device->total_pcie_micros();
  c.dma_overlap_us = device->total_dma_overlap_micros();
  c.bus_wait_us = device->total_bus_wait_micros();
  return c;
}

void AddLayerMetrics(const LayerSources& src, Result* result) {
  auto add = [result](const char* name, const char* unit, double value) {
    result->per_layer.push_back({name, unit, value});
  };
  auto us = [](uint64_t ns) { return ns / 1e3; };
  auto load = [](const std::atomic<uint64_t>* value) -> double {
    return value != nullptr ? static_cast<double>(value->load()) : 0.0;
  };
  const DbEvents* ev = src.events;
  const TimedExecutor* ex = src.executor;

  // Write path: the client thread's Put, split by the WAL wrapper and
  // the stall events the writer thread reports.
  const double stall_delay = load(ev ? &ev->stall_delay_us : nullptr);
  const double stall_stop = load(ev ? &ev->stall_stop_us : nullptr);
  add("put.count", "count", static_cast<double>(src.puts));
  add("put.wal_append_us", "us", us(TotalsIn(kPut, kWalAppend).self_ns));
  add("put.wal_bytes", "bytes", static_cast<double>(CountIn(kPut, kLogBytes)));
  add("put.stall_delay_us", "us", stall_delay);
  add("put.stall_stop_us", "us", stall_stop);
  add("put.stalls", "count", load(ev ? &ev->stalls : nullptr));
  add("put.other_us", "us",
      std::max(0.0, us(TotalsIn(kPut, kPut).self_ns) - stall_delay -
                        stall_stop));

  add("flush.count", "count", load(ev ? &ev->flushes : nullptr));
  add("flush.busy_us", "us", load(ev ? &ev->flush_us : nullptr));
  add("flush.out_bytes", "bytes", load(ev ? &ev->flush_out_bytes : nullptr));

  const double job_us = load(ev ? &ev->job_wall_ns : nullptr) / 1e3;
  const double in_bytes = load(ev ? &ev->in_bytes : nullptr);
  const double exec_us = us(TotalsAll(kCompactionExec).total_ns);
  add("compaction.jobs", "count", load(ev ? &ev->jobs : nullptr));
  add("compaction.input_files", "count",
      load(ev ? &ev->input_files : nullptr));
  add("compaction.busy_us", "us", job_us);
  add("compaction.in_bytes", "bytes", in_bytes);
  add("compaction.out_bytes", "bytes", load(ev ? &ev->out_bytes : nullptr));
  add("compaction.fallbacks", "count", load(ev ? &ev->fallbacks : nullptr));
  add("compaction.outside_exec_us", "us",
      ex != nullptr ? std::max(0.0, job_us - exec_us) : 0.0);
  add("compaction.mbps", "MB/s", job_us > 0 ? in_bytes / job_us : 0.0);

  add("executor.exec_us", "us", exec_us);
  add("executor.verify_us", "us", load(ex ? &ex->verify_us : nullptr));
  add("executor.device_modeled_us", "us",
      load(ex ? &ex->device_modeled_us : nullptr));
  add("executor.retries", "count", load(ex ? &ex->retries : nullptr));

  const PipelineTotals& p = src.pipeline;
  add("stage.us", "us", p.stage_us);
  add("stage.bytes", "bytes", static_cast<double>(p.stage_bytes));

  const DeviceCounters& d = src.device;
  add("device.sim_us", "us", p.sim_us);
  add("device.modeled_us", "us", d.modeled_us());
  add("device.kernels", "count", static_cast<double>(d.kernels));
  add("device.kernel_cycles", "count", static_cast<double>(d.kernel_cycles));
  add("device.pcie_us", "us", d.pcie_us);
  add("device.dma_overlap_us", "us", d.dma_overlap_us);
  add("device.bus_wait_us", "us", d.bus_wait_us);
  add("offload.modeled_mbps", "MB/s",
      d.modeled_us() > 0 ? src.offload_in_bytes / d.modeled_us() : 0.0);

  add("verify.us", "us", p.verify_us);
  add("verify.blocks", "count", static_cast<double>(p.verify_blocks));
  add("assemble.us", "us", p.assemble_us);
  add("assemble.bytes", "bytes", static_cast<double>(p.assemble_bytes));
  add("cpu_merge.us", "us", p.cpu_merge_us);
  add("pipeline.residual_pct", "%", p.residual_pct());

  // Read path: wrapper calls attributed to the client op enclosing them.
  add("get.count", "count", static_cast<double>(src.gets));
  add("get.filter_probes", "count",
      static_cast<double>(CountIn(kGet, kFilterProbes)));
  add("get.filter_negatives", "count",
      static_cast<double>(CountIn(kGet, kFilterNegatives)));
  add("get.filter_us", "us", us(TotalsIn(kGet, kFilterProbe).self_ns));
  add("get.cache_hits", "count", static_cast<double>(CountIn(kGet, kCacheHits)));
  add("get.cache_misses", "count",
      static_cast<double>(CountIn(kGet, kCacheMisses)));
  add("get.cache_us", "us",
      us(TotalsIn(kGet, kCacheLookup).self_ns +
         TotalsIn(kGet, kCacheInsert).self_ns));
  add("get.file_reads", "count", static_cast<double>(CountIn(kGet, kFileReads)));
  add("get.file_read_bytes", "bytes",
      static_cast<double>(CountIn(kGet, kFileReadBytes)));
  add("get.file_read_us", "us", us(TotalsIn(kGet, kFileRead).self_ns));
  add("get.table_opens", "count",
      static_cast<double>(CountIn(kGet, kTableOpens)));
  add("get.other_us", "us", us(TotalsIn(kGet, kGet).self_ns));
  add("scan.count", "count", static_cast<double>(src.scans));
  add("scan.cache_misses", "count",
      static_cast<double>(CountIn(kScan, kCacheMisses)));
  add("scan.file_reads", "count",
      static_cast<double>(CountIn(kScan, kFileReads)));
  add("scan.file_read_us", "us", us(TotalsIn(kScan, kFileRead).self_ns));
  add("scan.other_us", "us", us(TotalsIn(kScan, kScan).self_ns));

  // Storage: the Env wrapper, all threads.
  add("file.log_bytes", "bytes", static_cast<double>(CountAll(kLogBytes)));
  add("file.table_bytes", "bytes", static_cast<double>(CountAll(kTableBytes)));
  add("file.manifest_bytes", "bytes",
      static_cast<double>(CountAll(kManifestBytes)));
  add("file.table_read_bytes", "bytes",
      static_cast<double>(CountAll(kFileReadBytes)));
  add("file.syncs", "count", static_cast<double>(CountAll(kSyncs)));
  add("file.sync_us", "us", us(TotalsAll(kFileSync).total_ns));
}

}  // namespace perfbench
