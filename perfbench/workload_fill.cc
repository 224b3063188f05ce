// fill: uniform random Puts into an offload DB (one-card DeviceSet,
// tournament scheduling, 256 KB write buffer) for the run time, then a
// drain with CompactRange, then a read-back of every acknowledged key by
// Get, short scans and one full scan. The write path, flush, the
// scheduler and the offload pipeline do nearly all the timed work. A
// first, untimed read-back runs before the drain, while the tree still
// has L0 files and several levels: Gets of written keys, and Gets of
// never-written keys that the bloom filters should turn away.

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "decorators.h"
#include "host/device_set.h"
#include "host/offload_compaction.h"
#include "lsm/db.h"
#include "table/iterator.h"
#include "trace.h"
#include "util/mem_env.h"

namespace perfbench {

namespace {

constexpr char kDbName[] = "/fill";
constexpr uint64_t kKeySpace = uint64_t{1} << 24;
constexpr size_t kValueSize = 100;
constexpr size_t kWriteBufferSize = 256 * 1024;
constexpr size_t kCacheBytes = 4 << 20;
constexpr int kScans = 2000;
constexpr int kPreDrainGets = 20000;  // Of written keys, and of unwritten.
constexpr int kSetups = 15;
// Set-up writes half a memtable, so the measured phase starts on a warm
// write path and set-up time is dominated by engine work, not by noise.
constexpr uint64_t kWarmupPuts =
    kWriteBufferSize / (kKeySize + kValueSize) / 2;

/// Members are declared so the DB closes before what it borrows.
struct FillDb {
  std::unique_ptr<fcae::Env> mem_env;
  std::unique_ptr<BenchEnv> env;
  std::unique_ptr<fcae::host::DeviceSet> devices;
  std::unique_ptr<fcae::host::FcaeCompactionExecutor> offload;
  std::unique_ptr<TimedExecutor> timed;
  std::unique_ptr<fcae::Cache> cache;
  std::unique_ptr<const fcae::FilterPolicy> filter;
  DbEvents events{/*offload=*/true};
  std::unique_ptr<fcae::DB> db;
};

/// Key ids of the set-up writes, all at version 0.
std::vector<uint64_t> WarmupIds(uint64_t seed) {
  Rng rng(Mix(seed, 3));
  std::vector<uint64_t> ids(kWarmupPuts);
  for (uint64_t& id : ids) id = rng.Uniform(kKeySpace);
  return ids;
}

fcae::Status SetUp(const RunConfig& config, std::unique_ptr<FillDb>* out) {
  auto f = std::make_unique<FillDb>();
  f->mem_env.reset(fcae::NewMemEnv(fcae::Env::Default()));
  f->env = std::make_unique<BenchEnv>(f->mem_env.get());
  f->devices = std::make_unique<fcae::host::DeviceSet>(OffloadEngineConfig(),
                                                       /*num_cards=*/1);
  fcae::host::FcaeExecutorOptions exec_options;
  exec_options.tournament_scheduling = true;
  f->offload = std::make_unique<fcae::host::FcaeCompactionExecutor>(
      f->devices.get(), exec_options);

  fcae::Options options;
  options.env = f->env.get();
  options.create_if_missing = true;
  options.write_buffer_size = kWriteBufferSize;
  options.num_offload_cards = 1;
  options.compaction_executor = f->offload.get();
  if (config.trace) {
    f->timed = std::make_unique<TimedExecutor>(f->offload.get());
    options.compaction_executor = f->timed.get();
    f->cache = std::make_unique<TracedCache>(kCacheBytes);
    f->filter = std::make_unique<TracedFilterPolicy>(
        fcae::NewBloomFilterPolicy(10));
  } else {
    f->cache.reset(fcae::NewLRUCache(kCacheBytes));
    f->filter.reset(fcae::NewBloomFilterPolicy(10));
  }
  options.block_cache = f->cache.get();
  options.filter_policy = f->filter.get();
  options.listeners.push_back(&f->events);
  fcae::DB* db = nullptr;
  fcae::Status s = fcae::DB::Open(options, kDbName, &db);
  if (!s.ok()) return s;
  f->db.reset(db);
  std::string value;
  for (uint64_t id : WarmupIds(config.seed)) {
    ValueOf(config.seed, id, 0, kValueSize, &value);
    s = db->Put(fcae::WriteOptions(), KeyOf(id), value);
    if (!s.ok()) return s;
  }
  *out = std::move(f);
  return s;
}

uint64_t LiveTableBytes(fcae::Env* env) {
  std::vector<std::string> children;
  if (!env->GetChildren(kDbName, &children).ok()) return 0;
  uint64_t total = 0;
  for (const std::string& name : children) {
    if (name.size() < 4 || name.compare(name.size() - 4, 4, ".ldb") != 0) {
      continue;
    }
    uint64_t size = 0;
    if (env->GetFileSize(std::string(kDbName) + "/" + name, &size).ok()) {
      total += size;
    }
  }
  return total;
}

}  // namespace

Result RunFill(const RunConfig& config) {
  Result result;
  ResetRecorder(false);
  std::vector<double> setup_s;
  std::unique_ptr<FillDb> f;
  for (int i = 0; i < kSetups; i++) {
    f.reset();
    const uint64_t t0 = NowNanos();
    const fcae::Status s = SetUp(config, &f);
    setup_s.push_back((NowNanos() - t0) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "fill set-up: %s\n", s.ToString().c_str());
      result.Check(false);
      return result;
    }
  }
  ResetRecorder(config.trace);
  f->events.Reset();
  fcae::DB* db = f->db.get();
  Rng rng(Mix(config.seed, 1));
  const fcae::WriteOptions write_options;  // sync = false
  const fcae::ReadOptions read_options;

  // Put phase: closed loop for the run time.
  std::unordered_map<uint64_t, uint32_t> acked;  // key id -> version
  for (uint64_t id : WarmupIds(config.seed)) acked[id] = 0;
  Samples put_latency;
  uint64_t user_bytes = 0;
  std::string key, value;
  const uint64_t start = NowNanos();
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  uint64_t now = start;
  Windows windows(start, kWindowNs);
  while (now < deadline) {
    const uint64_t id = rng.Uniform(kKeySpace);
    auto it = acked.find(id);
    const uint32_t version = it == acked.end() ? 0 : it->second + 1;
    key = KeyOf(id);
    ValueOf(config.seed, id, version, kValueSize, &value);
    const uint64_t t0 = NowNanos();
    fcae::Status s;
    {
      Span span(kPut);
      s = db->Put(write_options, key, value);
    }
    now = NowNanos();
    put_latency.Add((now - t0) / 1e3);
    result.Check(s.ok());
    if (s.ok()) {
      acked[id] = version;
      user_bytes += key.size() + value.size();
      windows.Add(now, (now - t0) / 1e3, key.size() + value.size());
    }
  }
  windows.Finish(now);
  const double put_s = (now - start) / 1e9;

  // Read-back before the drain, with compactions still running. Gets of
  // written keys search the memtables, L0 and the levels below; Gets of
  // never-written ids inside the key range must come back NotFound.
  std::vector<uint64_t> ids;
  ids.reserve(acked.size());
  for (const auto& entry : acked) ids.push_back(entry.first);
  std::sort(ids.begin(), ids.end());
  Samples live_latency, missing_latency;
  std::string got;
  for (int i = 0; i < 2 * kPreDrainGets; i++) {
    const bool live = i < kPreDrainGets;
    uint64_t id = live ? ids[rng.Uniform(ids.size())] : rng.Uniform(kKeySpace);
    while (!live && acked.count(id) != 0) id = rng.Uniform(kKeySpace);
    key = KeyOf(id);
    if (live) ValueOf(config.seed, id, acked[id], kValueSize, &value);
    const uint64_t t0 = NowNanos();
    fcae::Status s;
    {
      Span span(kGet);
      s = db->Get(read_options, key, &got);
    }
    (live ? live_latency : missing_latency).Add((NowNanos() - t0) / 1e3);
    result.Check(live ? s.ok() && got == value : s.IsNotFound());
  }

  const uint64_t drain_start = NowNanos();
  db->CompactRange(nullptr, nullptr);
  const double drain_s = (NowNanos() - drain_start) / 1e9;

  // Read-back after the drain: every acknowledged key by Get.
  Samples get_latency;
  for (const auto& [id, version] : acked) {
    key = KeyOf(id);
    ValueOf(config.seed, id, version, kValueSize, &value);
    const uint64_t t0 = NowNanos();
    fcae::Status s;
    {
      Span span(kGet);
      s = db->Get(read_options, key, &got);
    }
    get_latency.Add((NowNanos() - t0) / 1e3);
    result.Check(s.ok() && got == value);
  }

  // Short scans from random acknowledged keys, then one full scan that
  // must return exactly the acknowledged keys.
  Samples scan_latency;
  for (int i = 0; i < kScans && !ids.empty(); i++) {
    const size_t first = rng.Uniform(ids.size());
    const size_t nexts = 1 + rng.Uniform(50);
    bool ok = true;
    const uint64_t t0 = NowNanos();
    {
      Span span(kScan);
      std::unique_ptr<fcae::Iterator> it(db->NewIterator(read_options));
      it->Seek(KeyOf(ids[first]));
      for (size_t j = first; j <= first + nexts && j < ids.size(); j++) {
        if (!it->Valid() || it->key() != fcae::Slice(KeyOf(ids[j]))) {
          ok = false;
          break;
        }
        ValueOf(config.seed, ids[j], acked[ids[j]], kValueSize, &value);
        ok = ok && it->value() == fcae::Slice(value);
        if (j < first + nexts) it->Next();
      }
      ok = ok && it->status().ok();
    }
    scan_latency.Add((NowNanos() - t0) / 1e3);
    result.Check(ok);
  }
  {
    std::unique_ptr<fcae::Iterator> it(db->NewIterator(read_options));
    size_t matched = 0;
    for (it->SeekToFirst(); it->Valid() && matched < ids.size(); it->Next()) {
      if (it->key() != fcae::Slice(KeyOf(ids[matched]))) break;
      matched++;
    }
    result.Check(matched == ids.size() && !it->Valid() && it->status().ok());
  }

  // What the engine did, read before the DB closes.
  const uint64_t written = CountAll(kLogBytes) + CountAll(kTableBytes) +
                           CountAll(kManifestBytes);
  const uint64_t live_table_bytes = LiveTableBytes(f->env.get());
  const DeviceCounters device = DeviceCounters::Read(f->devices->device(0));
  const DbEvents& ev = f->events;
  result.Check(ev.background_errors.load() == 0);

  const double job_us = ev.job_wall_ns.load() / 1e3;
  const double unique_bytes =
      static_cast<double>(acked.size()) * (kKeySize + kValueSize);
  const double ingest_mbps = user_bytes / 1e6 / put_s;
  result.end_to_end = {
      {"throughput_mbps", "MB/s", windows.MBPerSecond()},
      {"latency_p50_us", "us", windows.P50()},
      {"latency_p99_us", "us", windows.P99()},
      {"setup_s", "s", Median(setup_s)},
  };
  result.report = {
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"ingest_mbps", "MB/s", ingest_mbps},
      {"compaction_mbps", "MB/s", job_us > 0 ? ev.in_bytes.load() / job_us : 0},
      {"offload_modeled_mbps", "MB/s",
       device.modeled_us() > 0
           ? ev.offloaded_in_bytes.load() / device.modeled_us()
           : 0},
      {"write_amp", "ratio", user_bytes ? written / double(user_bytes) : 0},
      {"space_amp", "ratio", live_table_bytes / unique_bytes},
      {"drain_s", "s", drain_s},
  };
  ReportLatency("put", put_latency, &result);
  ReportLatency("get_predrain", live_latency, &result);
  ReportLatency("get_missing", missing_latency, &result);
  ReportLatency("get", get_latency, &result);
  ReportLatency("scan", scan_latency, &result);

  if (config.trace) {
    LayerSources sources;
    sources.events = &f->events;
    sources.executor = f->timed.get();
    sources.device = device;
    sources.offload_in_bytes = static_cast<double>(ev.offloaded_in_bytes.load());
    sources.puts = put_latency.size();
    sources.gets =
        live_latency.size() + missing_latency.size() + get_latency.size();
    sources.scans = scan_latency.size();
    AddLayerMetrics(sources, &result);
  }
  return result;
}

}  // namespace perfbench
