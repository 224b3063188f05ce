// read_mostly: a preloaded key space about 4x the LRU block cache,
// then zipfian (0.99) operations — 90% Get, 5% short scans (Seek plus
// 1-50 Next), 5% updates — from one closed-loop client. Engine defaults
// otherwise (CPU compaction, 4 MB write buffer), bloom filter at 10 bits
// per key. The read path does the work; the updates are a trickle of
// writes beside it. The hot set fits the cache and the tail does not.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "decorators.h"
#include "lsm/db.h"
#include "table/iterator.h"
#include "trace.h"
#include "util/mem_env.h"

namespace perfbench {

namespace {

constexpr char kDbName[] = "/read_mostly";
constexpr size_t kValueSize = 100;
constexpr size_t kCacheBytes = 4 << 20;
// About 4x the cache on disk: each record takes ~130 bytes in a table.
constexpr uint64_t kKeys = 4 * kCacheBytes / 130;
constexpr double kZipfTheta = 0.99;
constexpr int kSetups = 3;

/// Members are declared so the DB closes before what it borrows.
struct ReadDb {
  std::unique_ptr<fcae::Env> mem_env;
  std::unique_ptr<BenchEnv> env;
  std::unique_ptr<fcae::Cache> cache;
  std::unique_ptr<const fcae::FilterPolicy> filter;
  DbEvents events{/*offload=*/false};
  std::unique_ptr<fcae::DB> db;
};

/// Opens the DB and preloads every key at version 0, in key order so
/// set-up stays cheap, then compacts so the whole key space is on disk.
fcae::Status SetUp(const RunConfig& config, std::unique_ptr<ReadDb>* out) {
  auto r = std::make_unique<ReadDb>();
  r->mem_env.reset(fcae::NewMemEnv(fcae::Env::Default()));
  r->env = std::make_unique<BenchEnv>(r->mem_env.get());
  if (config.trace) {
    r->cache = std::make_unique<TracedCache>(kCacheBytes);
    r->filter = std::make_unique<TracedFilterPolicy>(
        fcae::NewBloomFilterPolicy(10));
  } else {
    r->cache.reset(fcae::NewLRUCache(kCacheBytes));
    r->filter.reset(fcae::NewBloomFilterPolicy(10));
  }
  fcae::Options options;
  options.env = r->env.get();
  options.create_if_missing = true;
  options.block_cache = r->cache.get();
  options.filter_policy = r->filter.get();
  options.listeners.push_back(&r->events);
  fcae::DB* db = nullptr;
  fcae::Status s = fcae::DB::Open(options, kDbName, &db);
  if (!s.ok()) return s;
  r->db.reset(db);
  const fcae::WriteOptions write_options;
  std::string value;
  for (uint64_t id = 0; id < kKeys && s.ok(); id++) {
    ValueOf(config.seed, id, 0, kValueSize, &value);
    s = db->Put(write_options, KeyOf(id), value);
  }
  if (!s.ok()) return s;
  db->CompactRange(nullptr, nullptr);
  *out = std::move(r);
  return s;
}

}  // namespace

Result RunReadMostly(const RunConfig& config) {
  Result result;
  ResetRecorder(false);
  std::vector<double> setup_s;
  std::unique_ptr<ReadDb> r;
  for (int i = 0; i < kSetups; i++) {
    r.reset();
    const uint64_t t0 = NowNanos();
    const fcae::Status s = SetUp(config, &r);
    setup_s.push_back((NowNanos() - t0) / 1e9);
    if (!s.ok()) {
      std::fprintf(stderr, "read_mostly set-up: %s\n", s.ToString().c_str());
      result.Check(false);
      return result;
    }
  }
  ResetRecorder(config.trace);
  r->events.Reset();
  fcae::DB* db = r->db.get();
  const fcae::WriteOptions write_options;  // sync = false
  const fcae::ReadOptions read_options;
  const Zipfian zipf(kKeys, kZipfTheta);
  Rng rng(Mix(config.seed, 2));
  std::vector<uint32_t> versions(kKeys, 0);

  Samples all_latency, get_latency, scan_latency, put_latency;
  uint64_t user_bytes = 0;
  std::string key, value, got;
  const uint64_t start = NowNanos();
  const uint64_t deadline =
      start + static_cast<uint64_t>(config.seconds * 1e9);
  uint64_t now = start;
  Windows windows(start, kWindowNs);
  while (now < deadline) {
    // Ranks map to ids through a bijection so hot keys spread over the
    // key space instead of sitting in one table.
    const uint64_t rank = zipf.Next(&rng);
    const uint64_t id = rank * 2654435761ull % kKeys;
    const uint64_t pick = rng.Uniform(100);
    key = KeyOf(id);
    bool ok = true;
    uint64_t t0;
    uint64_t op_bytes;
    if (pick < 90) {
      ValueOf(config.seed, id, versions[id], kValueSize, &value);
      t0 = NowNanos();
      fcae::Status s;
      {
        Span span(kGet);
        s = db->Get(read_options, key, &got);
      }
      now = NowNanos();
      get_latency.Add((now - t0) / 1e3);
      ok = s.ok() && got == value;
      op_bytes = key.size() + got.size();
    } else if (pick < 95) {
      const uint64_t nexts = 1 + rng.Uniform(50);
      uint64_t entries = 0;
      t0 = NowNanos();
      {
        Span span(kScan);
        std::unique_ptr<fcae::Iterator> it(db->NewIterator(read_options));
        it->Seek(key);
        for (uint64_t j = id; j <= id + nexts && ok; j++) {
          if (j >= kKeys) {
            ok = !it->Valid();
            break;
          }
          ValueOf(config.seed, j, versions[j], kValueSize, &value);
          ok = it->Valid() && it->key() == fcae::Slice(KeyOf(j)) &&
               it->value() == fcae::Slice(value);
          entries++;
          if (j < id + nexts) it->Next();
        }
        ok = ok && it->status().ok();
      }
      now = NowNanos();
      scan_latency.Add((now - t0) / 1e3);
      op_bytes = entries * (kKeySize + kValueSize);
    } else {
      ValueOf(config.seed, id, versions[id] + 1, kValueSize, &value);
      t0 = NowNanos();
      fcae::Status s;
      {
        Span span(kPut);
        s = db->Put(write_options, key, value);
      }
      now = NowNanos();
      put_latency.Add((now - t0) / 1e3);
      ok = s.ok();
      if (ok) versions[id]++;
      op_bytes = key.size() + value.size();
    }
    all_latency.Add((now - t0) / 1e3);
    windows.Add(now, (now - t0) / 1e3, op_bytes);
    user_bytes += op_bytes;
    result.Check(ok);
  }
  windows.Finish(now);
  const double run_s = (now - start) / 1e9;
  result.Check(r->events.background_errors.load() == 0);

  result.end_to_end = {
      {"throughput_mbps", "MB/s", windows.MBPerSecond()},
      {"latency_p50_us", "us", windows.P50()},
      {"latency_p99_us", "us", windows.P99()},
      {"setup_s", "s", Median(setup_s)},
  };
  result.report = {
      {"peak_rss_mb", "MB", PeakRssMb()},
      {"ops_per_s", "1/s", all_latency.size() / run_s},
      {"throughput_mbps", "MB/s", user_bytes / 1e6 / run_s},
  };
  ReportLatency("get", get_latency, &result);
  ReportLatency("scan", scan_latency, &result);
  ReportLatency("put", put_latency, &result);

  if (config.trace) {
    LayerSources sources;
    sources.events = &r->events;
    sources.puts = put_latency.size();
    sources.gets = get_latency.size();
    sources.scans = scan_latency.size();
    AddLayerMetrics(sources, &result);
  }
  return result;
}

}  // namespace perfbench
