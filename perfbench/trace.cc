#include "trace.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

constexpr size_t kMaxExportedSpans = 50000;

struct Frame {
  int layer;
  uint64_t start_ns;
  uint64_t child_ns;
  uint64_t id;
  uint64_t parent;
};

struct ExportedSpan {
  int layer;
  uint32_t tid;
  uint64_t start_ns;
  uint64_t dur_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t op;
};

struct AtomicTotals {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> total_ns{0};
  std::atomic<uint64_t> self_ns{0};
};

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_counters[kNumLayers][kNumCounters];
AtomicTotals g_totals[kNumLayers][kNumLayers];
std::atomic<uint64_t> g_next_span_id{1};
std::atomic<uint32_t> g_next_tid{1};
std::atomic<uint64_t> g_epoch_ns{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<uint64_t> g_export_slots{0};

std::mutex g_export_mu;
std::vector<ExportedSpan> g_exported;  // Guarded by g_export_mu.

thread_local std::vector<Frame> t_stack;
thread_local uint32_t t_tid = 0;

uint32_t ThreadId() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

int CurrentContext() {
  return t_stack.empty() ? kBackground : t_stack.front().layer;
}

void Record(int context, int layer, uint64_t start_ns, uint64_t dur_ns,
            uint64_t self_ns, uint64_t id, uint64_t parent, uint64_t op) {
  AtomicTotals& t = g_totals[context][layer];
  t.count.fetch_add(1, std::memory_order_relaxed);
  t.total_ns.fetch_add(dur_ns, std::memory_order_relaxed);
  t.self_ns.fetch_add(self_ns, std::memory_order_relaxed);

  if (g_export_slots.fetch_add(1, std::memory_order_relaxed) >=
      kMaxExportedSpans) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(g_export_mu);
  g_exported.push_back(
      {layer, ThreadId(), start_ns, dur_ns, id, parent, op});
}

}  // namespace

const char* LayerName(int layer) {
  static const char* const kNames[kNumLayers] = {
      "background",     "put",          "get",
      "scan",           "job",          "wal_append",
      "table_append",   "manifest_append", "file_sync",
      "file_read",      "cache_lookup", "cache_insert",
      "filter_probe",   "compaction_exec", "stage",
      "device",         "verify",       "assemble",
      "cpu_merge",      "flush_job",    "compaction_job"};
  return layer >= 0 && layer < kNumLayers ? kNames[layer] : "?";
}

void ResetRecorder(bool tracing) {
  for (auto& row : g_counters) {
    for (auto& c : row) c.store(0, std::memory_order_relaxed);
  }
  for (auto& row : g_totals) {
    for (auto& t : row) {
      t.count.store(0, std::memory_order_relaxed);
      t.total_ns.store(0, std::memory_order_relaxed);
      t.self_ns.store(0, std::memory_order_relaxed);
    }
  }
  {
    std::lock_guard<std::mutex> lock(g_export_mu);
    g_exported.clear();
  }
  g_export_slots.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  g_epoch_ns.store(NowNanos(), std::memory_order_relaxed);
  g_tracing.store(tracing, std::memory_order_release);
}

bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

void Count(Counter c, uint64_t n) {
  g_counters[CurrentContext()][c].fetch_add(n, std::memory_order_relaxed);
}

uint64_t CountIn(int context, Counter c) {
  return g_counters[context][c].load(std::memory_order_relaxed);
}

uint64_t CountAll(Counter c) {
  uint64_t sum = 0;
  for (int ctx = 0; ctx < kNumLayers; ctx++) sum += CountIn(ctx, c);
  return sum;
}

LayerTotals TotalsIn(int context, int layer) {
  const AtomicTotals& t = g_totals[context][layer];
  return {t.count.load(std::memory_order_relaxed),
          t.total_ns.load(std::memory_order_relaxed),
          t.self_ns.load(std::memory_order_relaxed)};
}

LayerTotals TotalsAll(int layer) {
  LayerTotals sum;
  for (int ctx = 0; ctx < kNumLayers; ctx++) {
    const LayerTotals t = TotalsIn(ctx, layer);
    sum.count += t.count;
    sum.total_ns += t.total_ns;
    sum.self_ns += t.self_ns;
  }
  return sum;
}

void RecordSpan(int layer, uint64_t start_ns, uint64_t end_ns) {
  if (!Tracing()) return;
  const uint64_t dur = end_ns > start_ns ? end_ns - start_ns : 0;
  const uint64_t id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  Record(layer, layer, start_ns, dur, dur, id, 0, id);
}

Span::Span(int layer) : active_(Tracing()) {
  if (!active_) return;
  const uint64_t id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  const uint64_t parent = t_stack.empty() ? 0 : t_stack.back().id;
  t_stack.push_back({layer, NowNanos(), 0, id, parent});
}

Span::~Span() {
  if (!active_) return;
  const uint64_t end_ns = NowNanos();
  const Frame f = t_stack.back();
  t_stack.pop_back();
  const uint64_t dur = end_ns - f.start_ns;
  const uint64_t self = dur > f.child_ns ? dur - f.child_ns : 0;
  int context = f.layer;
  uint64_t op = f.id;
  if (!t_stack.empty()) {
    t_stack.back().child_ns += dur;
    context = t_stack.front().layer;
    op = t_stack.front().id;
  }
  Record(context, f.layer, f.start_ns, dur, self, f.id, f.parent, op);
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t epoch = g_epoch_ns.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_export_mu);
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < g_exported.size(); i++) {
    const ExportedSpan& s = g_exported[i];
    const double ts =
        s.start_ns >= epoch ? (s.start_ns - epoch) / 1e3 : 0.0;
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu}}%s\n",
                 LayerName(s.layer), s.tid, ts, s.dur_ns / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op),
                 i + 1 < g_exported.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

uint64_t DroppedSpans() { return g_dropped.load(std::memory_order_relaxed); }

std::string SelfTimeTable() {
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-16s %-16s %10s %14s %14s\n",
                "context", "layer", "count", "total_us", "self_us");
  out += line;
  for (int ctx = 0; ctx < kNumLayers; ctx++) {
    for (int layer = 0; layer < kNumLayers; layer++) {
      const LayerTotals t = TotalsIn(ctx, layer);
      if (t.count == 0) continue;
      std::snprintf(line, sizeof(line), "%-16s %-16s %10llu %14.1f %14.1f\n",
                    LayerName(ctx), LayerName(layer),
                    static_cast<unsigned long long>(t.count),
                    t.total_ns / 1e3, t.self_ns / 1e3);
      out += line;
    }
  }
  return out;
}

}  // namespace perfbench
