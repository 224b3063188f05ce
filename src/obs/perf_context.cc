#include "obs/perf_context.h"

#include <cstdio>

#include "obs/trace.h"

namespace fcae {
namespace obs {

void SetPerfLevel(PerfLevel level) {
  perf_internal::tls_perf_level = level;
}

uint64_t PerfNowMicros() { return TraceNowMicros(); }

void PerfContext::Reset() { *this = PerfContext(); }

void IOStatsContext::Reset() { *this = IOStatsContext(); }

namespace {

void AppendField(std::string* out, const char* name, uint64_t value) {
  if (value == 0) {
    return;
  }
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%s%s=%llu", out->empty() ? "" : " ", name,
                static_cast<unsigned long long>(value));
  out->append(buf);
}

}  // namespace

std::string PerfContext::ToString() const {
  std::string out;
  AppendField(&out, "bloom_filter_hits", bloom_filter_hits);
  AppendField(&out, "bloom_filter_negatives", bloom_filter_negatives);
  AppendField(&out, "block_cache_hits", block_cache_hits);
  AppendField(&out, "block_cache_misses", block_cache_misses);
  AppendField(&out, "block_read_count", block_read_count);
  AppendField(&out, "block_read_bytes", block_read_bytes);
  AppendField(&out, "block_read_micros", block_read_micros);
  AppendField(&out, "memtable_probes", memtable_probes);
  AppendField(&out, "immutable_memtable_probes", immutable_memtable_probes);
  AppendField(&out, "sst_probes", sst_probes);
  AppendField(&out, "table_cache_hits", table_cache_hits);
  AppendField(&out, "table_cache_misses", table_cache_misses);
  AppendField(&out, "internal_keys_skipped", internal_keys_skipped);
  AppendField(&out, "merge_iterator_seeks", merge_iterator_seeks);
  AppendField(&out, "wal_appends", wal_appends);
  AppendField(&out, "wal_append_micros", wal_append_micros);
  AppendField(&out, "wal_syncs", wal_syncs);
  AppendField(&out, "wal_sync_micros", wal_sync_micros);
  AppendField(&out, "write_delays", write_delays);
  AppendField(&out, "write_delay_micros", write_delay_micros);
  AppendField(&out, "write_stops", write_stops);
  AppendField(&out, "write_stop_micros", write_stop_micros);
  AppendField(&out, "offload_queue_wait_micros", offload_queue_wait_micros);
  AppendField(&out, "offload_device_attempts", offload_device_attempts);
  AppendField(&out, "offload_device_micros", offload_device_micros);
  AppendField(&out, "offload_verify_micros", offload_verify_micros);
  AppendField(&out, "offload_cpu_fallbacks", offload_cpu_fallbacks);
  AppendField(&out, "offload_cpu_fallback_micros",
              offload_cpu_fallback_micros);
  return out;
}

std::string IOStatsContext::ToString() const {
  std::string out;
  AppendField(&out, "bytes_read", bytes_read);
  AppendField(&out, "bytes_written", bytes_written);
  AppendField(&out, "read_micros", read_micros);
  AppendField(&out, "write_micros", write_micros);
  AppendField(&out, "sync_micros", sync_micros);
  return out;
}

}  // namespace obs
}  // namespace fcae
