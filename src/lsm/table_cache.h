#ifndef FCAE_LSM_TABLE_CACHE_H_
#define FCAE_LSM_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "table/table.h"
#include "util/cache.h"
#include "util/env.h"
#include "util/options.h"

namespace fcae {

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// Caches open SSTable readers (file handle + index block) keyed by file
/// number. Thread-safe: all state lives behind the internal Cache,
/// which carries its own annotated mutex (util/cache.cc), so callers —
/// reader threads, the compaction thread, and the offload executor's
/// post-assembly readability check — need no external lock and
/// TableCache itself needs no capability annotations.
class TableCache {
 public:
  TableCache(const std::string& dbname, const Options& options, int entries);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  ~TableCache() = default;

  /// Returns an iterator for the specified file number (which must have
  /// the given file_size). If tableptr is non-null, sets *tableptr to
  /// the underlying Table (owned by the cache; valid while the iterator
  /// lives).
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size, Table** tableptr = nullptr);

  /// If a seek to internal key `k` in the specified file finds an entry,
  /// calls (*handle_result)(arg, found_key, found_value).
  Status Get(const ReadOptions& options, uint64_t file_number,
             uint64_t file_size, const Slice& k, void* arg,
             void (*handle_result)(void*, const Slice&, const Slice&));

  /// Evicts any entry for the specified file number.
  void Evict(uint64_t file_number);

  /// Publishes the open-file budget into `registry` (borrowed; must
  /// outlive the cache): the table-cache capacity and open-table
  /// gauges and the hit/miss counters. The capacity — derived
  /// from Options::max_open_files — is the DB's descriptor budget:
  /// the LRU evicts (closing the file) before ever exceeding it.
  void SetMetricsRegistry(obs::MetricsRegistry* registry);

  /// Open SSTable readers held right now (each pins one descriptor).
  size_t OpenTableCount() const { return cache_->TotalCharge(); }

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size,
                   Cache::Handle** handle);

  Env* const env_;
  const std::string dbname_;
  const Options& options_;
  const int capacity_;
  std::unique_ptr<Cache> cache_;
  obs::MetricsRegistry* metrics_ = nullptr;  // Borrowed; may be null.
};

}  // namespace fcae

#endif  // FCAE_LSM_TABLE_CACHE_H_
