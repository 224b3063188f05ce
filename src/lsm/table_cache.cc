#include "lsm/table_cache.h"

#include "lsm/filename.h"
#include "obs/metrics.h"
#include "obs/perf_context.h"
#include "util/coding.h"

namespace fcae {

namespace {

struct TableAndFile {
  RandomAccessFile* file;
  Table* table;
};

void DeleteEntry(const Slice& key, void* value) {
  TableAndFile* tf = reinterpret_cast<TableAndFile*>(value);
  delete tf->table;
  delete tf->file;
  delete tf;
}

void UnrefEntry(void* arg1, void* arg2) {
  Cache* cache = reinterpret_cast<Cache*>(arg1);
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(arg2);
  cache->Release(h);
}

}  // namespace

TableCache::TableCache(const std::string& dbname, const Options& options,
                       int entries)
    : env_(options.env),
      dbname_(dbname),
      options_(options),
      capacity_(entries),
      cache_(NewLRUCache(entries)) {}

void TableCache::SetMetricsRegistry(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  if (metrics_ != nullptr) metrics_->db_table_cache_capacity.Set(capacity_);
}

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             Cache::Handle** handle) {
  Status s;
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle != nullptr) {
    FCAE_PERF_COUNT(table_cache_hits, 1);
    if (metrics_ != nullptr) metrics_->db_table_cache_hits.Increment();
  }
  if (*handle == nullptr) {
    FCAE_PERF_COUNT(table_cache_misses, 1);
    if (metrics_ != nullptr) metrics_->db_table_cache_misses.Increment();
    std::string fname = TableFileName(dbname_, file_number);
    RandomAccessFile* file = nullptr;
    Table* table = nullptr;
    s = env_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      s = Table::Open(options_, file, file_size, &table);
    }

    if (!s.ok()) {
      assert(table == nullptr);
      delete file;
      // We do not cache error results so that if the error is transient,
      // or somebody repairs the file, we recover automatically.
    } else {
      TableAndFile* tf = new TableAndFile;
      tf->file = file;
      tf->table = table;
      *handle = cache_->Insert(key, tf, 1, &DeleteEntry);
      if (metrics_ != nullptr) {
        // The insert may have evicted (and closed) the LRU victim: the
        // gauge tracks descriptors actually held, never past capacity_.
        metrics_->db_table_cache_open_tables.Set(
            static_cast<int64_t>(OpenTableCount()));
      }
    }
  }
  return s;
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  uint64_t file_number, uint64_t file_size,
                                  Table** tableptr) {
  if (tableptr != nullptr) {
    *tableptr = nullptr;
  }

  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Table* table = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
  Iterator* result = table->NewIterator(options);
  result->RegisterCleanup(&UnrefEntry, cache_.get(), handle);
  if (tableptr != nullptr) {
    *tableptr = table;
  }
  return result;
}

Status TableCache::Get(const ReadOptions& options, uint64_t file_number,
                       uint64_t file_size, const Slice& k, void* arg,
                       void (*handle_result)(void*, const Slice&,
                                             const Slice&)) {
  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (s.ok()) {
    Table* t = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
    s = t->InternalGet(options, k, arg, handle_result);
    cache_->Release(handle);
  }
  return s;
}

void TableCache::Evict(uint64_t file_number) {
  char buf[sizeof(file_number)];
  EncodeFixed64(buf, file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
  if (metrics_ != nullptr) {
    metrics_->db_table_cache_open_tables.Set(
        static_cast<int64_t>(OpenTableCount()));
  }
}

}  // namespace fcae
