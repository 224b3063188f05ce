#include "lsm/db_impl.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lsm/builder.h"
#include "lsm/db_iter.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/memtable.h"
#include "lsm/table_cache.h"
#include "lsm/version_set.h"
#include "lsm/write_batch.h"
#include "obs/logger.h"
#include "obs/perf_context.h"
#include "table/iterator.h"
#include "table/merger.h"
#include "table/table_verifier.h"
#include "util/coding.h"
#include "util/crash_env.h"

namespace fcae {

const int kNumNonTableCacheFiles = 10;

// Information kept for every waiting writer.
struct DBImpl::Writer {
  explicit Writer(Mutex* mu)
      : batch(nullptr), sync(false), done(false), cv(mu) {}

  Status status;
  WriteBatch* batch;
  bool sync;
  bool done;
  CondVar cv;
};

namespace {

template <class T, class V>
static void ClipToRange(T* ptr, V minvalue, V maxvalue) {
  if (static_cast<V>(*ptr) > maxvalue) *ptr = maxvalue;
  if (static_cast<V>(*ptr) < minvalue) *ptr = minvalue;
}

// Appends printf-formatted text to *out, growing the string as needed so
// long counter lines can never truncate (unlike a fixed char buffer).
void AppendF(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  char fixed[256];
  int needed = std::vsnprintf(fixed, sizeof(fixed), format, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return;
  }
  if (static_cast<size_t>(needed) < sizeof(fixed)) {
    out->append(fixed, static_cast<size_t>(needed));
  } else {
    std::string big(static_cast<size_t>(needed) + 1, '\0');
    std::vsnprintf(&big[0], big.size(), format, args_copy);
    big.resize(static_cast<size_t>(needed));
    out->append(big);
  }
  va_end(args_copy);
}

}  // namespace

Options SanitizeOptions(const std::string& dbname,
                        const InternalKeyComparator* icmp,
                        const InternalFilterPolicy* ipolicy,
                        const Options& src) {
  Options result = src;
  result.comparator = icmp;
  result.filter_policy = (src.filter_policy != nullptr) ? ipolicy : nullptr;
  ClipToRange(&result.max_open_files, 64 + kNumNonTableCacheFiles, 50000);
  ClipToRange(&result.write_buffer_size, 64 << 10, 1 << 30);
  ClipToRange(&result.max_file_size, 1 << 20, 1 << 30);
  ClipToRange(&result.block_size, 1 << 10, 4 << 20);
  ClipToRange(&result.leveling_ratio, 2, 100);
  ClipToRange(&result.compaction_threads, 1, 16);
  ClipToRange(&result.max_subcompactions, 1, 16);
  ClipToRange(&result.num_offload_cards, 1, 16);
  if (result.max_manifest_file_size > 0) {
    ClipToRange(&result.max_manifest_file_size, size_t{4} << 10,
                size_t{1} << 30);
  }
  // Write-stall triggers: 0 means the classic LevelDB defaults. Keep
  // compaction trigger < slowdown < stop, whatever the caller passed.
  if (result.l0_slowdown_writes_trigger <= 0) {
    result.l0_slowdown_writes_trigger = kL0SlowdownWritesTrigger;
  }
  ClipToRange(&result.l0_slowdown_writes_trigger, kL0CompactionTrigger + 1,
              1000);
  if (result.l0_stop_writes_trigger <= 0) {
    result.l0_stop_writes_trigger = kL0StopWritesTrigger;
  }
  if (result.l0_stop_writes_trigger <= result.l0_slowdown_writes_trigger) {
    result.l0_stop_writes_trigger = result.l0_slowdown_writes_trigger + 1;
  }
  // The global memtable budget must fit one rotation (live + immutable
  // both at write_buffer_size) or every rotation would stop writers.
  if (result.total_write_buffer_size > 0 &&
      result.total_write_buffer_size < 2 * result.write_buffer_size) {
    result.total_write_buffer_size = 2 * result.write_buffer_size;
  }
  if (result.rate_limiter == nullptr && result.rate_limit_bytes_per_sec > 0) {
    // DBImpl detects the substitution (result != src) and owns it.
    result.rate_limiter =
        new RateLimiter(result.env, result.rate_limit_bytes_per_sec);
  }
  // A tiny trace ring would evict a span mid-compaction; 16 is enough
  // for eviction tests while keeping at least one job's spans visible.
  ClipToRange(&result.trace_ring_size, size_t{16}, size_t{1} << 20);
  ClipToRange(&result.stats_dump_period_sec, 0u, 86400u);
  // Sub-minute scrub cycles would just re-read the same tables in a
  // loop on small DBs; tests needing determinism use DB::ScrubNow().
  if (result.scrub_interval_seconds > 0) {
    ClipToRange(&result.scrub_interval_seconds, 60u, 86400u * 30u);
  }
  return result;
}

/// Maps the sanitized Options onto the WriteController's knobs. The
/// pending-bytes band is derived, not user-facing: debt starts at 64 MB
/// of backlog (or 16 memtables for small-buffer test configs, whichever
/// is larger) and saturates at 4x that, far above anything the tiered
/// shape accumulates in steady state.
static WriteControllerConfig WriteControllerConfigFor(
    const Options& options) {
  WriteControllerConfig config;
  config.l0_slowdown_trigger = options.l0_slowdown_writes_trigger;
  config.l0_stop_trigger = options.l0_stop_writes_trigger;
  config.total_write_buffer_size = options.total_write_buffer_size;
  config.soft_pending_compaction_bytes =
      std::max<uint64_t>(64ull << 20, 16ull * options.write_buffer_size);
  config.hard_pending_compaction_bytes =
      4 * config.soft_pending_compaction_bytes;
  return config;
}

static int TableCacheSize(const Options& sanitized_options) {
  // Reserve a few files for other uses and give the rest to TableCache.
  return sanitized_options.max_open_files - kNumNonTableCacheFiles;
}

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname)
    : env_(raw_options.env),
      internal_comparator_(raw_options.comparator),
      internal_filter_policy_(raw_options.filter_policy),
      options_(SanitizeOptions(dbname, &internal_comparator_,
                               &internal_filter_policy_, raw_options)),
      dbname_(dbname),
      table_cache_(
          new TableCache(dbname_, options_, TableCacheSize(options_))),
      owned_cpu_executor_(NewCpuCompactionExecutor()),
      primary_executor_(raw_options.compaction_executor != nullptr
                            ? raw_options.compaction_executor
                            : owned_cpu_executor_.get()),
      owned_metrics_(raw_options.metrics_registry != nullptr
                         ? nullptr
                         : new obs::MetricsRegistry),
      metrics_(raw_options.metrics_registry != nullptr
                   ? raw_options.metrics_registry
                   : owned_metrics_.get()),
      trace_(options_.trace_ring_size),
      notifier_(options_.listeners),
      shutting_down_(false),
      background_work_finished_signal_(&mutex_),
      mem_(nullptr),
      imm_(nullptr),
      has_imm_(false),
      logfile_(nullptr),
      logfile_number_(0),
      log_(nullptr),
      seed_(0),
      tmp_batch_(new WriteBatch),
      manual_compaction_(nullptr),
      versions_(new VersionSet(dbname_, &options_, table_cache_.get(),
                               &internal_comparator_)),
      write_controller_(WriteControllerConfigFor(options_)),
      owns_rate_limiter_(options_.rate_limiter != raw_options.rate_limiter) {
  trace_.set_sink(options_.trace_sink);
  scheduler_ = std::make_unique<CompactionScheduler>(
      env_, &background_work_finished_signal_, options_.compaction_threads,
      metrics_);
  // First periodic scrub fires one interval after open, not at open.
  last_scrub_micros_ = env_->NowMicros();
  table_cache_->SetMetricsRegistry(metrics_);
  // Interval baseline for GetProperty("fcae.stats"): the first read
  // reports everything since open.
  stats_window_ = metrics_->TakeSnapshot();
  if (options_.stats_dump_period_sec > 0) {
    stats_dumper_ = std::make_unique<obs::StatsDumper>(
        env_, uint64_t{options_.stats_dump_period_sec} * 1000 * 1000,
        [this](uint64_t seq) { DumpStats(seq); });
  }
}

DBImpl::~DBImpl() {
  // Stop the periodic stats dumper first: its callback takes mutex_
  // and reads versions_, so it must be fully out of the loop before
  // the scheduler drains and state is torn down below.
  if (stats_dumper_ != nullptr) {
    stats_dumper_->Stop();
  }

  // Wait for every dispatched flush, compaction, and resume worker to
  // drain.
  mutex_.Lock();
  shutting_down_.store(true, std::memory_order_release);
  while (scheduler_->HasBackgroundWork() || resume_scheduled_) {
    background_work_finished_signal_.Wait();
  }
  mutex_.Unlock();

  delete versions_;
  if (db_lock_ != nullptr) {
    // Shutdown path: the lock dies with the process either way.
    env_->UnlockFile(db_lock_).IgnoreError();
  }
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
  delete tmp_batch_;
  delete log_;
  delete logfile_;
  if (owns_rate_limiter_) delete options_.rate_limiter;

  // The point-in-time gauges describe this DB's state, so they end with
  // it: a registry shared across reopens must not show the next DB a
  // closed one's quarantine, write-controller state or open tables.
  metrics_->integrity_quarantined_files.Set(0);
  metrics_->wc_state.Set(0);
  metrics_->db_table_cache_open_tables.Set(0);
}

Status DBImpl::NewDB() {
  VersionEdit new_db;
  new_db.SetComparatorName(user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);

  const std::string manifest = DescriptorFileName(dbname_, 1);
  WritableFile* file;
  Status s = env_->NewWritableFile(manifest, &file);
  if (!s.ok()) {
    return s;
  }
  {
    log::Writer log(file);
    std::string record;
    new_db.EncodeTo(&record);
    s = log.AddRecord(record);
    if (s.ok()) {
      // fcae-check: allow(crash-point): pre-DB bootstrap, fresh-open retry
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
  }
  delete file;
  if (s.ok()) {
    // Make "CURRENT" file that points to the new manifest file.
    s = SetCurrentFile(env_, dbname_, 1);
  } else {
    // Best-effort: the failed bootstrap manifest is junk either way.
    env_->RemoveFile(manifest).IgnoreError();
  }
  return s;
}

void DBImpl::MaybeIgnoreError(Status* s) const {
  if (s->ok() || options_.paranoid_checks) {
    // No change needed.
  } else {
    *s = Status::OK();
  }
}

void DBImpl::RemoveObsoleteFiles() {
  // Requires mutex_ held.
  if (!bg_error_.ok()) {
    // After a background error, we don't know whether a new version may
    // or may not have been committed, so we cannot safely garbage
    // collect.
    return;
  }

  // Make a set of all of the live files.
  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames;
  // Best-effort listing: on failure we simply skip this GC round.
  env_->GetChildren(dbname_, &filenames).IgnoreError();
  uint64_t number;
  FileType type;
  std::vector<std::string> files_to_delete;
  for (std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      bool keep = true;
      switch (type) {
        case FileType::kLogFile:
          keep = ((number >= versions_->LogNumber()));
          break;
        case FileType::kDescriptorFile:
          // Keep my manifest file, and any newer incarnations' (in case
          // there is a race that allows other incarnations).
          keep = (number >= versions_->ManifestFileNumber());
          break;
        case FileType::kTableFile:
          keep = (live.find(number) != live.end());
          break;
        case FileType::kTempFile:
          // Any temp files that are currently being written to must be
          // recorded in pending_outputs_, which is inserted into "live".
          keep = (live.find(number) != live.end());
          break;
        case FileType::kCurrentFile:
        case FileType::kDBLockFile:
        case FileType::kInfoLogFile:
          keep = true;
          break;
      }

      if (!keep) {
        files_to_delete.push_back(std::move(filename));
        if (type == FileType::kTableFile) {
          table_cache_->Evict(number);
        }
      }
    }
  }

  // While deleting all files unblock other threads. All files being
  // deleted have unique names which will not collide with newly created
  // files and are therefore safe to delete while allowing other threads
  // to proceed.
  mutex_.Unlock();
  for (const std::string& filename : files_to_delete) {
    // Best-effort: a file that survives this round is retried on the
    // next RemoveObsoleteFiles pass.
    env_->RemoveFile(dbname_ + "/" + filename).IgnoreError();
  }
  mutex_.Lock();
}

Status DBImpl::Recover(VersionEdit* edit, bool* save_manifest) {
  // Requires mutex_ held.

  // Ignore error from CreateDir since the creation of the DB is
  // committed only when the descriptor is created.
  env_->CreateDir(dbname_).IgnoreError();
  assert(db_lock_ == nullptr);
  Status lock_status = env_->LockFile(LockFileName(dbname_), &db_lock_);
  if (!lock_status.ok()) {
    return lock_status;
  }

  if (!env_->FileExists(CurrentFileName(dbname_))) {
    if (options_.create_if_missing) {
      Status s = NewDB();
      if (!s.ok()) {
        return s;
      }
    } else {
      return Status::InvalidArgument(
          dbname_, "does not exist (create_if_missing is false)");
    }
  } else {
    if (options_.error_if_exists) {
      return Status::InvalidArgument(dbname_,
                                     "exists (error_if_exists is true)");
    }
  }

  Status s = versions_->Recover(save_manifest);
  if (!s.ok()) {
    return s;
  }
  SequenceNumber max_sequence(0);

  // Recover from all newer log files than the ones named in the
  // descriptor (new log files may have been added by the previous
  // incarnation without registering them in the descriptor).
  const uint64_t min_log = versions_->LogNumber();
  std::vector<std::string> filenames;
  s = env_->GetChildren(dbname_, &filenames);
  if (!s.ok()) {
    return s;
  }
  std::set<uint64_t> expected;
  versions_->AddLiveFiles(&expected);
  uint64_t number;
  FileType type;
  std::vector<uint64_t> logs;
  for (size_t i = 0; i < filenames.size(); i++) {
    if (ParseFileName(filenames[i], &number, &type)) {
      expected.erase(number);
      if (type == FileType::kLogFile && (number >= min_log)) {
        logs.push_back(number);
      }
    }
  }
  if (!expected.empty()) {
    char buf[50];
    std::snprintf(buf, sizeof(buf), "%d missing files; e.g.",
                  static_cast<int>(expected.size()));
    return Status::Corruption(buf, TableFileName(dbname_, *(expected.begin())));
  }

  // Recover in the order in which the logs were generated.
  std::sort(logs.begin(), logs.end());
  for (size_t i = 0; i < logs.size(); i++) {
    s = RecoverLogFile(logs[i], (i == logs.size() - 1), save_manifest, edit,
                       &max_sequence);
    if (!s.ok()) {
      return s;
    }

    // The previous incarnation may not have written any MANIFEST
    // records after allocating this log number. So we manually update
    // the file number allocation counter in VersionSet.
    versions_->MarkFileNumberUsed(logs[i]);
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }

  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, bool last_log,
                              bool* save_manifest, VersionEdit* edit,
                              SequenceNumber* max_sequence) {
  struct LogReporter : public log::Reader::Reporter {
    const char* fname;
    Status* status;  // null if options_.paranoid_checks==false
    obs::MetricsRegistry* metrics;
    void Corruption(size_t bytes, const Status& s) override {
      std::fprintf(stderr, "%s: dropping %d bytes; %s\n", fname,
                   static_cast<int>(bytes), s.ToString().c_str());
      // Replay drops are data loss the client already survived a crash
      // for; surface them so operators see how much the WAL gave up.
      metrics->wal_corruption_records.Increment();
      metrics->wal_corruption_bytes.Increment(static_cast<uint64_t>(bytes));
      if (this->status != nullptr && this->status->ok()) *this->status = s;
    }
  };

  // Requires mutex_ held.

  // Open the log file.
  std::string fname = LogFileName(dbname_, log_number);
  SequentialFile* file;
  Status status = env_->NewSequentialFile(fname, &file);
  if (!status.ok()) {
    MaybeIgnoreError(&status);
    return status;
  }

  // Create the log reader.
  LogReporter reporter;
  reporter.fname = fname.c_str();
  reporter.status = (options_.paranoid_checks ? &status : nullptr);
  reporter.metrics = metrics_;
  // We intentionally make log::Reader do checksumming even if
  // paranoid_checks==false so that corruptions cause entire commits
  // to be skipped instead of propagating bad information.
  log::Reader reader(file, &reporter, true /*checksum*/);
  std::string scratch;
  Slice record;
  WriteBatch batch;
  int compactions = 0;
  MemTable* mem = nullptr;
  while (reader.ReadRecord(&record, &scratch) && status.ok()) {
    if (record.size() < 12) {
      reporter.Corruption(record.size(),
                          Status::Corruption("log record too small"));
      continue;
    }
    WriteBatchInternal::SetContents(&batch, record);

    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_);
      mem->Ref();
    }
    status = WriteBatchInternal::InsertInto(&batch, mem);
    MaybeIgnoreError(&status);
    if (!status.ok()) {
      break;
    }
    const SequenceNumber last_seq = WriteBatchInternal::Sequence(&batch) +
                                    WriteBatchInternal::Count(&batch) - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      compactions++;
      *save_manifest = true;
      status = WriteLevel0Table(mem, edit, nullptr, nullptr, nullptr);
      mem->Unref();
      mem = nullptr;
      if (!status.ok()) {
        // Reflect errors immediately so that conditions like full
        // file-systems cause the DB::Open() to fail.
        break;
      }
    }
  }

  delete file;

  // If we flushed nothing and this is the last log, reuse it as the
  // current memtable? (LevelDB optionally reuses; we always switch to a
  // fresh log on open for simplicity.)
  if (status.ok() && mem != nullptr) {
    *save_manifest = true;
    status = WriteLevel0Table(mem, edit, nullptr, nullptr, nullptr);
  }
  if (mem != nullptr) mem->Unref();

  (void)last_log;
  (void)compactions;
  return status;
}

Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit, Version* base,
                                uint64_t* pending_file, int* reserved_level,
                                obs::FlushJobInfo* flush_info) {
  // Requires mutex_ held.
  const uint64_t start_micros = env_->NowMicros();
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  pending_outputs_.insert(meta.number);
  Iterator* iter = mem->NewIterator();

  Status s;
  {
    mutex_.Unlock();
    s = BuildTable(dbname_, env_, options_, table_cache_.get(), iter, &meta);
    mutex_.Lock();
  }

  delete iter;
  if (pending_file != nullptr) {
    // Keep the file protected until the caller installs the edit: a
    // concurrent worker's RemoveObsoleteFiles (run while LogAndApply
    // drops the mutex for the MANIFEST write) must not delete it.
    *pending_file = meta.number;
  } else {
    pending_outputs_.erase(meta.number);
  }

  // Note that if file_size is zero, the file has been deleted and
  // should not be added to the manifest.
  int level = 0;
  if (s.ok() && meta.file_size > 0) {
    const Slice min_user_key = meta.smallest.user_key();
    const Slice max_user_key = meta.largest.user_key();
    if (base != nullptr) {
      level = base->PickLevelForMemTableOutput(min_user_key, max_user_key);
      if (reserved_level != nullptr) {
        // Never install into a level an in-flight compaction occupies:
        // the file set of a level>0 must stay sorted and disjoint. Fall
        // back toward L0 (always legal) and hold the reservation so a
        // new compaction cannot claim the level before we install.
        while (level > 0 && !scheduler_->FlushLevelFree(level)) {
          level--;
        }
        if (level > 0) {
          scheduler_->ReserveFlushLevel(level);
          *reserved_level = level;
        }
      }
    }
    edit->AddFile(level, meta);  // Carries the flush-time checksum.
  }

  CompactionStats stats;
  stats.micros = env_->NowMicros() - start_micros;
  stats.bytes_written = meta.file_size;
  stats_[level].Add(stats);

  metrics_->db_flush_count.Increment();
  metrics_->db_flush_bytes_written.Increment(meta.file_size);
  metrics_->db_flush_micros.Observe(static_cast<double>(stats.micros));
  if (flush_info != nullptr) {
    flush_info->output_file_number = meta.number;
    flush_info->output_bytes = meta.file_size;
    flush_info->micros = static_cast<uint64_t>(stats.micros);
  }
  return s;
}

void DBImpl::CompactMemTable() {
  // Requires mutex_ held.
  assert(imm_ != nullptr);

  // Flushes run on the dedicated flush lane (trace track 0, shared with
  // the picker); they never overlap each other.
  obs::SpanTimer flush_span(&trace_, "flush", "db", 0);

  obs::FlushJobInfo flush_info;
  flush_info.db_name = dbname_;
  NotifyFlushEvent(/*begin=*/true, flush_info);
  // NotifyFlushEvent dropped the mutex; the single flush lane keeps
  // imm_ set until this function clears it, so the flush target is
  // still valid after the reacquire.
  assert(imm_ != nullptr);

  // Save the contents of the memtable as a new Table.
  VersionEdit edit;
  Version* base = versions_->current();
  base->Ref();
  uint64_t pending_file = 0;
  int reserved_level = 0;
  Status s = WriteLevel0Table(imm_, &edit, base, &pending_file,
                              &reserved_level, &flush_info);
  base->Unref();

  if (s.ok() && shutting_down_.load(std::memory_order_acquire)) {
    s = Status::IOError("Deleting DB during memtable compaction");
  }

  // Replace immutable memtable with the generated Table.
  if (s.ok()) {
    edit.SetLogNumber(logfile_number_);  // Earlier logs no longer needed.
    s = LogAndApplyLocked(&edit);
  }

  // The table is live (or dead) either way now; drop its protections.
  if (reserved_level > 0) {
    scheduler_->ReleaseFlushLevel(reserved_level);
  }
  if (pending_file != 0) {
    pending_outputs_.erase(pending_file);
  }

  if (s.ok()) {
    // Commit to the new state.
    imm_->Unref();
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    RemoveObsoleteFiles();
  } else {
    RecordBackgroundError(s);
  }

  flush_info.status = s;
  NotifyFlushEvent(/*begin=*/false, flush_info);
}

void DBImpl::TEST_CompactRange(int level, const Slice* begin,
                               const Slice* end) {
  assert(level >= 0);
  assert(level + 1 < kNumLevels);

  InternalKey begin_storage, end_storage;

  ManualCompaction manual;
  manual.level = level;
  manual.done = false;
  manual.in_progress = false;
  if (begin == nullptr) {
    manual.begin = nullptr;
  } else {
    begin_storage = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    manual.begin = &begin_storage;
  }
  if (end == nullptr) {
    manual.end = nullptr;
  } else {
    end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
    manual.end = &end_storage;
  }

  MutexLock l(&mutex_);
  while (!manual.done && !shutting_down_.load(std::memory_order_acquire) &&
         bg_error_.ok()) {
    if (manual_compaction_ == nullptr) {  // Idle.
      manual_compaction_ = &manual;
      MaybeScheduleCompaction();
    } else {  // Running either my compaction or another compaction.
      background_work_finished_signal_.Wait();
    }
  }
  // Finish the in-flight pass in the case where a worker still holds
  // `manual` (it clears in_progress — and the slot — when it is done
  // touching the struct).
  while (manual_compaction_ == &manual && manual.in_progress) {
    background_work_finished_signal_.Wait();
  }
  if (manual_compaction_ == &manual) {
    // Cancel my manual compaction since we aborted early for some reason.
    manual_compaction_ = nullptr;
  }
}

Status DBImpl::TEST_CompactMemTable() {
  // nullptr batch means just wait for earlier writes to be done.
  Status s = Write(WriteOptions(), nullptr);
  if (s.ok()) {
    // Wait until the compaction completes.
    MutexLock l(&mutex_);
    while (imm_ != nullptr && bg_error_.ok()) {
      background_work_finished_signal_.Wait();
    }
    if (imm_ != nullptr) {
      s = bg_error_;
    }
  }
  return s;
}

void DBImpl::TEST_RemoveObsoleteFiles() {
  MutexLock l(&mutex_);
  RemoveObsoleteFiles();
}

DBImpl::BgErrorSeverity DBImpl::ClassifyBackgroundError(const Status& s) {
  if (s.ok()) {
    return BgErrorSeverity::kNone;
  }
  // Corruption-class failures poison state no retry can repair; treat
  // everything else (IOError and friends) as plausibly transient.
  if (s.IsCorruption() || s.IsNotSupported() || s.IsInvalidArgument() ||
      s.IsNotFound()) {
    return BgErrorSeverity::kHard;
  }
  return BgErrorSeverity::kSoft;
}

void DBImpl::RecordBackgroundError(const Status& s) {
  // Requires mutex_ held.
  if (s.ok()) {
    return;
  }
  if (s.IsBusy() || s.IsDeviceLost()) {
    // Transient device conditions belong to the offload path: its
    // retry/fallback machinery owns them, and surfacing them as a
    // sticky background error would wedge writers over a busy card.
    metrics_->db_bg_error_retryable_ignored.Increment();
    return;
  }
  const BgErrorSeverity severity = ClassifyBackgroundError(s);
  const bool escalates = severity == BgErrorSeverity::kHard &&
                         bg_error_severity_ != BgErrorSeverity::kHard;
  if (bg_error_.ok() || escalates) {
    bg_error_ = s;
    bg_error_severity_ = severity;
    (severity == BgErrorSeverity::kHard ? metrics_->db_bg_error_hard
                                        : metrics_->db_bg_error_soft)
        .Increment();
    trace_.RecordInstant(
        "bg_error", "db", obs::TraceNowMicros(), 0,
        {{"status", obs::TraceRecorder::Quote(s.ToString())},
         {"severity", obs::TraceRecorder::Quote(
                          severity == BgErrorSeverity::kHard ? "hard"
                                                             : "soft")}});
    // Listeners first: a waiter woken by the signal may hand the error
    // to its caller, who must then find the event already delivered.
    NotifyBackgroundErrorEvent(s, severity == BgErrorSeverity::kHard);
    background_work_finished_signal_.SignalAll();
  }
  if (bg_error_severity_ == BgErrorSeverity::kSoft) {
    ScheduleAutoResume();
  }
}

namespace {
// Auto-resume backoff: 2 ms doubling per attempt, capped at 64 ms, for
// at most 5 automatic attempts (DB::Resume() is never budget-limited).
constexpr int kMaxAutoResumeAttempts = 5;
constexpr int kResumeBackoffBaseMicros = 2000;
constexpr int kResumeBackoffCapMicros = 64000;
}  // namespace

void DBImpl::ScheduleAutoResume() {
  // Requires mutex_ held.
  if (shutting_down_.load(std::memory_order_acquire) || resume_scheduled_ ||
      resume_attempts_ >= kMaxAutoResumeAttempts) {
    return;
  }
  resume_scheduled_ = true;
  env_->SchedulePool("fcae-resume", 1, &DBImpl::BGResumeWork, this);
}

void DBImpl::BGResumeWork(void* db) {
  reinterpret_cast<DBImpl*>(db)->BackgroundResumeCall();
}

void DBImpl::BackgroundResumeCall() {
  int attempt;
  {
    MutexLock l(&mutex_);
    attempt = resume_attempts_;
  }
  int backoff = kResumeBackoffBaseMicros << std::min(attempt, 5);
  backoff = std::min(backoff, kResumeBackoffCapMicros);
  env_->SleepForMicroseconds(backoff);

  MutexLock l(&mutex_);
  resume_scheduled_ = false;
  if (!shutting_down_.load(std::memory_order_acquire) && !bg_error_.ok() &&
      bg_error_severity_ == BgErrorSeverity::kSoft &&
      resume_attempts_ < kMaxAutoResumeAttempts) {
    resume_attempts_++;
    if (!ResumeLocked().ok()) {
      ScheduleAutoResume();  // Try again with a longer backoff.
    }
  }
  background_work_finished_signal_.SignalAll();
}

Status DBImpl::ResumeLocked() {
  // Requires mutex_ held; only reached with a soft error set.
  metrics_->db_bg_error_resume_attempts.Increment();

  // Prove the storage healthy by durably installing a fresh manifest:
  // the failed incarnation may have torn the old descriptor's tail.
  versions_->ForceNewManifest();
  VersionEdit edit;
  Status s = LogAndApplyLocked(&edit);

  // Rotate the WAL for the same reason — but only when no writer holds
  // the front-writer role (log_/logfile_ are appended to without the
  // mutex under that role). The retired log stays on disk until the
  // next flush advances the version's log number, so recovery still
  // replays it.
  if (s.ok() && writers_.empty()) {
    const uint64_t new_log_number = versions_->NewFileNumber();
    WritableFile* lfile = nullptr;
    Status log_status =
        env_->NewWritableFile(LogFileName(dbname_, new_log_number), &lfile);
    if (log_status.ok()) {
      // fcae-check: allow(crash-point): resume-only edge, unreachable in matrix
      log_status = env_->SyncDir(dbname_);
    }
    if (log_status.ok()) {
      delete log_;
      delete logfile_;
      logfile_ = lfile;
      logfile_number_ = new_log_number;
      log_ = new log::Writer(lfile);
    } else {
      delete lfile;
      versions_->ReuseFileNumber(new_log_number);
      s = log_status;
    }
  }

  if (s.ok()) {
    bg_error_ = Status::OK();
    bg_error_severity_ = BgErrorSeverity::kNone;
    resume_attempts_ = 0;
    metrics_->db_bg_error_resumes.Increment();
    trace_.RecordInstant("bg_resume", "db", obs::TraceNowMicros(), 0, {});
    // Reclaim whatever the failed flush/compaction left behind (orphan
    // tables, temp files, stale logs) and restart background work.
    RemoveObsoleteFiles();
    MaybeScheduleCompaction();
    background_work_finished_signal_.SignalAll();
    NotifyResumeEvent();
  }
  return s;
}

Status DBImpl::Resume() {
  MutexLock l(&mutex_);
  if (bg_error_.ok()) {
    return Status::OK();
  }
  if (bg_error_severity_ == BgErrorSeverity::kHard) {
    return bg_error_;
  }
  return ResumeLocked();
}

void DBImpl::MaybeScheduleCompaction() {
  // Requires mutex_ held.
  if (shutting_down_.load(std::memory_order_acquire)) {
    return;  // DB is being deleted; no more background work.
  }
  if (!bg_error_.ok()) {
    return;  // Already got an error; no more changes.
  }

  // Flush lane: at most one memtable flush in flight, on its own thread
  // so compaction workers never delay it (the paper's Fig. 6 priority).
  if (imm_ != nullptr && !scheduler_->flush_scheduled()) {
    scheduler_->ScheduleFlush(&DBImpl::BGFlushWork, this);
  }

  // Scrub lane: start an integrity cycle opportunistically once the
  // configured interval has elapsed. There is no dedicated timer
  // thread — any background activity (writes, finished jobs) reaches
  // this point often enough for a wall-clock check; deterministic
  // callers use DB::ScrubNow() instead.
  if (options_.scrub_interval_seconds > 0 && !scheduler_->scrub_scheduled() &&
      !scrub_cycle_active_) {
    const uint64_t interval_micros =
        uint64_t{options_.scrub_interval_seconds} * 1000000;
    if (env_->NowMicros() - last_scrub_micros_ >= interval_micros) {
      scheduler_->ScheduleScrub(&DBImpl::BGScrubWork, this);
    }
  }

  // Compaction workers: dispatch only as many as could actually claim a
  // disjoint level pair right now. Idle already-scheduled workers count
  // against the demand so a burst of triggers does not stampede the
  // pool. Over-estimating by one (e.g. a manual pass that ends up
  // empty) is harmless: the worker finds nothing and exits. A manual
  // pass whose level pair is still busy is NOT claimable yet — counting
  // it would make every finishing worker redispatch into a futile pick
  // for as long as the blocking job runs (the finisher's own
  // MaybeScheduleCompaction re-counts it once the levels free up).
  int claimable =
      versions_->CountClaimableCompactions(scheduler_->busy_levels());
  if (manual_compaction_ != nullptr && !manual_compaction_->done &&
      !manual_compaction_->in_progress &&
      scheduler_->LevelsFree(manual_compaction_->level)) {
    claimable++;
  }
  while (scheduler_->CanScheduleCompaction() &&
         scheduler_->idle_scheduled_workers() < claimable) {
    scheduler_->ScheduleCompaction(&DBImpl::BGCompactionWork, this);
  }
}

void DBImpl::BGFlushWork(void* db) {
  reinterpret_cast<DBImpl*>(db)->BackgroundFlushCall();
}

void DBImpl::BGCompactionWork(void* db) {
  reinterpret_cast<DBImpl*>(db)->BackgroundCompactionCall();
}

void DBImpl::BGScrubWork(void* db) {
  reinterpret_cast<DBImpl*>(db)->BackgroundScrubCall();
}

void DBImpl::BackgroundScrubCall() {
  MutexLock l(&mutex_);
  assert(scheduler_->scrub_scheduled());
  if (shutting_down_.load(std::memory_order_acquire)) {
    // No more background work when shutting down.
  } else if (!bg_error_.ok()) {
    // No more background work after a background error.
  } else if (!scrub_cycle_active_) {
    // Environmental cycle errors went through RecordBackgroundError
    // already; nothing extra to do with the return here.
    RunScrubCycle().IgnoreError();
  }
  scheduler_->ScrubFinished();
  PumpRateLimiterMetrics();
  MaybeScheduleCompaction();
  background_work_finished_signal_.SignalAll();
}

Status DBImpl::ScrubNow() {
  MutexLock l(&mutex_);
  // One cycle at a time: wait out a background cycle (or another
  // ScrubNow) rather than interleaving two walks over the same tables.
  while (scheduler_->scrub_scheduled() || scrub_cycle_active_) {
    if (shutting_down_.load(std::memory_order_acquire)) {
      return Status::IOError("Shutting down");
    }
    background_work_finished_signal_.Wait();
  }
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::IOError("Shutting down");
  }
  if (!bg_error_.ok() && bg_error_severity_ == BgErrorSeverity::kHard) {
    return bg_error_;
  }
  return RunScrubCycle();
}

namespace {

// One table to verify: a value snapshot of its manifest facts, taken
// under the DB mutex so VerifyTable can run with the mutex released. By
// then the version may have moved on; callers re-check liveness before
// acting on a failure.
struct ScrubItem {
  ScrubItem(const FileMetaData& f, RateLimiter* limiter) : number(f.number) {
    spec.file_size = f.file_size;
    spec.has_file_checksum = f.has_file_checksum;
    spec.file_checksum = f.file_checksum;
    spec.smallest = f.smallest.Encode().ToString();
    spec.largest = f.largest.Encode().ToString();
    spec.rate_limiter = limiter;
  }

  uint64_t number;
  TableVerifySpec spec;
};

}  // namespace

bool DBImpl::TableIsLive(uint64_t number) {
  // Requires mutex_ held.
  Version* v = versions_->current();
  for (int level = 0; level < kNumLevels; level++) {
    for (const FileMetaData* f : v->files(level)) {
      if (f->number == number) {
        return true;
      }
    }
  }
  return false;
}

Status DBImpl::RunScrubCycle() {
  // Requires mutex_ held; drops it around all file I/O.
  assert(!scrub_cycle_active_);
  scrub_cycle_active_ = true;
  const uint64_t start_micros = env_->NowMicros();
  last_scrub_micros_ = start_micros;

  // Leftover quarantined files first: a compaction-detected corruption
  // whose repair could not run yet, or a repair that failed last cycle.
  // Repair is the only way out of quarantine.
  for (uint64_t number : versions_->quarantine()->Snapshot()) {
    if (shutting_down_.load(std::memory_order_acquire)) break;
    RepairQuarantinedFile(number);
  }

  // Every live table, shallowest level first.
  std::vector<ScrubItem> items;
  for (int level = 0; level < kNumLevels; level++) {
    for (const FileMetaData* f : versions_->current()->files(level)) {
      items.emplace_back(*f, options_.rate_limiter);
    }
  }

  obs::ScrubCycleInfo cycle;
  Status cycle_status;
  for (const ScrubItem& item : items) {
    if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
      break;
    }
    if (versions_->quarantine()->Contains(item.number)) {
      continue;  // A repair already owns it.
    }
    TableVerifyReport report;
    Status s;
    {
      mutex_.Unlock();
      s = VerifyTable(env_, options_, TableFileName(dbname_, item.number),
                      item.spec, &report);
      mutex_.Lock();
    }
    if (!s.ok() && !TableIsLive(item.number)) {
      continue;  // Compacted away while the mutex was down; stale item.
    }
    cycle.files_scanned++;
    cycle.bytes_scanned += report.bytes;
    metrics_->scrub_files_verified.Increment();
    metrics_->scrub_bytes_verified.Increment(report.bytes);
    if (s.IsCorruption()) {
      cycle.corruptions_found++;
      if (HandleCorruptTable(item.number, "scrub", s)) {
        RepairQuarantinedFile(item.number);
      }
    } else if (!s.ok()) {
      // Environmental (I/O) failure on a live table: end the cycle and
      // let the error machinery decide (soft errors auto-resume).
      cycle_status = s;
      RecordBackgroundError(s);
      break;
    }
  }

  cycle.micros = env_->NowMicros() - start_micros;
  metrics_->scrub_cycles.Increment();
  trace_.RecordInstant(
      "scrub_cycle", "db", obs::TraceNowMicros(), 0,
      {{"files", std::to_string(cycle.files_scanned)},
       {"corruptions", std::to_string(cycle.corruptions_found)}});
  if (notifier_.active()) {
    const obs::ScrubCycleInfo info = cycle;
    mutex_.Unlock();
    notifier_.NotifyScrubCompleted(info);
    mutex_.Lock();
  }
  scrub_cycle_active_ = false;
  background_work_finished_signal_.SignalAll();
  return cycle_status;
}

bool DBImpl::HandleCorruptTable(uint64_t number, const char* source,
                                const Status& s) {
  // Requires mutex_ held; drops it for listener callbacks.
  if (versions_->quarantine()->Contains(number)) {
    return false;  // Already contained; a repair owns it.
  }
  // Locate the file's current level — it may have trivially moved since
  // detection — and confirm it is still live.
  int level = -1;
  uint64_t file_size = 0;
  Version* v = versions_->current();
  for (int l = 0; l < kNumLevels && level < 0; l++) {
    for (const FileMetaData* f : v->files(l)) {
      if (f->number == number) {
        level = l;
        file_size = f->file_size;
        break;
      }
    }
  }
  if (level < 0) {
    return false;  // Compacted away in the meantime; nothing to contain.
  }
  SetQuarantined(number, true);
  metrics_->scrub_corruptions_detected.Increment();
  // Drop any cached handle so no reader keeps serving blocks cached
  // from the bad bytes before detection.
  table_cache_->Evict(number);
  trace_.RecordInstant("corruption", "db", obs::TraceNowMicros(), 0,
                       {{"file", std::to_string(number)},
                        {"level", std::to_string(level)},
                        {"source", obs::TraceRecorder::Quote(source)}});
  if (notifier_.active()) {
    obs::CorruptionInfo info;
    info.file_number = number;
    info.level = level;
    info.file_size = file_size;
    info.source = source;
    info.status = s;
    obs::FileQuarantineInfo qinfo;
    qinfo.file_number = number;
    qinfo.level = level;
    mutex_.Unlock();
    notifier_.NotifyCorruptionDetected(info);
    notifier_.NotifyFileQuarantined(qinfo);
    mutex_.Lock();
  }
  return true;
}

void DBImpl::RepairQuarantinedFile(uint64_t number) {
  // Requires mutex_ held; drops it during salvage I/O.
  if (!versions_->quarantine()->Contains(number)) {
    return;
  }
  // Locate the live entry; a file no longer in the current version has
  // nothing left to repair, so just lift the quarantine.
  int level = -1;
  FileMetaData meta;
  {
    Version* v = versions_->current();
    for (int l = 0; l < kNumLevels && level < 0; l++) {
      for (const FileMetaData* f : v->files(l)) {
        if (f->number == number) {
          level = l;
          meta = *f;
          break;
        }
      }
    }
  }
  if (level < 0) {
    SetQuarantined(number, false);
    return;
  }

  // Claim the level: no concurrent compaction, flush install, or other
  // repair may add or remove level-`level` files while the swap edit is
  // in flight. Whoever holds the level signals when it finishes.
  while (!scheduler_->RepairLevelFree(level)) {
    if (shutting_down_.load(std::memory_order_acquire)) {
      return;  // Stays quarantined; reads keep routing around it.
    }
    background_work_finished_signal_.Wait();
  }
  scheduler_->BeginRepair(level);

  const uint64_t salvage_number = versions_->NewFileNumber();
  pending_outputs_.insert(salvage_number);
  const std::string src = TableFileName(dbname_, number);
  const std::string dst = TableFileName(dbname_, salvage_number);

  SalvageResult salvage;
  Status s;
  {
    mutex_.Unlock();
    s = SalvageTable(env_, options_, src, meta.file_size, dst, &salvage);
    mutex_.Lock();
  }

  Status install;
  bool manifest_attempted = false;
  if (s.ok() || s.IsCorruption()) {
    // Either some blocks were rescued (swap in the salvage table) or
    // the source is a total loss — unreadable footer/index — and plain
    // removal is the repair. Both drop the corrupt file from the
    // version in one atomic edit.
    VersionEdit edit;
    edit.RemoveFile(level, number);
    if (s.ok() && salvage.walk.entries > 0) {
      FileMetaData f;
      f.number = salvage_number;
      f.file_size = salvage.file_size;
      f.smallest.DecodeFrom(salvage.walk.smallest);
      f.largest.DecodeFrom(salvage.walk.largest);
      f.file_checksum = salvage.file_checksum;
      f.has_file_checksum = true;
      edit.AddFile(level, f);
    }
    manifest_attempted = true;
    install = LogAndApplyLocked(&edit);
  } else {
    install = s;  // Environmental failure; retry on a later cycle.
  }

  pending_outputs_.erase(salvage_number);
  if (install.ok()) {
    SetQuarantined(number, false);
    metrics_->integrity_repairs.Increment();
    trace_.RecordInstant(
        "repair", "db", obs::TraceNowMicros(), 0,
        {{"file", std::to_string(number)},
         {"level", std::to_string(level)},
         {"salvaged_entries", std::to_string(salvage.walk.entries)},
         {"dropped_blocks", std::to_string(salvage.dropped_blocks)}});
    // The corrupt physical file is unreferenced now; reclaim it.
    RemoveObsoleteFiles();
  } else {
    metrics_->integrity_repair_failures.Increment();
    // Scrap any partial salvage output; the quarantine stays in place
    // so reads keep routing around the damage.
    mutex_.Unlock();
    env_->RemoveFile(dst).IgnoreError();
    mutex_.Lock();
    if (manifest_attempted) {
      // A failed MANIFEST write is beyond containment's remit.
      RecordBackgroundError(install);
    }
  }
  scheduler_->EndRepair(level);
  background_work_finished_signal_.SignalAll();
}

void DBImpl::ContainCompactionCorruption(Compaction* c, const Status& s,
                                         std::vector<uint64_t>* to_repair) {
  // Requires mutex_ held; drops it around verification I/O. Snapshot
  // the input list first — the file metadata stays pinned by the
  // compaction's input version, but verification releases the mutex.
  std::vector<ScrubItem> items;
  for (int which = 0; which < 2; which++) {
    for (const FileMetaData* f : c->inputs(which)) {
      items.emplace_back(*f, options_.rate_limiter);
    }
  }
  bool any_corrupt = false;
  for (const ScrubItem& item : items) {
    if (shutting_down_.load(std::memory_order_acquire)) return;
    Status vs;
    {
      mutex_.Unlock();
      vs = VerifyTable(env_, options_, TableFileName(dbname_, item.number),
                       item.spec, nullptr);
      mutex_.Lock();
    }
    if (vs.IsCorruption()) {
      any_corrupt = true;
      if (HandleCorruptTable(item.number, "compaction", vs)) {
        to_repair->push_back(item.number);
      }
    }
  }
  if (!any_corrupt) {
    // No input failed re-verification: the corruption came from
    // somewhere containment cannot own (e.g. a torn fresh output).
    // Fall back to the classic sticky background error.
    RecordBackgroundError(s);
  }
}

void DBImpl::BackgroundFlushCall() {
  MutexLock l(&mutex_);
  assert(scheduler_->flush_scheduled());
  if (shutting_down_.load(std::memory_order_acquire)) {
    // No more background work when shutting down.
  } else if (!bg_error_.ok()) {
    // No more background work after a background error.
  } else if (imm_ != nullptr) {
    CompactMemTable();
  }
  scheduler_->FlushFinished();
  PumpRateLimiterMetrics();

  // The flush may have pushed level-0 over its trigger.
  MaybeScheduleCompaction();
  background_work_finished_signal_.SignalAll();
}

void DBImpl::BackgroundCompactionCall() {
  MutexLock l(&mutex_);
  assert(scheduler_->scheduled_workers() > 0);
  if (shutting_down_.load(std::memory_order_acquire)) {
    // No more background work when shutting down.
  } else if (!bg_error_.ok()) {
    // No more background work after a background error.
  } else {
    BackgroundCompaction();
  }
  scheduler_->WorkerFinished();
  PumpRateLimiterMetrics();

  // The finished compaction may have produced too many files in a
  // level, or unblocked a level pair another job was excluded from.
  MaybeScheduleCompaction();
  background_work_finished_signal_.SignalAll();
}

void DBImpl::BackgroundCompaction() {
  // Requires mutex_ held.

  Compaction* c = nullptr;
  bool is_manual = false;
  ManualCompaction* m = nullptr;
  InternalKey manual_end;
  {
    obs::SpanTimer pick_span(&trace_, "pick", "db", 0);
    // A manual pass is claimed by exactly one worker (in_progress) and
    // only when its level pair is free of automatic jobs.
    if (manual_compaction_ != nullptr && !manual_compaction_->done &&
        !manual_compaction_->in_progress &&
        scheduler_->LevelsFree(manual_compaction_->level)) {
      is_manual = true;
      m = manual_compaction_;
      m->in_progress = true;
      c = versions_->CompactRange(m->level, m->begin, m->end);
      m->done = (c == nullptr);
      if (c != nullptr) {
        manual_end = c->input(0, c->num_input_files(0) - 1)->largest;
      }
    } else {
      c = versions_->PickCompaction(scheduler_->busy_levels());
    }
    if (c != nullptr) {
      pick_span.AddArg("level", std::to_string(c->level()));
      pick_span.AddArg("inputs",
                       std::to_string(c->num_input_files(0) +
                                      c->num_input_files(1)));
    }
  }

  Status status;
  std::vector<uint64_t> to_repair;
  if (c == nullptr) {
    // Nothing claimable right now (other jobs own the hot levels).
  } else {
    // Claim the level pair for the duration of the job; concurrent
    // workers pick around it and flushes avoid installing into it.
    scheduler_->BeginCompaction(c->level());
    if (!is_manual && c->IsTrivialMove()) {
      // Move file to next level.
      assert(c->num_input_files(0) == 1);
      metrics_->db_compaction_trivial_moves.Increment();
      FileMetaData* f = c->input(0, 0);
      c->edit()->RemoveFile(c->level(), f->number);
      c->edit()->AddFile(c->level() + 1, *f);  // Checksum moves with it.
      status = LogAndApplyLocked(c->edit());
      if (!status.ok()) {
        RecordBackgroundError(status);
      }
    } else {
      status = DoCompactionWork(c);
      if (status.IsCorruption() &&
          !shutting_down_.load(std::memory_order_acquire)) {
        // The merge tripped over a damaged input. Contain instead of
        // poisoning the DB with a sticky hard error: quarantine the
        // corrupt inputs and repair them below, once this job's level
        // claim is released (the repair needs to claim the level too).
        ContainCompactionCorruption(c, status, &to_repair);
        status = Status::OK();
      } else if (!status.ok()) {
        RecordBackgroundError(status);
      }
      c->ReleaseInputs();
      RemoveObsoleteFiles();
    }
    scheduler_->EndCompaction(c->level());
  }
  delete c;

  for (uint64_t number : to_repair) {
    RepairQuarantinedFile(number);
  }

  if (status.ok()) {
    // Done.
  } else if (shutting_down_.load(std::memory_order_acquire)) {
    // Ignore compaction errors found during shutting down.
  } else {
    std::fprintf(stderr, "Compaction error: %s\n", status.ToString().c_str());
  }

  if (is_manual) {
    if (!status.ok()) {
      m->done = true;
    }
    if (!m->done) {
      // We only compacted part of the requested range. Update *m to the
      // range that is left to be compacted.
      m->tmp_storage = manual_end;
      m->begin = &m->tmp_storage;
    }
    m->in_progress = false;
    if (manual_compaction_ == m) {
      manual_compaction_ = nullptr;
    }
  }
}

Status DBImpl::LogAndApplyLocked(VersionEdit* edit) {
  // Requires mutex_ held. LogAndApply releases the mutex while it
  // writes the MANIFEST; the scheduler's manifest lock keeps a second
  // job from interleaving records in that window.
  scheduler_->LockManifest();
  Status s = versions_->LogAndApply(edit, &mutex_);
  scheduler_->UnlockManifest();
  return s;
}

namespace {

// Restricts a merged compaction input iterator to the user-key range
// (lower, upper] so key-disjoint shards can run concurrently. Bounds
// are user keys, so every version of a user key lands in exactly one
// shard and sequence-based drop decisions stay local to that shard.
// Executors consume their input strictly forward; the backward API is
// deliberately unimplemented.
class ShardBoundIterator : public Iterator {
 public:
  ShardBoundIterator(Iterator* base, const Comparator* ucmp, bool has_lower,
                     const std::string& lower, bool has_upper,
                     const std::string& upper)
      : base_(base),
        ucmp_(ucmp),
        has_lower_(has_lower),
        lower_(lower),
        has_upper_(has_upper),
        upper_(upper) {}
  ~ShardBoundIterator() override { delete base_; }

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {
    if (has_lower_) {
      // (seq 0, type 0) sorts after every real entry of lower_ in
      // internal-key order, making it the exclusive lower bound.
      InternalKey target(Slice(lower_), 0, static_cast<ValueType>(0));
      base_->Seek(target.Encode());
    } else {
      base_->SeekToFirst();
    }
    Update();
  }
  void Seek(const Slice& target) override {
    base_->Seek(target);
    Update();
  }
  void Next() override {
    base_->Next();
    Update();
  }
  void SeekToLast() override { valid_ = false; }  // Forward-only.
  void Prev() override { valid_ = false; }        // Forward-only.
  Slice key() const override { return base_->key(); }
  Slice value() const override { return base_->value(); }
  Status status() const override { return base_->status(); }

 private:
  void Update() {
    valid_ = base_->Valid() &&
             !(has_upper_ && ucmp_->Compare(ExtractUserKey(base_->key()),
                                            Slice(upper_)) > 0);
  }

  Iterator* const base_;
  const Comparator* const ucmp_;
  const bool has_lower_;
  const std::string lower_;
  const bool has_upper_;
  const std::string upper_;
  bool valid_ = false;
};

// Countdown the sharding driver waits on while shard threads finish.
struct ShardLatch {
  explicit ShardLatch(int n) : cv(&mu), remaining(n) {}
  Mutex mu;
  CondVar cv;
  int remaining GUARDED_BY(mu);
};

}  // namespace

// Everything one sub-compaction needs, plus everything it produced.
// Shard-local while RunCompactionShard executes (no lock needed); the
// driver only reads the result fields after joining the shard.
struct DBImpl::CompactionShard {
  DBImpl* db = nullptr;
  ShardLatch* latch = nullptr;
  CompactionJob job;
  // Whether this shard may use the device executor: always for an
  // unsharded job; for key-bounded shards only when several offload
  // cards are configured (the executor trims its staged blocks to the
  // shard's range, so shards spread across cards without duplication).
  bool device_eligible = false;
  bool has_lower = false;
  bool has_upper = false;
  std::string lower, upper;  // User-key bounds; shard covers (lower, upper].
  std::vector<uint64_t> allocated;  // File numbers handed to this shard.
  std::vector<CompactionOutput> outputs;
  CompactionExecStats stats;
  Status status;
};

void DBImpl::ShardThreadMain(void* arg) {
  CompactionShard* shard = reinterpret_cast<CompactionShard*>(arg);
  shard->db->RunCompactionShard(shard);
  MutexLock lock(&shard->latch->mu);
  shard->latch->remaining--;
  shard->latch->cv.Signal();
}

void DBImpl::RunCompactionShard(CompactionShard* shard) {
  // Runs without mutex_: everything it touches is shard-local or
  // internally synchronized; the job closures reacquire mutex_ briefly.
  CompactionExecutor* executor = owned_cpu_executor_.get();
  if (shard->device_eligible && primary_executor_->CanExecute(shard->job)) {
    executor = primary_executor_;
  }
  // Paper Section VI-A: when the input count exceeds the device's N (or
  // the job is a key-bounded shard on a single-card setup), the task is
  // processed by software.

  const uint64_t start_micros = env_->NowMicros();
  shard->status = executor->Execute(shard->job, &shard->outputs, &shard->stats);
  if (!shard->status.ok() && executor != owned_cpu_executor_.get() &&
      !shutting_down_.load(std::memory_order_acquire)) {
    // The device path failed even after its own retries (card dropped,
    // deadline exhausted, persistent corruption). A device fault must
    // never fail a compaction software could do: scrub the partial
    // outputs and rerun the whole job on the CPU executor.
    std::vector<uint64_t> abandoned;
    {
      MutexLock lock(&mutex_);
      abandoned.swap(shard->allocated);
      for (uint64_t number : abandoned) {
        pending_outputs_.erase(number);
      }
    }
    for (uint64_t number : abandoned) {
      // Best effort; survivors are reclaimed at open.
      env_->RemoveFile(TableFileName(dbname_, number)).IgnoreError();
    }
    shard->outputs.clear();
    trace_.RecordInstant(
        "cpu_fallback", "db", obs::TraceNowMicros(), shard->job.trace_tid,
        {{"reason", obs::TraceRecorder::Quote(shard->status.ToString())}});
    if (notifier_.active()) {
      obs::OffloadFallbackInfo fallback_info;
      fallback_info.sticky = shard->status.IsDeviceLost();
      fallback_info.reason = shard->status.ToString();
      notifier_.NotifyOffloadFallback(fallback_info);
    }
    FCAE_PERF_COUNT(offload_cpu_fallbacks, 1);

    // Keep the failed attempt's fault accounting and host-stage times
    // visible in the DB totals, but take the job's time and volume from
    // the run that succeeded.
    const CompactionExecStats device_stats = shard->stats;
    shard->stats = CompactionExecStats();
    {
      FCAE_PERF_TIMER_GUARD(fallback_timer, offload_cpu_fallback_micros);
      shard->status = owned_cpu_executor_->Execute(shard->job, &shard->outputs,
                                                   &shard->stats);
    }
    shard->stats.device_attempts += device_stats.device_attempts;
    shard->stats.device_retries += device_stats.device_retries;
    shard->stats.device_faults += device_stats.device_faults;
    shard->stats.verify_failures += device_stats.verify_failures;
    shard->stats.stage_micros += device_stats.stage_micros;
    shard->stats.verify_micros += device_stats.verify_micros;
    shard->stats.assemble_micros += device_stats.assemble_micros;
    shard->stats.fell_back = true;
  }
  if (shard->stats.micros == 0) {
    shard->stats.micros = env_->NowMicros() - start_micros;
  }
}

Status DBImpl::DoCompactionWork(Compaction* c) {
  // Requires mutex_ held. Builds one job per shard, runs them without
  // the mutex (device if the unsharded job is eligible, CPU otherwise —
  // paper Fig. 6), then installs every shard's results atomically in
  // one version edit.
  const int level = c->level();

  SequenceNumber smallest_snapshot;
  if (snapshots_.empty()) {
    smallest_snapshot = versions_->LastSequence();
  } else {
    smallest_snapshot = snapshots_.oldest()->sequence_number();
  }
  // Deletion markers can be dropped iff no deeper level holds data for
  // any key in the compaction range. Conservative per-compaction check
  // shared by both executors (see compaction_executor.h).
  bool no_deeper_data;
  {
    bool deeper = false;
    for (int lvl = level + 2; lvl < kNumLevels && !deeper; lvl++) {
      if (versions_->current()->NumFiles(lvl) > 0) {
        // Only a range check could refine this; keep it simple and
        // exactly implementable on the device.
        deeper = true;
      }
    }
    no_deeper_data = !deeper;
  }

  // Large L0->L1 jobs split into key-disjoint sub-compactions along the
  // L1 file grid; each shard runs concurrently (on its own offload card
  // when several are configured, on the CPU executor otherwise) and the
  // combined outputs install in one VersionEdit below. With multiple
  // cards the shard target is raised to at least the card count so the
  // placement policy has one shard per card to spread.
  std::vector<std::string> boundaries;
  const int shard_target =
      std::max(options_.max_subcompactions, options_.num_offload_cards);
  if (shard_target > 1 && level == 0) {
    boundaries = CompactionScheduler::PlanShardBoundaries(
        c->inputs(1), internal_comparator_, shard_target);
  }
  const int nshards = static_cast<int>(boundaries.size()) + 1;

  ShardLatch latch(nshards - 1);
  std::vector<std::unique_ptr<CompactionShard>> shards;
  for (int i = 0; i < nshards; i++) {
    auto shard = std::make_unique<CompactionShard>();
    shard->db = this;
    shard->latch = &latch;
    // An unsharded job may always use the device. Key-bounded shards
    // may only when several cards back the executor (it trims staged
    // blocks to the shard range); with one card they would serialize on
    // the device anyway, so they keep the concurrent CPU path.
    shard->device_eligible =
        (nshards == 1) || (options_.num_offload_cards > 1);
    if (i > 0) {
      shard->has_lower = true;
      shard->lower = boundaries[i - 1];
    }
    if (i + 1 < nshards) {
      shard->has_upper = true;
      shard->upper = boundaries[i];
    }
    CompactionJob& job = shard->job;
    job.options = &options_;
    job.dbname = dbname_;
    job.table_cache = table_cache_.get();
    job.icmp = &internal_comparator_;
    job.compaction = c;
    job.smallest_snapshot = smallest_snapshot;
    job.no_deeper_data = no_deeper_data;
    job.has_lower_bound = shard->has_lower;
    job.has_upper_bound = shard->has_upper;
    job.lower_bound = shard->lower;
    job.upper_bound = shard->upper;
    job.trace = &trace_;
    job.metrics = metrics_;
    job.notifier = &notifier_;
    job.trace_tid = next_trace_tid_.fetch_add(1, std::memory_order_relaxed);
    CompactionShard* sp = shard.get();
    // Track every number handed out so a failed attempt (e.g. the
    // device dying mid-job) can release its pending-output protection
    // and scrub partial files before the job reruns on the CPU.
    job.new_file_number = [this, sp]() {
      MutexLock lock(&mutex_);
      uint64_t number = versions_->NewFileNumber();
      pending_outputs_.insert(number);
      sp->allocated.push_back(number);
      return number;
    };
    job.make_input_iterator = [this, sp]() -> Iterator* {
      // Invoked by the executor after DoCompactionWork released mutex_:
      // VersionSet state is guarded by it, so reacquire for the setup.
      Iterator* base;
      {
        MutexLock lock(&mutex_);
        base = versions_->MakeInputIterator(sp->job.compaction);
      }
      if (!sp->has_lower && !sp->has_upper) {
        return base;
      }
      return new ShardBoundIterator(base, user_comparator(), sp->has_lower,
                                    sp->lower, sp->has_upper, sp->upper);
    };
    shards.push_back(std::move(shard));
  }

  // The outer span covers executor run + install; executor stage spans
  // (input_build, dma_in, decode/merge/encode, verify) nest inside it
  // on shard 0's track; extra shards each get their own track.
  obs::SpanTimer compaction_span(&trace_, "compaction", "db",
                                 shards[0]->job.trace_tid);
  compaction_span.AddArg("level", std::to_string(level));
  compaction_span.AddArg(
      "inputs",
      std::to_string(c->num_input_files(0) + c->num_input_files(1)));
  compaction_span.AddArg("shards", std::to_string(nshards));

  if (nshards > 1) {
    scheduler_->RecordShardedJob(nshards);
  }

  obs::CompactionJobInfo job_info;
  job_info.db_name = dbname_;
  job_info.base_level = level;
  job_info.output_level = level + 1;
  job_info.input_files = c->num_input_files(0) + c->num_input_files(1);
  job_info.shards = nshards;

  uint64_t wall_micros = 0;
  {
    mutex_.Unlock();
    if (notifier_.active()) {
      notifier_.NotifyCompactionBegin(job_info);
    }
    const uint64_t start_micros = env_->NowMicros();
    for (int i = 1; i < nshards; i++) {
      env_->StartThread(&DBImpl::ShardThreadMain, shards[i].get());
    }
    RunCompactionShard(shards[0].get());
    if (nshards > 1) {
      MutexLock join(&latch.mu);
      while (latch.remaining > 0) {
        latch.cv.Wait();
      }
    }
    wall_micros = env_->NowMicros() - start_micros;
    mutex_.Lock();
  }

  // Sum the shards into the job's one record. Shards cover ascending
  // disjoint key ranges so concatenating their outputs in shard order
  // keeps level+1 sorted.
  Status status;
  std::vector<CompactionOutput> outputs;
  CompactionExecStats exec_stats;
  std::vector<uint64_t> allocated_numbers;
  for (const std::unique_ptr<CompactionShard>& shard : shards) {
    if (status.ok() && !shard->status.ok()) {
      status = shard->status;
    }
    outputs.insert(outputs.end(), shard->outputs.begin(),
                   shard->outputs.end());
    exec_stats.Add(shard->stats);
    allocated_numbers.insert(allocated_numbers.end(), shard->allocated.begin(),
                             shard->allocated.end());
  }
  if (nshards > 1) {
    // Shards overlap in time; charge wall clock, not the per-shard sum.
    exec_stats.micros = static_cast<double>(wall_micros);
  }
  // Every shard reads the same input tables, so they count once here.
  for (int which = 0; which < 2; which++) {
    for (int i = 0; i < c->num_input_files(which); i++) {
      exec_stats.bytes_read += c->input(which, i)->file_size;
    }
  }

  // Every view of the job reads the record: the DB totals, the
  // per-level table, the instruments, the span and the listener payload.
  exec_stats_.Add(exec_stats);
  CompactionStats stats;
  stats.micros = static_cast<int64_t>(exec_stats.micros);
  stats.bytes_read = exec_stats.bytes_read;
  stats.bytes_written = exec_stats.bytes_written;
  stats_[level + 1].Add(stats);
  metrics_->db_compaction_count.Increment();
  (exec_stats.offloaded ? metrics_->db_compaction_offloaded
                        : metrics_->db_compaction_cpu)
      .Increment();
  if (exec_stats.fell_back) metrics_->db_compaction_fallbacks.Increment();
  metrics_->db_compaction_bytes_read.Increment(
      static_cast<uint64_t>(exec_stats.bytes_read));
  metrics_->db_compaction_bytes_written.Increment(
      static_cast<uint64_t>(exec_stats.bytes_written));
  metrics_->db_compaction_entries_dropped.Increment(
      exec_stats.entries_dropped);
  metrics_->db_compaction_micros.Observe(exec_stats.micros);
  compaction_span.AddArg("offloaded", exec_stats.offloaded ? "true" : "false");
  compaction_span.AddArg("fallback", exec_stats.fell_back ? "true" : "false");
  job_info.offloaded = exec_stats.offloaded;
  job_info.fell_back = exec_stats.fell_back;
  job_info.input_bytes = static_cast<uint64_t>(exec_stats.bytes_read);
  job_info.output_bytes = static_cast<uint64_t>(exec_stats.bytes_written);
  job_info.micros = static_cast<uint64_t>(exec_stats.micros);

  if (status.ok() && shutting_down_.load(std::memory_order_acquire)) {
    status = Status::IOError("Deleting DB during compaction");
  }
  // All shard outputs exist on disk but none are referenced by any
  // version yet — a crash here must leave only reclaimable orphans.
  FCAE_CRASH_POINT("shard:between_installs");
  if (status.ok()) {
    obs::SpanTimer install_span(&trace_, "install", "db",
                                shards[0]->job.trace_tid);
    status = InstallCompactionResults(c, outputs);
    install_span.AddArg("outputs", std::to_string(outputs.size()));
    if (status.ok()) {
      FCAE_CRASH_POINT("compaction:after_install");
    }
  }

  // Release pending output protection — every number handed out,
  // including ones whose table assembly failed before reaching `outputs`.
  for (uint64_t number : allocated_numbers) {
    pending_outputs_.erase(number);
  }

  if (!status.ok()) {
    // Corruption is NOT recorded here: the caller re-verifies the
    // inputs and either contains it (quarantine + repair) or records it
    // itself when no input is actually damaged.
    if (!status.IsCorruption()) {
      RecordBackgroundError(status);
    }
    // Clean up files we created (best effort; some may not exist).
    mutex_.Unlock();
    for (uint64_t number : allocated_numbers) {
      env_->RemoveFile(TableFileName(dbname_, number)).IgnoreError();
    }
    mutex_.Lock();
  }

  if (notifier_.active()) {
    job_info.status = status;
    mutex_.Unlock();
    notifier_.NotifyCompactionCompleted(job_info);
    mutex_.Lock();
  }
  return status;
}

Status DBImpl::InstallCompactionResults(
    Compaction* c, const std::vector<CompactionOutput>& outputs) {
  // Requires mutex_ held.
  c->AddInputDeletions(c->edit());
  const int level = c->level();
  for (const CompactionOutput& out : outputs) {
    FileMetaData f;
    f.number = out.number;
    f.file_size = out.file_size;
    f.smallest = out.smallest;
    f.largest = out.largest;
    f.file_checksum = out.file_checksum;
    f.has_file_checksum = out.has_file_checksum;
    c->edit()->AddFile(level + 1, f);
  }
  return LogAndApplyLocked(c->edit());
}

namespace {

struct IterState {
  Mutex* const mu;
  Version* const version GUARDED_BY(mu);
  MemTable* const mem GUARDED_BY(mu);
  MemTable* const imm GUARDED_BY(mu);

  IterState(Mutex* mutex, MemTable* mem, MemTable* imm, Version* version)
      : mu(mutex), version(version), mem(mem), imm(imm) {}
};

void CleanupIteratorState(void* arg1, void* arg2) {
  IterState* state = reinterpret_cast<IterState*>(arg1);
  state->mu->Lock();
  state->mem->Unref();
  if (state->imm != nullptr) state->imm->Unref();
  state->version->Unref();
  state->mu->Unlock();
  delete state;
}

}  // namespace

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* latest_snapshot,
                                      uint32_t* seed) {
  mutex_.Lock();
  *latest_snapshot = versions_->LastSequence();

  // Collect together all needed child iterators.
  std::vector<Iterator*> list;
  list.push_back(mem_->NewIterator());
  mem_->Ref();
  if (imm_ != nullptr) {
    list.push_back(imm_->NewIterator());
    imm_->Ref();
  }
  versions_->current()->AddIterators(options, &list);
  Iterator* internal_iter =
      NewMergingIterator(&internal_comparator_, list.data(),
                         static_cast<int>(list.size()));
  versions_->current()->Ref();

  IterState* cleanup =
      new IterState(&mutex_, mem_, imm_, versions_->current());
  internal_iter->RegisterCleanup(CleanupIteratorState, cleanup, nullptr);

  *seed = ++seed_;
  mutex_.Unlock();
  return internal_iter;
}

Iterator* DBImpl::TEST_NewInternalIterator() {
  SequenceNumber ignored;
  uint32_t ignored_seed;
  return NewInternalIterator(ReadOptions(), &ignored, &ignored_seed);
}

void DBImpl::SetQuarantined(uint64_t number, bool quarantined) {
  // Requires mutex_ held.
  if (quarantined) {
    versions_->quarantine()->Add(number);
  } else {
    versions_->quarantine()->Remove(number);
  }
  metrics_->integrity_quarantined_files.Set(
      static_cast<int64_t>(versions_->quarantine()->size()));
}

void DBImpl::TEST_QuarantineFile(uint64_t number) {
  MutexLock l(&mutex_);
  SetQuarantined(number, true);
  table_cache_->Evict(number);
}

void DBImpl::TEST_UnquarantineFile(uint64_t number) {
  MutexLock l(&mutex_);
  SetQuarantined(number, false);
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  Status s;
  MutexLock l(&mutex_);
  SequenceNumber snapshot;
  if (options.snapshot_sequence != 0) {
    snapshot = options.snapshot_sequence;
  } else {
    snapshot = versions_->LastSequence();
  }

  MemTable* mem = mem_;
  MemTable* imm = imm_;
  Version* current = versions_->current();
  mem->Ref();
  if (imm != nullptr) imm->Ref();
  current->Ref();

  bool have_stat_update = false;
  Version::GetStats stats;

  // Unlock while reading from files and memtables.
  {
    mutex_.Unlock();
    // First look in the memtable, then in the immutable memtable (if
    // any).
    LookupKey lkey(key, snapshot);
    FCAE_PERF_COUNT(memtable_probes, 1);
    bool found = mem->Get(lkey, value, &s);
    if (!found && imm != nullptr) {
      FCAE_PERF_COUNT(immutable_memtable_probes, 1);
      found = imm->Get(lkey, value, &s);
    }
    if (!found) {
      s = current->Get(options, lkey, value, &stats);
      have_stat_update = true;
    }
    mutex_.Lock();
  }

  if (have_stat_update && current->UpdateStats(stats)) {
    MaybeScheduleCompaction();
  }
  mem->Unref();
  if (imm != nullptr) imm->Unref();
  current->Unref();
  return s;
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  SequenceNumber latest_snapshot;
  uint32_t seed;
  Iterator* iter = NewInternalIterator(options, &latest_snapshot, &seed);
  return NewDBIterator(this, user_comparator(), iter,
                       (options.snapshot_sequence != 0
                            ? options.snapshot_sequence
                            : latest_snapshot),
                       seed);
}

void DBImpl::RecordReadSample(Slice key) {
  MutexLock l(&mutex_);
  if (versions_->current()->RecordReadSample(key)) {
    MaybeScheduleCompaction();
  }
}

const Snapshot* DBImpl::GetSnapshot() {
  MutexLock l(&mutex_);
  return snapshots_.New(versions_->LastSequence());
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  MutexLock l(&mutex_);
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

// Convenience methods.
Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& val) {
  WriteBatch batch;
  batch.Put(key, val);
  return Write(o, &batch);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(options, &batch);
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  Writer w(&mutex_);
  w.batch = updates;
  w.sync = options.sync;
  w.done = false;

  MutexLock l(&mutex_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.Wait();
  }
  if (w.done) {
    return w.status;
  }

  // May temporarily unlock and wait.
  Status status = MakeRoomForWrite(updates == nullptr);
  uint64_t last_sequence = versions_->LastSequence();
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {  // null batch is for compactions
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    WriteBatchInternal::SetSequence(write_batch, last_sequence + 1);
    last_sequence += WriteBatchInternal::Count(write_batch);

    // Add to log and apply to memtable. We can release the lock during
    // this phase since &w is currently responsible for logging and
    // protects against concurrent loggers and concurrent writes into
    // mem_.
    {
      mutex_.Unlock();
      const Slice contents = WriteBatchInternal::Contents(write_batch);
      {
        FCAE_PERF_TIMER_GUARD(wal_timer, wal_append_micros);
        FCAE_IOSTATS_TIMER_GUARD(wal_io_timer, write_micros);
        status = log_->AddRecord(contents);
      }
      FCAE_PERF_COUNT(wal_appends, 1);
      FCAE_IOSTATS_COUNT(bytes_written, contents.size());
      FCAE_CRASH_POINT("wal:after_append");
      bool sync_error = false;
      if (status.ok() && options.sync) {
        {
          FCAE_PERF_TIMER_GUARD(sync_timer, wal_sync_micros);
          FCAE_IOSTATS_TIMER_GUARD(sync_io_timer, sync_micros);
          status = logfile_->Sync();
        }
        FCAE_PERF_COUNT(wal_syncs, 1);
        if (!status.ok()) {
          sync_error = true;
        }
      }
      if (status.ok()) {
        status = WriteBatchInternal::InsertInto(write_batch, mem_);
      }
      mutex_.Lock();
      if (sync_error) {
        // The state of the log file is indeterminate: the log record we
        // just added may or may not show up when the DB is re-opened.
        // So we force the DB into a mode where all future writes fail.
        RecordBackgroundError(status);
      }
    }
    if (write_batch == tmp_batch_) tmp_batch_->Clear();

    versions_->SetLastSequence(last_sequence);
  }

  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.Signal();
    }
    if (ready == last_writer) break;
  }

  // Notify new head of write queue.
  if (!writers_.empty()) {
    writers_.front()->cv.Signal();
  }

  return status;
}

// Requires: Writer list must be non-empty; first writer must have a
// non-null batch.
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  // Requires mutex_ held.
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the original
  // write is small, limit the growth so we do not slow down the small
  // write too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *last_writer = first;
  std::deque<Writer*>::iterator iter = writers_.begin();
  ++iter;  // Advance past "first".
  for (; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a non-sync
      // write.
      break;
    }

    if (w->batch != nullptr) {
      size += WriteBatchInternal::ByteSize(w->batch);
      if (size > max_size) {
        // Do not make batch too big.
        break;
      }

      // Append to *result.
      if (result == first->batch) {
        // Switch to temporary batch instead of disturbing caller's
        // batch.
        result = tmp_batch_;
        assert(WriteBatchInternal::Count(result) == 0);
        WriteBatchInternal::Append(result, first->batch);
      }
      WriteBatchInternal::Append(result, w->batch);
    }
    *last_writer = w;
  }
  return result;
}

// Requires: mutex_ is held; this thread is currently at the front of
// the writer queue.
WriteStallConditions DBImpl::SampleWriteStallConditions() {
  WriteStallConditions cond;
  cond.l0_files = versions_->NumLevelFiles(0);
  cond.pending_compaction_bytes = versions_->PendingCompactionBytes();
  cond.memtable_bytes = mem_->ApproximateMemoryUsage() +
                        (imm_ != nullptr ? imm_->ApproximateMemoryUsage() : 0);
  cond.imm_in_flight = imm_ != nullptr;
  return cond;
}

void DBImpl::PumpRateLimiterMetrics() {
  RateLimiter* limiter = options_.rate_limiter;
  if (limiter == nullptr) return;
  uint64_t total = limiter->total_bytes_through();
  if (total > rl_exported_bytes_through_) {
    metrics_->ratelimiter_bytes_through.Increment(
        total - rl_exported_bytes_through_);
    rl_exported_bytes_through_ = total;
  }
  total = limiter->total_throttled_bytes();
  if (total > rl_exported_throttled_bytes_) {
    metrics_->ratelimiter_throttled_bytes.Increment(
        total - rl_exported_throttled_bytes_);
    rl_exported_throttled_bytes_ = total;
  }
  total = limiter->total_wait_micros();
  if (total > rl_exported_wait_micros_) {
    metrics_->ratelimiter_wait_micros.Increment(
        total - rl_exported_wait_micros_);
    rl_exported_wait_micros_ = total;
  }
  total = limiter->total_requests();
  if (total > rl_exported_requests_) {
    metrics_->ratelimiter_requests.Increment(total - rl_exported_requests_);
    rl_exported_requests_ = total;
  }
}

void DBImpl::PumpTraceMetrics() {
  const uint64_t dropped = trace_.events_dropped();
  if (dropped > trace_dropped_exported_) {
    metrics_->obs_trace_dropped_events.Increment(
        dropped - trace_dropped_exported_);
    trace_dropped_exported_ = dropped;
  }
}

void DBImpl::NotifyFlushEvent(bool begin, const obs::FlushJobInfo& info) {
  if (!notifier_.active()) return;
  mutex_.Unlock();
  if (begin) {
    notifier_.NotifyFlushBegin(info);
  } else {
    notifier_.NotifyFlushCompleted(info);
  }
  mutex_.Lock();
}

void DBImpl::NotifyWriteStall(bool begin, obs::WriteStallCause cause,
                              uint64_t micros) {
  if (!notifier_.active()) return;
  obs::WriteStallInfo info;
  info.cause = cause;
  info.micros = micros;
  mutex_.Unlock();
  if (begin) {
    notifier_.NotifyWriteStallBegin(info);
  } else {
    notifier_.NotifyWriteStallEnd(info);
  }
  mutex_.Lock();
}

void DBImpl::NotifyBackgroundErrorEvent(const Status& s, bool hard) {
  if (!notifier_.active()) return;
  obs::BackgroundErrorInfo info;
  info.status = s;
  info.hard = hard;
  mutex_.Unlock();
  notifier_.NotifyBackgroundError(info);
  mutex_.Lock();
}

void DBImpl::NotifyResumeEvent() {
  if (!notifier_.active()) return;
  mutex_.Unlock();
  notifier_.NotifyBackgroundErrorResumed();
  mutex_.Lock();
}

void DBImpl::DumpStats(uint64_t seq) {
  {
    MutexLock lock(&mutex_);
    if (shutting_down_.load(std::memory_order_acquire)) return;
  }
  std::string text;
  if (!GetProperty("fcae.stats", &text)) return;
  metrics_->obs_stats_dump_count.Increment();
  if (options_.info_log != nullptr) {
    obs::LogRecord record;
    record.level = obs::LogRecord::Level::kInfo;
    record.ts_micros = obs::TraceNowMicros();
    record.tag = "fcae.stats";
    record.message = std::move(text);
    record.fields.emplace_back("seq", std::to_string(seq));
    options_.info_log->Log(record);
  }
}

namespace {
const char* WriteControllerStateName(WriteController::State state) {
  switch (state) {
    case WriteController::State::kOk:
      return "ok";
    case WriteController::State::kDelayed:
      return "delayed";
    case WriteController::State::kStopped:
      return "stopped";
  }
  return "unknown";
}
// Delay sleeps release the mutex in bounded chunks so a background
// error, a Resume(), or a compaction install interrupts the nap within
// one chunk instead of the writer serving out its full sentence.
constexpr uint64_t kDelayChunkMicros = 1000;
}  // namespace

Status DBImpl::MakeRoomForWrite(bool force) {
  assert(!writers_.empty());
  bool allow_delay = !force;
  Status s;
  while (true) {
    if (!bg_error_.ok()) {
      // Yield previous error.
      s = bg_error_;
      break;
    }
    const WriteStallConditions cond = SampleWriteStallConditions();
    const WriteController::State prev_state = write_controller_.state();
    const WriteController::State state = write_controller_.Update(cond);
    if (state != prev_state) {
      metrics_->wc_state.Set(static_cast<int64_t>(state));
      trace_.RecordInstant(
          "wc_state", "db", obs::TraceNowMicros(), 0,
          {{"state",
            obs::TraceRecorder::Quote(WriteControllerStateName(state))},
           {"debt", std::to_string(write_controller_.debt())}});
    }
    if (allow_delay && state == WriteController::State::kDelayed) {
      // Compaction debt but no hard limit yet: charge this write the
      // controller's credit-model delay (which ramps smoothly with the
      // debt score) instead of LevelDB's fixed 1 ms, so latency
      // degrades gradually toward the stop trigger instead of cliffing
      // into it. Kick the scheduler first — the debt is its signal.
      MaybeScheduleCompaction();
      NotifyWriteStall(/*begin=*/true, obs::WriteStallCause::kCompactionDebt,
                       0);
      const uint64_t delay =
          write_controller_.GetDelayMicros(env_->NowMicros());
      const uint64_t start = env_->NowMicros();
      uint64_t waited = 0;
      while (waited < delay && bg_error_.ok()) {
        const uint64_t chunk =
            std::min<uint64_t>(delay - waited, kDelayChunkMicros);
        mutex_.Unlock();
        env_->SleepForMicroseconds(static_cast<int>(chunk));
        mutex_.Lock();
        waited = env_->NowMicros() - start;
        // An install may have paid the debt off mid-nap: stop serving
        // a delay the LSM shape no longer justifies.
        if (write_controller_.Update(SampleWriteStallConditions()) ==
            WriteController::State::kOk) {
          break;
        }
      }
      allow_delay = false;  // Do not delay a single write more than once.
      metrics_->db_write_delay_micros.Observe(static_cast<double>(waited));
      FCAE_PERF_COUNT(write_delays, 1);
      FCAE_PERF_TIME(write_delay_micros, waited);
      NotifyWriteStall(/*begin=*/false, obs::WriteStallCause::kCompactionDebt,
                       waited);
    } else if (!force &&
               mem_->ApproximateMemoryUsage() <= options_.write_buffer_size &&
               (options_.total_write_buffer_size == 0 || imm_ == nullptr ||
                cond.memtable_bytes < options_.total_write_buffer_size)) {
      // There is room in the current memtable and the live+immutable
      // pair is under the global budget.
      break;
    } else if (imm_ != nullptr) {
      // Either the current memtable is full while the previous one is
      // still being flushed, or the global memory budget is exhausted;
      // both drain through the in-flight flush, so wait on it. Any stop
      // with the pair at the budget is a memory stop, also when one
      // group commit carried the live memtable past write_buffer_size in
      // a single step. Each pass is one sample of its cause's histogram.
      const bool memory_stop =
          !force && options_.total_write_buffer_size > 0 &&
          cond.memtable_bytes >= options_.total_write_buffer_size;
      obs::HistogramMetric& stop_micros =
          memory_stop ? metrics_->db_write_memory_stop_micros
                      : metrics_->db_write_memtable_stop_micros;
      NotifyWriteStall(/*begin=*/true, obs::WriteStallCause::kMemtableFull,
                       0);
      if (imm_ == nullptr) {
        // The in-flight flush installed while the mutex was dropped for
        // the notification — its wakeup signal already fired, so
        // waiting now could sleep forever. Close the event and
        // re-evaluate.
        stop_micros.Observe(0);
        NotifyWriteStall(/*begin=*/false, obs::WriteStallCause::kMemtableFull,
                         0);
        continue;
      }
      const uint64_t start = env_->NowMicros();
      background_work_finished_signal_.Wait();
      const uint64_t waited = env_->NowMicros() - start;
      stop_micros.Observe(static_cast<double>(waited));
      FCAE_PERF_COUNT(write_stops, 1);
      FCAE_PERF_TIME(write_stop_micros, waited);
      NotifyWriteStall(/*begin=*/false, obs::WriteStallCause::kMemtableFull,
                       waited);
    } else if (state == WriteController::State::kStopped) {
      // Too many level-0 files (the memory-budget stop always has an
      // imm in flight and is handled above). Block on the condvar —
      // every install, Resume(), and background-error transition
      // signals it.
      MaybeScheduleCompaction();
      NotifyWriteStall(/*begin=*/true, obs::WriteStallCause::kL0Stop, 0);
      if (write_controller_.Update(SampleWriteStallConditions()) !=
          WriteController::State::kStopped) {
        // The stop condition cleared while the mutex was dropped for
        // the notification; its signal already fired, so close the
        // event and re-evaluate instead of waiting.
        metrics_->db_write_l0_stop_micros.Observe(0);
        NotifyWriteStall(/*begin=*/false, obs::WriteStallCause::kL0Stop, 0);
        continue;
      }
      // Re-arm the dispatch the notification drop may have consumed:
      // a worker scheduled above could have finished (and signalled)
      // inside that window while leaving the level still over-full.
      MaybeScheduleCompaction();
      const uint64_t start = env_->NowMicros();
      background_work_finished_signal_.Wait();
      const uint64_t waited = env_->NowMicros() - start;
      metrics_->db_write_l0_stop_micros.Observe(static_cast<double>(waited));
      FCAE_PERF_COUNT(write_stops, 1);
      FCAE_PERF_TIME(write_stop_micros, waited);
      NotifyWriteStall(/*begin=*/false, obs::WriteStallCause::kL0Stop,
                       waited);
    } else {
      // Attempt to switch to a new memtable and trigger compaction of
      // old.
      assert(versions_->LogNumber() <= logfile_number_);
      uint64_t new_log_number = versions_->NewFileNumber();
      WritableFile* lfile = nullptr;
      s = env_->NewWritableFile(LogFileName(dbname_, new_log_number), &lfile);
      if (s.ok()) {
        // Commit the new log's directory entry now: synced records
        // written to it must survive a crash that happens before the
        // flush's version edit performs the next directory sync.
        s = env_->SyncDir(dbname_);
        if (!s.ok()) {
          delete lfile;
          lfile = nullptr;
        }
      }
      if (!s.ok()) {
        // Avoid chewing through file number space in a tight loop.
        versions_->ReuseFileNumber(new_log_number);
        break;
      }
      // The new log's directory entry is durable but the writer role
      // has not switched: a crash here leaves an empty orphan log that
      // open-time reclamation removes, while the old log still holds
      // every acknowledged record.
      FCAE_CRASH_POINT("wal:after_rotate_syncdir");
      delete log_;
      delete logfile_;
      logfile_ = lfile;
      logfile_number_ = new_log_number;
      log_ = new log::Writer(lfile);
      imm_ = mem_;
      has_imm_.store(true, std::memory_order_release);
      mem_ = new MemTable(internal_comparator_);
      mem_->Ref();
      force = false;  // Do not force another compaction if have room.
      MaybeScheduleCompaction();
    }
  }
  return s;
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();

  MutexLock l(&mutex_);
  Slice in = property;
  Slice prefix("fcae.");
  if (!in.StartsWith(prefix)) return false;
  in.RemovePrefix(prefix.size());
  // Settle any rate-limiter and trace-ring activity into the registry
  // so property snapshots ("metrics", "stats") are current.
  PumpRateLimiterMetrics();
  PumpTraceMetrics();

  if (in.StartsWith("num-files-at-level")) {
    in.RemovePrefix(strlen("num-files-at-level"));
    // kNumLevels is single-digit; accept at most two digits so a long
    // digit string cannot overflow the accumulator below (it used to
    // wrap uint64 and could alias a valid level).
    uint64_t level = 0;
    bool ok = !in.empty() && in.size() <= 2;
    for (size_t i = 0; i < in.size() && ok; i++) {
      if (in[i] < '0' || in[i] > '9') {
        ok = false;
      } else {
        level = level * 10 + (in[i] - '0');
      }
    }
    if (!ok || level >= kNumLevels) {
      return false;
    } else {
      AppendF(value, "%d", versions_->NumLevelFiles(static_cast<int>(level)));
      return true;
    }
  } else if (in == Slice("stats")) {
    // Every line below the level table reads the registry. With a
    // registry shared by several opens, the cumulative lines report its
    // totals, as the Interval lines report its activity.
    using Snapshot = obs::MetricsRegistry::Snapshot;
    const Snapshot now = metrics_->TakeSnapshot();
    const auto delta = [&](uint64_t Snapshot::*counter) {
      return static_cast<unsigned long long>(now.*counter -
                                             stats_window_.*counter);
    };
    // One pause line from the stall histograms' counts and exact sums,
    // since `base`: memory-budget stops are memtable waits too.
    const auto append_pauses = [&](const char* label, const Snapshot& base) {
      const auto passes = [&](Histogram Snapshot::*h) {
        return static_cast<unsigned long long>((now.*h).Count() -
                                               (base.*h).Count());
      };
      const auto ms = [&](Histogram Snapshot::*h) {
        return ((now.*h).Sum() - (base.*h).Sum()) / 1e3;
      };
      AppendF(value,
              "%s: slowdowns=%llu (%.1f ms) memtable-waits=%llu (%.1f ms) "
              "l0-stops=%llu (%.1f ms)\n",
              label, passes(&Snapshot::db_write_delay_micros),
              ms(&Snapshot::db_write_delay_micros),
              passes(&Snapshot::db_write_memtable_stop_micros) +
                  passes(&Snapshot::db_write_memory_stop_micros),
              ms(&Snapshot::db_write_memtable_stop_micros) +
                  ms(&Snapshot::db_write_memory_stop_micros),
              passes(&Snapshot::db_write_l0_stop_micros),
              ms(&Snapshot::db_write_l0_stop_micros));
    };
    value->append(
        "                               Compactions\n"
        "Level  Files Size(MB) Time(sec) Read(MB) Write(MB)\n"
        "--------------------------------------------------\n");
    for (int level = 0; level < kNumLevels; level++) {
      int files = versions_->NumLevelFiles(level);
      if (stats_[level].micros > 0 || files > 0) {
        AppendF(value, "%3d %8d %8.0f %9.3f %8.3f %9.3f\n", level, files,
                versions_->NumLevelBytes(level) / 1048576.0,
                stats_[level].micros / 1e6,
                stats_[level].bytes_read / 1048576.0,
                stats_[level].bytes_written / 1048576.0);
      }
    }
    AppendF(value,
            "Compactions executed: cpu=%llu offloaded=%llu "
            "fallback=%llu (device %.3f ms kernel, %.3f ms pcie)\n",
            static_cast<unsigned long long>(now.db_compaction_cpu),
            static_cast<unsigned long long>(now.db_compaction_offloaded),
            static_cast<unsigned long long>(now.db_compaction_fallbacks),
            exec_stats_.device_micros / 1e3, exec_stats_.pcie_micros / 1e3);
    append_pauses("Write pauses", Snapshot());
    // Interval section: activity since the previous "fcae.stats" read
    // (or since Open for the first one). The stats dumper reads this
    // property each period, so its records show per-window figures
    // without consumers having to diff cumulative dumps themselves.
    AppendF(value,
            "Interval: flushes=%llu (%.3f MB) compactions=%llu "
            "(read %.3f MB, wrote %.3f MB)\n",
            delta(&Snapshot::db_flush_count),
            delta(&Snapshot::db_flush_bytes_written) / 1048576.0,
            delta(&Snapshot::db_compaction_count),
            delta(&Snapshot::db_compaction_bytes_read) / 1048576.0,
            delta(&Snapshot::db_compaction_bytes_written) / 1048576.0);
    append_pauses("Interval", stats_window_);
    stats_window_ = now;
    return true;
  } else if (in == Slice("metrics")) {
    // JSON snapshot of every declared counter/gauge/histogram; see
    // DESIGN.md §7 for the naming scheme. Executor/device metrics land
    // in the same registry, so one snapshot covers all layers.
    *value = metrics_->ToJson();
    return true;
  } else if (in == Slice("trace")) {
    // chrome://tracing JSON of the retained span ring.
    *value = trace_.ToJson();
    return true;
  } else if (in == Slice("device-health")) {
    // One line of robustness/fault counters for the offload path: how
    // compactions were routed (the registry's compaction counters),
    // what the device attempts cost, and the primary executor's own
    // health dump (breaker state per card).
    AppendF(value,
            "executor=%s compactions{offloaded=%llu cpu=%llu fallback=%llu} "
            "device{attempts=%llu retries=%llu faults=%llu "
            "verify-rejects=%llu verify-ms=%.3f}",
            primary_executor_->Name(),
            static_cast<unsigned long long>(
                metrics_->db_compaction_offloaded.value()),
            static_cast<unsigned long long>(metrics_->db_compaction_cpu.value()),
            static_cast<unsigned long long>(
                metrics_->db_compaction_fallbacks.value()),
            static_cast<unsigned long long>(exec_stats_.device_attempts),
            static_cast<unsigned long long>(exec_stats_.device_retries),
            static_cast<unsigned long long>(exec_stats_.device_faults),
            static_cast<unsigned long long>(exec_stats_.verify_failures),
            exec_stats_.verify_micros / 1e3);
    std::string health = primary_executor_->HealthString();
    if (!health.empty()) {
      value->append(" ");
      value->append(health);
    }
    return true;
  } else if (in == Slice("background-error")) {
    // Error state machine in one line: state, sticky status, and how
    // many resume attempts have been spent since the last clean state.
    const char* state =
        bg_error_.ok() ? "ok"
                       : (bg_error_severity_ == BgErrorSeverity::kHard
                              ? "hard"
                              : "soft");
    AppendF(value, "state=%s resume-attempts=%d status=%s", state,
            resume_attempts_,
            bg_error_.ok() ? "OK" : bg_error_.ToString().c_str());
    return true;
  } else if (in == Slice("num-quarantined-files")) {
    // Corruption-containment state (DESIGN.md §14): how many live
    // tables reads are currently routing around while repair runs.
    AppendF(value, "%llu",
            static_cast<unsigned long long>(versions_->quarantine()->size()));
    return true;
  } else if (in == Slice("scheduler")) {
    // One line of parallel-compaction state: worker occupancy, claimed
    // level pairs, flush lane, and lifetime job counters (DESIGN.md §8).
    *value = scheduler_->DebugString();
    return true;
  } else if (in == Slice("sstables")) {
    *value = versions_->current()->DebugString();
    return true;
  } else if (in == Slice("approximate-memory-usage")) {
    size_t total_usage = 0;  // Block cache would be counted here too.
    if (mem_) {
      total_usage += mem_->ApproximateMemoryUsage();
    }
    if (imm_) {
      total_usage += imm_->ApproximateMemoryUsage();
    }
    char buf[50];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(total_usage));
    value->append(buf);
    return true;
  }

  return false;
}

void DBImpl::GetApproximateSizes(const Range* range, int n, uint64_t* sizes) {
  {
    MutexLock l(&mutex_);
    Version* v = versions_->current();
    v->Ref();

    for (int i = 0; i < n; i++) {
      // Convert user_key into a corresponding internal key.
      InternalKey k1(range[i].start, kMaxSequenceNumber, kValueTypeForSeek);
      InternalKey k2(range[i].limit, kMaxSequenceNumber, kValueTypeForSeek);
      uint64_t start = versions_->ApproximateOffsetOf(v, k1);
      uint64_t limit = versions_->ApproximateOffsetOf(v, k2);
      sizes[i] = (limit >= start ? limit - start : 0);
    }

    v->Unref();
  }
}

void DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  int max_level_with_files = 1;
  {
    MutexLock l(&mutex_);
    Version* base = versions_->current();
    for (int level = 1; level < kNumLevels; level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
  }
  // TODO(sanjay): Skip if memtable does not overlap.
  Status flush_status = TEST_CompactMemTable();
  if (!flush_status.ok()) {
    // The flush failure is already recorded in the background-error state
    // machine; range compaction against a stale memtable would mask it.
    return;
  }
  for (int level = 0; level < max_level_with_files; level++) {
    TEST_CompactRange(level, begin, end);
  }
}

CompactionExecStats DBImpl::OffloadStats() {
  MutexLock l(&mutex_);
  return exec_stats_;
}

int64_t DBImpl::FallbackCompactions() {
  return static_cast<int64_t>(metrics_->db_compaction_fallbacks.value());
}

DB::~DB() = default;

Status DB::Resume() {
  return Status::NotSupported("Resume not implemented by this DB");
}

Status DB::ScrubNow() {
  return Status::NotSupported("ScrubNow not implemented by this DB");
}

Status DB::Open(const Options& options, const std::string& dbname,
                DB** dbptr) {
  *dbptr = nullptr;

  DBImpl* impl = new DBImpl(options, dbname);
  const uint64_t recover_start_micros = impl->env_->NowMicros();
  impl->mutex_.Lock();
  VersionEdit edit;
  // Recover handles create_if_missing, error_if_exists.
  bool save_manifest = false;
  Status s = impl->Recover(&edit, &save_manifest);
  if (s.ok() && impl->mem_ == nullptr) {
    // Create new log and a corresponding memtable.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    WritableFile* lfile;
    s = options.env->NewWritableFile(LogFileName(dbname, new_log_number),
                                     &lfile);
    if (s.ok()) {
      // Make the log file's directory entry durable before anything is
      // synced into it (the first LogAndApply below normally covers
      // this, but not when no manifest write is needed).
      // fcae-check: allow(crash-point): open-time edge, pre-writes
      s = options.env->SyncDir(dbname);
    }
    if (s.ok()) {
      edit.SetLogNumber(new_log_number);
      impl->logfile_ = lfile;
      impl->logfile_number_ = new_log_number;
      impl->log_ = new log::Writer(lfile);
      impl->mem_ = new MemTable(impl->internal_comparator_);
      impl->mem_->Ref();
    }
  }
  if (s.ok() && save_manifest) {
    edit.SetLogNumber(impl->logfile_number_);
    s = impl->versions_->LogAndApply(&edit, &impl->mutex_);
  }
  if (s.ok()) {
    // Recovery reclaims anything a crashed incarnation left behind:
    // orphaned compaction/offload outputs, temp files, stale logs.
    impl->RemoveObsoleteFiles();
    impl->MaybeScheduleCompaction();
  }
  impl->mutex_.Unlock();
  if (s.ok()) {
    assert(impl->mem_ != nullptr);
    impl->metrics_->recovery_opens.Increment();
    impl->metrics_->recovery_micros.Increment(impl->env_->NowMicros() -
                                              recover_start_micros);
    if (impl->stats_dumper_ != nullptr) {
      impl->stats_dumper_->Start();
    }
    *dbptr = impl;
  } else {
    delete impl;
  }
  return s;
}

Status DestroyDB(const std::string& dbname, const Options& options) {
  Env* env = options.env;
  std::vector<std::string> filenames;
  Status result = env->GetChildren(dbname, &filenames);
  if (!result.ok()) {
    // Ignore error in case directory does not exist.
    return Status::OK();
  }

  FileLock* lock;
  const std::string lockname = LockFileName(dbname);
  result = env->LockFile(lockname, &lock);
  if (result.ok()) {
    uint64_t number;
    FileType type;
    for (size_t i = 0; i < filenames.size(); i++) {
      if (ParseFileName(filenames[i], &number, &type) &&
          type != FileType::kDBLockFile) {  // Lock file deleted at end.
        Status del = env->RemoveFile(dbname + "/" + filenames[i]);
        if (result.ok() && !del.ok()) {
          result = del;
        }
      }
    }
    // Ignore errors below: the DB state is already gone, and the dir may
    // legitimately hold files that are not ours.
    env->UnlockFile(lock).IgnoreError();
    env->RemoveFile(lockname).IgnoreError();
    env->RemoveDir(dbname).IgnoreError();
  }
  return result;
}

}  // namespace fcae
