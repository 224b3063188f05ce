#include <memory>

#include "lsm/compaction_executor.h"
#include "lsm/filename.h"
#include "lsm/table_cache.h"
#include "obs/trace.h"
#include "table/table_builder.h"
#include "util/env.h"
#include "util/file_checksum.h"
#include "util/rate_limiter.h"

namespace fcae {

namespace {

/// The software merge path: a straightforward single-threaded N-way
/// merge over the input tables, applying the shared drop rule, writing
/// standard SSTables via TableBuilder. This is the paper's CPU baseline
/// ("single CPU thread") measured in Table V.
class CpuCompactionExecutor : public CompactionExecutor {
 public:
  const char* Name() const override { return "cpu"; }

  bool CanExecute(const CompactionJob& job) const override { return true; }

  Status Execute(const CompactionJob& job,
                 std::vector<CompactionOutput>* outputs,
                 CompactionExecStats* stats) override {
    Env* env = job.options->env;
    const uint64_t start_micros = env->NowMicros();

    // The whole software path is one merge stage (read + merge + write
    // are interleaved in the loop below), so it traces as one span.
    obs::SpanTimer merge_span(job.trace, "merge", "cpu", job.trace_tid);

    std::unique_ptr<Iterator> input(job.make_input_iterator());
    input->SeekToFirst();

    Status status;
    CompactionDropRule drop_rule(job.icmp->user_comparator(),
                                 job.smallest_snapshot, job.no_deeper_data);

    WritableFile* outfile = nullptr;
    ChecksumWritableFile* checksum_file = nullptr;  // Aliases outfile.
    std::unique_ptr<TableBuilder> builder;
    CompactionOutput current;

    auto finish_output = [&]() -> Status {
      assert(builder != nullptr);
      Status s = builder->Finish();
      current.file_size = builder->FileSize();
      current.file_checksum = checksum_file->checksum();
      current.has_file_checksum = true;
      builder.reset();
      if (s.ok()) s = outfile->Sync();
      if (s.ok()) s = outfile->Close();
      delete outfile;
      outfile = nullptr;
      checksum_file = nullptr;
      if (s.ok() && current.file_size > 0) {
        outputs->push_back(current);
        stats->bytes_written += current.file_size;
        // Verify usability.
        ReadOptions verify_options;
        verify_options.verify_checksums = job.options->paranoid_checks;
        verify_options.fill_cache = false;
        Iterator* it = job.table_cache->NewIterator(
            verify_options, current.number, current.file_size);
        s = it->status();
        delete it;
      }
      return s;
    };

    for (; input->Valid() && status.ok(); input->Next()) {
      Slice key = input->key();
      stats->entries_in++;
      if (drop_rule.ShouldDrop(key)) {
        stats->entries_dropped++;
        continue;
      }

      // Open output file if necessary.
      if (builder == nullptr) {
        current = CompactionOutput();
        current.number = job.new_file_number();
        std::string fname = TableFileName(job.dbname, current.number);
        status = env->NewWritableFile(fname, &outfile);
        if (!status.ok()) break;
        if (job.options->rate_limiter != nullptr) {
          // Compaction output rides the low-priority lane so a capped
          // background budget serves flushes first.
          outfile = new RateLimitedWritableFile(
              outfile, job.options->rate_limiter,
              RateLimiter::Priority::kLow);
        }
        checksum_file = new ChecksumWritableFile(outfile);
        outfile = checksum_file;
        builder = std::make_unique<TableBuilder>(*job.options, outfile);
        current.smallest.DecodeFrom(key);
      }
      current.largest.DecodeFrom(key);
      builder->Add(key, input->value());

      // Close output file if it is big enough.
      if (builder->FileSize() >= job.compaction->MaxOutputFileSize()) {
        status = finish_output();
      }
    }

    if (status.ok() && builder != nullptr) {
      status = finish_output();
    } else if (builder != nullptr) {
      builder->Abandon();
      builder.reset();
      delete outfile;
    }

    if (status.ok()) {
      status = input->status();
    }

    merge_span.AddArg("entries_in", std::to_string(stats->entries_in));
    merge_span.AddArg("entries_dropped",
                      std::to_string(stats->entries_dropped));
    stats->micros += env->NowMicros() - start_micros;
    return status;
  }
};

}  // namespace

CompactionExecutor* NewCpuCompactionExecutor() {
  return new CpuCompactionExecutor();
}

}  // namespace fcae
