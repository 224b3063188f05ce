#include "lsm/repair.h"

#include <memory>
#include <vector>

#include "lsm/builder.h"
#include "lsm/db_impl.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "lsm/memtable.h"
#include "lsm/table_cache.h"
#include "lsm/version_edit.h"
#include "lsm/write_batch.h"
#include "table/iterator.h"
#include "table/table_verifier.h"
#include "util/env.h"

namespace fcae {

namespace {

class Repairer {
 public:
  Repairer(const std::string& dbname, const Options& options)
      : dbname_(dbname),
        env_(options.env),
        icmp_(options.comparator),
        ipolicy_(options.filter_policy),
        options_(SanitizeOptions(dbname, &icmp_, &ipolicy_, options)),
        next_file_number_(1) {
    // TableCache can be small since we expect 2 usages here.
    table_cache_ = new TableCache(dbname_, options_, 10);
  }

  ~Repairer() { delete table_cache_; }

  Status Run() {
    Status status = FindFiles();
    if (status.ok()) {
      ConvertLogFilesToTables();
      ExtractMetaData();
      status = WriteDescriptor();
    }
    return status;
  }

 private:
  struct TableInfo {
    FileMetaData meta;
    SequenceNumber max_sequence;
  };

  Status FindFiles() {
    std::vector<std::string> filenames;
    Status status = env_->GetChildren(dbname_, &filenames);
    if (!status.ok()) {
      return status;
    }
    if (filenames.empty()) {
      return Status::IOError(dbname_, "repair found no files");
    }

    uint64_t number;
    FileType type;
    for (size_t i = 0; i < filenames.size(); i++) {
      if (ParseFileName(filenames[i], &number, &type)) {
        if (type == FileType::kDescriptorFile) {
          manifests_.push_back(filenames[i]);
        } else {
          if (number + 1 > next_file_number_) {
            next_file_number_ = number + 1;
          }
          if (type == FileType::kLogFile) {
            logs_.push_back(number);
          } else if (type == FileType::kTableFile) {
            table_numbers_.push_back(number);
          } else {
            // Ignore other files.
          }
        }
      }
    }
    return status;
  }

  void ConvertLogFilesToTables() {
    for (size_t i = 0; i < logs_.size(); i++) {
      std::string logname = LogFileName(dbname_, logs_[i]);
      Status status = ConvertLogToTable(logs_[i]);
      if (!status.ok()) {
        std::fprintf(stderr, "Log #%llu: ignoring conversion error: %s\n",
                     static_cast<unsigned long long>(logs_[i]),
                     status.ToString().c_str());
      }
      ArchiveFile(logname);
    }
  }

  Status ConvertLogToTable(uint64_t log) {
    struct LogReporter : public log::Reader::Reporter {
      uint64_t lognum;
      void Corruption(size_t bytes, const Status& s) override {
        std::fprintf(stderr, "Log #%llu: dropping %d bytes; %s\n",
                     static_cast<unsigned long long>(lognum),
                     static_cast<int>(bytes), s.ToString().c_str());
      }
    };

    // Open the log file.
    std::string logname = LogFileName(dbname_, log);
    SequentialFile* lfile;
    Status status = env_->NewSequentialFile(logname, &lfile);
    if (!status.ok()) {
      return status;
    }

    // Create the log reader.
    LogReporter reporter;
    reporter.lognum = log;
    // Do not check checksums: the whole point is recovering whatever
    // parses.
    log::Reader reader(lfile, &reporter, false /*checksum*/);

    // Read all the records and add to a memtable.
    std::string scratch;
    Slice record;
    WriteBatch batch;
    MemTable* mem = new MemTable(icmp_);
    mem->Ref();
    int counter = 0;
    while (reader.ReadRecord(&record, &scratch)) {
      if (record.size() < 12) {
        reporter.Corruption(record.size(),
                            Status::Corruption("log record too small"));
        continue;
      }
      WriteBatchInternal::SetContents(&batch, record);
      status = WriteBatchInternal::InsertInto(&batch, mem);
      if (status.ok()) {
        counter += WriteBatchInternal::Count(&batch);
      } else {
        std::fprintf(stderr, "Log #%llu: ignoring %s\n",
                     static_cast<unsigned long long>(log),
                     status.ToString().c_str());
        status = Status::OK();  // Keep going with the rest of the file.
      }
    }
    delete lfile;

    // Do not record a version edit for this conversion to a Table since
    // ExtractMetaData() will scan the archived log file to recompute it.
    FileMetaData meta;
    meta.number = next_file_number_++;
    Iterator* iter = mem->NewIterator();
    status = BuildTable(dbname_, env_, options_, table_cache_, iter, &meta);
    delete iter;
    mem->Unref();
    mem = nullptr;
    if (status.ok()) {
      if (meta.file_size > 0) {
        table_numbers_.push_back(meta.number);
      }
    }
    std::fprintf(stderr, "Log #%llu: %d ops saved to Table #%llu %s\n",
                 static_cast<unsigned long long>(log), counter,
                 static_cast<unsigned long long>(meta.number),
                 status.ToString().c_str());
    return status;
  }

  void ExtractMetaData() {
    for (size_t i = 0; i < table_numbers_.size(); i++) {
      ScanTable(table_numbers_[i]);
    }
  }

  void ScanTable(uint64_t number) {
    TableInfo t;
    t.meta.number = number;
    std::string fname = TableFileName(dbname_, number);
    // With no manifest facts the structural walk decides alone. It
    // checks every block CRC regardless of Options::paranoid_checks, so
    // repair never resurrects rotten bytes.
    TableVerifyReport report;
    Status status = env_->GetFileSize(fname, &t.meta.file_size);
    if (status.ok()) {
      status = VerifyTable(env_, options_, fname, TableVerifySpec(), &report);
    }
    if (status.ok() && report.walk.entries == 0) {
      status = Status::Corruption("table holds no entries");
    }
    std::fprintf(stderr, "Table #%llu: %llu entries %s\n",
                 static_cast<unsigned long long>(number),
                 static_cast<unsigned long long>(report.walk.entries),
                 status.ToString().c_str());
    if (status.ok()) {
      t.meta.smallest.DecodeFrom(report.walk.smallest);
      t.meta.largest.DecodeFrom(report.walk.largest);
      t.max_sequence = report.walk.max_sequence;
      tables_.push_back(t);
    } else {
      ArchiveFile(fname);  // Moves the bad table aside.
    }
  }

  Status WriteDescriptor() {
    std::string tmp = TempFileName(dbname_, 1);
    WritableFile* file;
    Status status = env_->NewWritableFile(tmp, &file);
    if (!status.ok()) {
      return status;
    }

    SequenceNumber max_sequence = 0;
    for (size_t i = 0; i < tables_.size(); i++) {
      if (max_sequence < tables_[i].max_sequence) {
        max_sequence = tables_[i].max_sequence;
      }
    }

    VersionEdit edit;
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    edit.SetLogNumber(0);
    edit.SetNextFile(next_file_number_);
    edit.SetLastSequence(max_sequence);

    for (size_t i = 0; i < tables_.size(); i++) {
      // All tables land in level 0: their ranges may overlap, and
      // level 0 is the only level allowed to overlap. Normal
      // compaction re-sorts them over time.
      const TableInfo& t = tables_[i];
      edit.AddFile(0, t.meta);
    }

    {
      log::Writer log(file);
      std::string record;
      edit.EncodeTo(&record);
      status = log.AddRecord(record);
    }
    if (status.ok()) {
      status = file->Close();
    }
    delete file;
    file = nullptr;

    if (!status.ok()) {
      env_->RemoveFile(tmp).IgnoreError();  // best-effort tmp cleanup
      return status;
    }

    // Discard older manifests.
    for (size_t i = 0; i < manifests_.size(); i++) {
      ArchiveFile(dbname_ + "/" + manifests_[i]);
    }

    // Install new manifest.
    status = env_->RenameFile(tmp, DescriptorFileName(dbname_, 1));
    if (status.ok()) {
      status = SetCurrentFile(env_, dbname_, 1);
    } else {
      env_->RemoveFile(tmp).IgnoreError();  // best-effort tmp cleanup
    }
    return status;
  }

  void ArchiveFile(const std::string& fname) {
    // Move into another directory: rooted at the same dbname with a
    // "lost" suffix (the mem env has no real directories; a renamed
    // path works for both envs).
    const char* slash = strrchr(fname.c_str(), '/');
    std::string new_dir;
    if (slash != nullptr) {
      new_dir.assign(fname.data(), slash - fname.data());
    }
    new_dir.append("/lost");
    // Ignore error: if the lost/ dir cannot be made, the rename below
    // fails and the file stays where it was.
    env_->CreateDir(new_dir).IgnoreError();
    std::string new_file = new_dir;
    new_file.append("/");
    new_file.append((slash == nullptr) ? fname.c_str() : slash + 1);
    Status s = env_->RenameFile(fname, new_file);
    std::fprintf(stderr, "Archiving %s: %s\n", fname.c_str(),
                 s.ToString().c_str());
  }

  const std::string dbname_;
  Env* const env_;
  InternalKeyComparator const icmp_;
  InternalFilterPolicy const ipolicy_;
  const Options options_;
  TableCache* table_cache_;

  std::vector<std::string> manifests_;
  std::vector<uint64_t> table_numbers_;
  std::vector<uint64_t> logs_;
  std::vector<TableInfo> tables_;
  uint64_t next_file_number_;
};

}  // namespace

Status RepairDB(const std::string& dbname, const Options& options) {
  Repairer repairer(dbname, options);
  return repairer.Run();
}

}  // namespace fcae
