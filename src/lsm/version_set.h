#ifndef FCAE_LSM_VERSION_SET_H_
#define FCAE_LSM_VERSION_SET_H_

// The representation of a DB consists of a set of Versions. The newest
// version is called "current". Older versions may be kept around to
// provide a consistent view to live iterators.
//
// Each Version keeps track of a set of table files per level. The entire
// set of versions is maintained in a VersionSet.

#include <map>
#include <set>
#include <vector>

#include "lsm/dbformat.h"
#include "lsm/quarantine.h"
#include "lsm/version_edit.h"
#include "util/mutex.h"
#include "util/options.h"
#include "util/thread_annotations.h"

namespace fcae {

namespace log {
class Writer;
}

class Compaction;
class Iterator;
class TableCache;
class Version;
class VersionSet;
class WritableFile;

/// Returns the smallest index i such that files[i]->largest >= key.
/// Returns files.size() if there is no such file. Requires: files is a
/// sorted, disjoint list.
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key);

/// Returns true iff some file in `files` overlaps the user key range
/// [*smallest_user_key, *largest_user_key] (nullptr = unbounded).
/// disjoint_sorted_files: true for levels > 0.
bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key);

class Version {
 public:
  struct GetStats {
    FileMetaData* seek_file;
    int seek_file_level;
  };

  /// Appends to *iters a sequence of iterators that will together yield
  /// the contents of this Version when merged.
  void AddIterators(const ReadOptions&, std::vector<Iterator*>* iters);

  /// Looks up the value for `key`; fills *stats for seek-triggered
  /// compaction accounting.
  Status Get(const ReadOptions&, const LookupKey& key, std::string* val,
             GetStats* stats);

  /// Adds `stats` into the state; returns true if a new compaction may
  /// need to be triggered.
  bool UpdateStats(const GetStats& stats);

  /// Records a sample of bytes read at the specified internal key.
  /// Returns true if a new compaction may need to be triggered.
  bool RecordReadSample(Slice key);

  /// Reference count management: live versions are pinned by iterators
  /// and the VersionSet itself.
  void Ref();
  void Unref();

  /// Stores in *inputs all files in `level` that overlap
  /// [begin, end] (nullptr = unbounded).
  void GetOverlappingInputs(int level, const InternalKey* begin,
                            const InternalKey* end,
                            std::vector<FileMetaData*>* inputs);

  /// Returns true iff some file in the specified level overlaps some
  /// part of [*smallest_user_key, *largest_user_key].
  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  /// Returns the level at which we should place a new memtable
  /// compaction result that covers the given user key range.
  int PickLevelForMemTableOutput(const Slice& smallest_user_key,
                                 const Slice& largest_user_key);

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }

  const std::vector<FileMetaData*>& files(int level) const {
    return files_[level];
  }

  std::string DebugString() const;

 private:
  friend class Compaction;
  friend class VersionSet;

  class LevelFileNumIterator;

  explicit Version(VersionSet* vset)
      : vset_(vset),
        next_(this),
        prev_(this),
        refs_(0),
        file_to_compact_(nullptr),
        file_to_compact_level_(-1) {
    for (int i = 0; i < kNumLevels; i++) {
      level_scores_[i] = -1;
    }
  }

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  ~Version();

  Iterator* NewConcatenatingIterator(const ReadOptions&, int level) const;

  /// Calls func(arg, level, f) for every file that may contain user_key,
  /// newest first; stops when func returns false.
  void ForEachOverlapping(Slice user_key, Slice internal_key, void* arg,
                          bool (*func)(void*, int, FileMetaData*));

  VersionSet* vset_;  // VersionSet to which this Version belongs.
  Version* next_;     // Next version in linked list.
  Version* prev_;     // Previous version in linked list.
  int refs_;          // Number of live refs to this version.

  // List of files per level.
  std::vector<FileMetaData*> files_[kNumLevels];

  // Next file to compact based on seek stats.
  FileMetaData* file_to_compact_;
  int file_to_compact_level_;

  // The leveled shape, computed once by VersionSet::Finalize(): bytes
  // per level, the ScoreLevels() scores (PickLevel() takes the
  // second-best level when the best pair is already being compacted),
  // and the compaction debt that PendingCompactionBytes() reports.
  int64_t level_bytes_[kNumLevels] = {};
  double level_scores_[kNumLevels];
  uint64_t compaction_debt_ = 0;
};

/// VersionSet is not internally synchronized: every mutating or
/// state-reading member requires external serialization, which in the
/// running system is DBImpl::mutex_ (the table cache it hands iterators
/// from is the one exception — that provides its own locking).
/// LogAndApply takes that mutex explicitly because it drops it around
/// the MANIFEST write.
class VersionSet {
 public:
  VersionSet(const std::string& dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator*);

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  ~VersionSet();

  /// Applies *edit to the current version to form a new descriptor that
  /// is both saved to persistent state and installed as the new current
  /// version. Releases *mu while writing to the file.
  Status LogAndApply(VersionEdit* edit, Mutex* mu) REQUIRES(mu);

  /// Recovers the last saved descriptor from persistent storage.
  Status Recover(bool* save_manifest);

  /// Makes the next LogAndApply install its edit into a fresh manifest
  /// (full snapshot + atomic CURRENT switch) regardless of size. Used
  /// by DB::Resume(): after a background error the tail of the current
  /// descriptor file is not to be trusted.
  void ForceNewManifest() { force_new_manifest_ = true; }

  Version* current() const { return current_; }

  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  /// Allocates and returns a new file number.
  uint64_t NewFileNumber() { return next_file_number_++; }

  /// Arranges to reuse `file_number` unless a newer one has been
  /// allocated. Requires: `file_number` was returned by NewFileNumber().
  void ReuseFileNumber(uint64_t file_number) {
    if (next_file_number_ == file_number + 1) {
      next_file_number_ = file_number;
    }
  }

  int NumLevelFiles(int level) const;
  int64_t NumLevelBytes(int level) const;

  /// Estimated bytes compactions still owe to restore the leveled
  /// shape: every level's overage past its MaxBytesForLevel target,
  /// plus L0 bytes in files beyond the compaction trigger. This is the
  /// WriteController's pending-bytes debt signal (DESIGN.md §10).
  uint64_t PendingCompactionBytes() const;

  uint64_t LastSequence() const { return last_sequence_; }
  void SetLastSequence(uint64_t s) {
    assert(s >= last_sequence_);
    last_sequence_ = s;
  }

  /// Marks the specified file number as used.
  void MarkFileNumberUsed(uint64_t number);

  uint64_t LogNumber() const { return log_number_; }

  /// Picks the level and inputs for a new compaction whose level pair
  /// (LevelPairMask) is free in `busy_levels`; nullptr if none is
  /// needed. The parallel scheduler runs compactions on disjoint level
  /// pairs concurrently. Caller owns the result.
  Compaction* PickCompaction(uint32_t busy_levels);

  /// Counts how many disjoint compactions successive
  /// PickCompaction(mask) calls could claim right now, starting from
  /// `busy_levels`. The scheduler uses this to size its worker dispatch.
  int CountClaimableCompactions(uint32_t busy_levels) const;

  /// Returns a compaction covering the range [begin, end] in the
  /// specified level, or nullptr.
  Compaction* CompactRange(int level, const InternalKey* begin,
                           const InternalKey* end);

  /// Creates an iterator over the entire compaction input set.
  Iterator* MakeInputIterator(Compaction* c);

  /// Adds all live file numbers to *live.
  void AddLiveFiles(std::set<uint64_t>* live);

  /// Approximate file-space offset of `key` in version `v`.
  uint64_t ApproximateOffsetOf(Version* v, const InternalKey& key);

  const Options* options() const { return options_; }
  const InternalKeyComparator& icmp() const { return icmp_; }
  TableCache* table_cache() const { return table_cache_; }
  const std::string& dbname() const { return dbname_; }

  /// Files quarantined for detected corruption (DESIGN.md §14). Unlike
  /// the rest of VersionSet this is internally synchronized: the read
  /// path consults it without the DB mutex.
  QuarantineSet* quarantine() { return &quarantine_; }
  const QuarantineSet* quarantine() const { return &quarantine_; }

  /// True iff any of `c`'s input files is currently quarantined. Such a
  /// compaction must not run: it would either merge corrupt bytes into
  /// a deeper level or fail mid-merge; the repair job owns those files.
  bool InputsQuarantined(const Compaction* c) const;

 private:
  class Builder;

  friend class Compaction;
  friend class Version;

  bool ReuseManifest(const std::string& dscname,
                     const std::string& dscbase);

  void Finalize(Version* v);

  void GetRange(const std::vector<FileMetaData*>& inputs,
                InternalKey* smallest, InternalKey* largest);

  void GetRange2(const std::vector<FileMetaData*>& inputs1,
                 const std::vector<FileMetaData*>& inputs2,
                 InternalKey* smallest, InternalKey* largest);

  void SetupOtherInputs(Compaction* c);

  /// Saves current contents to *log.
  Status WriteSnapshot(log::Writer* log);

  void AppendVersion(Version* v);

  Env* const env_;
  const std::string dbname_;
  const Options* const options_;
  TableCache* const table_cache_;
  const InternalKeyComparator icmp_;
  uint64_t next_file_number_;
  uint64_t manifest_file_number_;
  uint64_t last_sequence_;
  uint64_t log_number_;

  // Opened lazily.
  WritableFile* descriptor_file_;
  log::Writer* descriptor_log_;
  // Bytes in the current descriptor file (for size-triggered rollover)
  // and the Resume()-requested rollover flag; both are guarded by the
  // same external serialization as the descriptor itself.
  uint64_t manifest_file_bytes_ = 0;
  bool force_new_manifest_ = false;
  Version dummy_versions_;  // Head of circular doubly-linked list.
  Version* current_;        // == dummy_versions_.prev_

  // Per-level key at which the next compaction at that level should
  // start. Either an empty string, or a valid InternalKey.
  std::string compact_pointer_[kNumLevels];

  // Corruption containment state; see quarantine().
  QuarantineSet quarantine_;
};

/// A Compaction encapsulates information about a compaction: the level,
/// the input files at level and level+1, and bookkeeping for the edit
/// that installs the results.
class Compaction {
 public:
  ~Compaction();

  /// The level being compacted: inputs from "level" and "level+1" are
  /// merged to produce a set of "level+1" files.
  int level() const { return level_; }

  /// The edit to apply to the current version to install this
  /// compaction's results.
  VersionEdit* edit() { return &edit_; }

  /// `which` must be 0 (level) or 1 (level+1).
  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }

  /// Returns the i-th input file at level() + which.
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }

  const std::vector<FileMetaData*>& inputs(int which) const {
    return inputs_[which];
  }

  /// Maximum size of files to build during this compaction.
  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  /// True if this compaction can be implemented by just moving a single
  /// input file to the next level (no merging or splitting).
  bool IsTrivialMove() const;

  /// Adds all inputs to this compaction as delete operations to *edit.
  void AddInputDeletions(VersionEdit* edit);

  /// Returns true if the information we have available guarantees that
  /// the compaction is producing data in "level+1" for which no data
  /// exists in levels greater than "level+1" — i.e. a deletion marker
  /// for user_key can be dropped.
  bool IsBaseLevelForKey(const Slice& user_key);

  /// True iff we should stop building the current output before
  /// processing internal_key, to bound future grandparent overlap.
  bool ShouldStopBefore(const Slice& internal_key);

  /// Releases the input version (once the compaction is done).
  void ReleaseInputs();

 private:
  friend class Version;
  friend class VersionSet;

  Compaction(const Options* options, int level);

  int level_;
  uint64_t max_output_file_size_;
  Version* input_version_;
  VersionEdit edit_;

  // Each compaction reads inputs from "level_" and "level_+1".
  std::vector<FileMetaData*> inputs_[2];

  // State used to check for number of overlapping grandparent files
  // (parent == level_ + 1, grandparent == level_ + 2).
  std::vector<FileMetaData*> grandparents_;
  size_t grandparent_index_;  // Index in grandparents_.
  bool seen_key_;             // Some output key has been seen.
  int64_t overlapped_bytes_;  // Bytes of overlap with grandparents.

  // level_ptrs_ holds indices into input_version_->files_: our state is
  // that we are positioned at one of the file ranges for each higher
  // level than the ones involved in this compaction (i.e. for all
  // L >= level_ + 2).
  size_t level_ptrs_[kNumLevels];
};

}  // namespace fcae

#endif  // FCAE_LSM_VERSION_SET_H_
