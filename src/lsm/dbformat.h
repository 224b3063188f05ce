#ifndef FCAE_LSM_DBFORMAT_H_
#define FCAE_LSM_DBFORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/coding.h"
#include "util/comparator.h"
#include "util/filter_policy.h"
#include "util/slice.h"

namespace fcae {

/// Maximum number of levels in the LSM tree.
constexpr int kNumLevels = 7;

/// Level-0 compaction is started when we hit this many files.
constexpr int kL0CompactionTrigger = 4;

/// Soft limit on number of level-0 files: writes are slowed at this point.
constexpr int kL0SlowdownWritesTrigger = 8;

/// Maximum number of level-0 files: writes are stopped at this point.
constexpr int kL0StopWritesTrigger = 12;

/// Maximum level to which a new compacted memtable is pushed if it does
/// not create overlap.
constexpr int kMaxMemCompactLevel = 2;

// The leveled compaction trigger, shared by VersionSet, the
// CompactionScheduler and syssim's LsmState.

/// The busy-level bits a compaction at `level` claims: it reads `level`
/// and writes `level + 1`, so concurrent jobs run on disjoint pairs.
constexpr uint32_t LevelPairMask(int level) { return 3u << level; }

/// Target bytes of `level` (>= 1): 10 MiB at L1, times `leveling_ratio`
/// per level below (paper Table IV: ratio 10, swept 4..16 in Fig. 15d).
double MaxBytesForLevel(int level, int leveling_ratio);

/// Fills the compaction score of every level: L0's file count over
/// kL0CompactionTrigger, each deeper level's bytes over its
/// MaxBytesForLevel target. A score of at least 1 means the level needs
/// a compaction. The last level has none below it and scores -1.
void ScoreLevels(int l0_files, const double level_bytes[kNumLevels],
                 int leveling_ratio, double scores[kNumLevels]);

/// The level to compact next: the highest score of at least 1 whose
/// LevelPairMask is free in `busy_levels`, the lowest level on a tie;
/// -1 when no free pair needs a compaction.
int PickLevel(const double scores[kNumLevels], uint32_t busy_levels);

/// The value type tag stored in the low 8 bits of the 64-bit mark field.
enum ValueType : uint8_t {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
};

/// kValueTypeForSeek defines the ValueType that should be passed when
/// constructing a ParsedInternalKey object for seeking to a particular
/// sequence number (since we sort sequence numbers in decreasing order
/// and the value type is embedded as the low 8 bits in the sequence
/// number in internal keys, we need to use the highest-numbered
/// ValueType, not the lowest).
constexpr ValueType kValueTypeForSeek = kTypeValue;

using SequenceNumber = uint64_t;

/// Sequence numbers occupy the top 56 bits of the 64-bit mark field.
constexpr SequenceNumber kMaxSequenceNumber = ((0x1ull << 56) - 1);

/// An internal key decomposed into its parts. The paper's "mark fields"
/// (the trailing 8 bytes after the user key) are exactly
/// (sequence << 8) | type.
struct ParsedInternalKey {
  ParsedInternalKey() = default;
  ParsedInternalKey(const Slice& u, const SequenceNumber& seq, ValueType t)
      : user_key(u), sequence(seq), type(t) {}

  Slice user_key;
  SequenceNumber sequence = 0;
  ValueType type = kTypeValue;

  std::string DebugString() const;
};

/// Length of the encoding of `key`.
inline size_t InternalKeyEncodingLength(const ParsedInternalKey& key) {
  return key.user_key.size() + 8;
}

/// Appends the serialization of `key` to *result.
void AppendInternalKey(std::string* result, const ParsedInternalKey& key);

/// Parses an internal key; returns false on malformed input.
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

/// Returns the user key portion of an internal key.
inline Slice ExtractUserKey(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return Slice(internal_key.data(), internal_key.size() - 8);
}

/// Returns the raw 64-bit mark field ((sequence << 8) | type).
inline uint64_t ExtractMark(const Slice& internal_key) {
  assert(internal_key.size() >= 8);
  return DecodeFixed64(internal_key.data() + internal_key.size() - 8);
}

/// Packs a sequence number and value type into a mark field.
inline uint64_t PackSequenceAndType(uint64_t seq, ValueType t) {
  assert(seq <= kMaxSequenceNumber);
  return (seq << 8) | t;
}

/// A comparator for internal keys: orders by user key ascending, then by
/// sequence number descending (newer entries first), then type
/// descending.
class InternalKeyComparator : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* c) : user_comparator_(c) {}

  const char* Name() const override;
  int Compare(const Slice& a, const Slice& b) const override;
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override;
  void FindShortSuccessor(std::string* key) const override;

  const Comparator* user_comparator() const { return user_comparator_; }

  int Compare(const class InternalKey& a, const class InternalKey& b) const;

 private:
  const Comparator* user_comparator_;
};

/// Filter policy wrapper that converts internal keys to user keys before
/// consulting the user-supplied policy.
class InternalFilterPolicy : public FilterPolicy {
 public:
  explicit InternalFilterPolicy(const FilterPolicy* p) : user_policy_(p) {}
  const char* Name() const override;
  void CreateFilter(const Slice* keys, int n, std::string* dst) const override;
  bool KeyMayMatch(const Slice& key, const Slice& filter) const override;

 private:
  const FilterPolicy* const user_policy_;
};

/// InternalKey owns the encoded bytes of an internal key. Using a class
/// instead of a plain string avoids accidentally mixing user keys and
/// internal keys.
class InternalKey {
 public:
  InternalKey() = default;  // Leave rep_ as empty to indicate it is invalid.
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, ParsedInternalKey(user_key, s, t));
  }

  bool DecodeFrom(const Slice& s) {
    rep_.assign(s.data(), s.size());
    return !rep_.empty();
  }

  Slice Encode() const {
    assert(!rep_.empty());
    return rep_;
  }

  Slice user_key() const { return ExtractUserKey(rep_); }

  void SetFrom(const ParsedInternalKey& p) {
    rep_.clear();
    AppendInternalKey(&rep_, p);
  }

  void Clear() { rep_.clear(); }

  std::string DebugString() const;

 private:
  std::string rep_;
};

inline int InternalKeyComparator::Compare(const InternalKey& a,
                                          const InternalKey& b) const {
  return Compare(a.Encode(), b.Encode());
}

inline bool ParseInternalKey(const Slice& internal_key,
                             ParsedInternalKey* result) {
  const size_t n = internal_key.size();
  if (n < 8) return false;
  uint64_t num = DecodeFixed64(internal_key.data() + n - 8);
  uint8_t c = num & 0xff;
  result->sequence = num >> 8;
  result->type = static_cast<ValueType>(c);
  result->user_key = Slice(internal_key.data(), n - 8);
  return (c <= static_cast<uint8_t>(kTypeValue));
}

/// LevelDB's compaction drop rule, the one copy behind the card's
/// Validity Check and both CPU merges. Feed it every internal key of a
/// merge in output order. A key is dropped when a newer version of its
/// user key at or below `smallest_snapshot` came before it, or when it
/// is a tombstone at or below the snapshot and `drop_deletions` says no
/// deeper level holds the key. An unparsable key is kept, so corruption
/// is not hidden, and it resets the rule.
class CompactionDropRule {
 public:
  CompactionDropRule(const Comparator* user_comparator,
                     SequenceNumber smallest_snapshot, bool drop_deletions)
      : user_comparator_(user_comparator),
        smallest_snapshot_(smallest_snapshot),
        drop_deletions_(drop_deletions) {}

  bool ShouldDrop(const Slice& internal_key);

 private:
  const Comparator* const user_comparator_;
  const SequenceNumber smallest_snapshot_;
  const bool drop_deletions_;
  bool has_user_key_ = false;
  std::string user_key_;  // The last user key seen, if has_user_key_.
  SequenceNumber last_sequence_ = kMaxSequenceNumber;  // Its last version.
};

/// A helper class useful for DB::Get(): holds one allocation with
/// the memtable lookup key (length-prefixed internal key) and the
/// internal key.
class LookupKey {
 public:
  /// Initializes *this for looking up user_key at snapshot `sequence`.
  LookupKey(const Slice& user_key, SequenceNumber sequence);

  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  ~LookupKey();

  /// A key suitable for lookup in a MemTable.
  Slice memtable_key() const { return Slice(start_, end_ - start_); }

  /// An internal key (suitable for passing to an internal iterator).
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }

  /// The user key.
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  // We construct a char array of the form:
  //    klength  varint32               <-- start_
  //    userkey  char[klength]          <-- kstart_
  //    tag      uint64
  //                                    <-- end_
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];  // Avoid allocation for short keys.
};

inline LookupKey::~LookupKey() {
  if (start_ != space_) delete[] start_;
}

}  // namespace fcae

#endif  // FCAE_LSM_DBFORMAT_H_
