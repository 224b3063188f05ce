#include "lsm/dbformat.h"

#include <cassert>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace fcae {

void AppendInternalKey(std::string* result, const ParsedInternalKey& key) {
  result->append(key.user_key.data(), key.user_key.size());
  PutFixed64(result, PackSequenceAndType(key.sequence, key.type));
}

std::string ParsedInternalKey::DebugString() const {
  std::ostringstream ss;
  ss << '\'' << user_key.ToString() << "' @ " << sequence << " : "
     << static_cast<int>(type);
  return ss.str();
}

std::string InternalKey::DebugString() const {
  ParsedInternalKey parsed;
  if (ParseInternalKey(rep_, &parsed)) {
    return parsed.DebugString();
  }
  std::ostringstream ss;
  ss << "(bad)" << rep_;
  return ss.str();
}

const char* InternalKeyComparator::Name() const {
  return "fcae.InternalKeyComparator";
}

int InternalKeyComparator::Compare(const Slice& akey, const Slice& bkey) const {
  // Order by:
  //    increasing user key (according to user-supplied comparator)
  //    decreasing sequence number
  //    decreasing type (though sequence# should be enough to disambiguate)
  int r = user_comparator_->Compare(ExtractUserKey(akey), ExtractUserKey(bkey));
  if (r == 0) {
    const uint64_t anum = ExtractMark(akey);
    const uint64_t bnum = ExtractMark(bkey);
    if (anum > bnum) {
      r = -1;
    } else if (anum < bnum) {
      r = +1;
    }
  }
  return r;
}

void InternalKeyComparator::FindShortestSeparator(std::string* start,
                                                  const Slice& limit) const {
  // Attempt to shorten the user portion of the key.
  Slice user_start = ExtractUserKey(*start);
  Slice user_limit = ExtractUserKey(limit);
  std::string tmp(user_start.data(), user_start.size());
  user_comparator_->FindShortestSeparator(&tmp, user_limit);
  if (tmp.size() < user_start.size() &&
      user_comparator_->Compare(user_start, tmp) < 0) {
    // User key has become shorter physically, but larger logically.
    // Tack on the earliest possible number to the shortened user key.
    PutFixed64(&tmp,
               PackSequenceAndType(kMaxSequenceNumber, kValueTypeForSeek));
    assert(this->Compare(*start, tmp) < 0);
    assert(this->Compare(tmp, limit) < 0);
    start->swap(tmp);
  }
}

void InternalKeyComparator::FindShortSuccessor(std::string* key) const {
  Slice user_key = ExtractUserKey(*key);
  std::string tmp(user_key.data(), user_key.size());
  user_comparator_->FindShortSuccessor(&tmp);
  if (tmp.size() < user_key.size() &&
      user_comparator_->Compare(user_key, tmp) < 0) {
    // User key has become shorter physically, but larger logically.
    PutFixed64(&tmp,
               PackSequenceAndType(kMaxSequenceNumber, kValueTypeForSeek));
    assert(this->Compare(*key, tmp) < 0);
    key->swap(tmp);
  }
}

double MaxBytesForLevel(int level, int leveling_ratio) {
  assert(level >= 1);
  double result = 10. * 1048576.0;
  for (int l = 1; l < level; l++) {
    result *= leveling_ratio;
  }
  return result;
}

void ScoreLevels(int l0_files, const double level_bytes[kNumLevels],
                 int leveling_ratio, double scores[kNumLevels]) {
  // Level 0 is bounded by file count instead of bytes for two reasons:
  //
  // (1) With larger write-buffer sizes, it is nice not to do too many
  // level-0 compactions.
  //
  // (2) The files in level-0 are merged on every read and therefore we
  // wish to avoid too many files when the individual file size is small
  // (perhaps because of a small write-buffer setting, or very high
  // compression ratios, or lots of overwrites/deletions).
  scores[0] = l0_files / static_cast<double>(kL0CompactionTrigger);
  for (int level = 1; level < kNumLevels - 1; level++) {
    scores[level] =
        level_bytes[level] / MaxBytesForLevel(level, leveling_ratio);
  }
  scores[kNumLevels - 1] = -1;
}

int PickLevel(const double scores[kNumLevels], uint32_t busy_levels) {
  int best_level = -1;
  double best_score = -1;
  for (int level = 0; level < kNumLevels - 1; level++) {
    if ((busy_levels & LevelPairMask(level)) != 0) continue;
    if (scores[level] > best_score) {
      best_level = level;
      best_score = scores[level];
    }
  }
  return best_score >= 1 ? best_level : -1;
}

bool CompactionDropRule::ShouldDrop(const Slice& internal_key) {
  ParsedInternalKey ikey;
  if (!ParseInternalKey(internal_key, &ikey)) {
    has_user_key_ = false;
    last_sequence_ = kMaxSequenceNumber;
    return false;
  }
  if (!has_user_key_ ||
      user_comparator_->Compare(ikey.user_key, Slice(user_key_)) != 0) {
    // First occurrence of this user key.
    user_key_.assign(ikey.user_key.data(), ikey.user_key.size());
    has_user_key_ = true;
    last_sequence_ = kMaxSequenceNumber;
  }
  // Hidden by a newer entry for the same user key, or an obsolete
  // tombstone with no deeper data to hide.
  const bool drop = last_sequence_ <= smallest_snapshot_ ||
                    (ikey.type == kTypeDeletion &&
                     ikey.sequence <= smallest_snapshot_ && drop_deletions_);
  last_sequence_ = ikey.sequence;
  return drop;
}

const char* InternalFilterPolicy::Name() const { return user_policy_->Name(); }

void InternalFilterPolicy::CreateFilter(const Slice* keys, int n,
                                        std::string* dst) const {
  // We rely on the fact that the code in table.cc does not mind us
  // adjusting keys[].
  Slice* mkey = const_cast<Slice*>(keys);
  for (int i = 0; i < n; i++) {
    mkey[i] = ExtractUserKey(keys[i]);
  }
  user_policy_->CreateFilter(keys, n, dst);
}

bool InternalFilterPolicy::KeyMayMatch(const Slice& key,
                                       const Slice& f) const {
  return user_policy_->KeyMayMatch(ExtractUserKey(key), f);
}

LookupKey::LookupKey(const Slice& user_key, SequenceNumber s) {
  size_t usize = user_key.size();
  size_t needed = usize + 13;  // A conservative estimate.
  char* dst;
  if (needed <= sizeof(space_)) {
    dst = space_;
  } else {
    dst = new char[needed];
  }
  start_ = dst;
  dst = EncodeVarint32(dst, static_cast<uint32_t>(usize + 8));
  kstart_ = dst;
  std::memcpy(dst, user_key.data(), usize);
  dst += usize;
  EncodeFixed64(dst, PackSequenceAndType(s, kValueTypeForSeek));
  dst += 8;
  end_ = dst;
}

}  // namespace fcae
