#ifndef FCAE_UTIL_FILE_CHECKSUM_H_
#define FCAE_UTIL_FILE_CHECKSUM_H_

#include <cstdint>
#include <string>

#include "util/crc32c.h"
#include "util/env.h"
#include "util/rate_limiter.h"
#include "util/status.h"

namespace fcae {

/// A WritableFile decorator that folds every appended byte into a
/// running crc32c. Wrapped around table output files at the three
/// install sites (flush, CPU compaction, offload assembly) so the
/// whole-file checksum recorded in the manifest is computed from the
/// exact bytes handed to the filesystem — no second read pass, and no
/// window where the file could differ from what was hashed.
///
/// The checksum domain is the full file image, footer included, which
/// makes it strictly stronger than the per-block trailer CRCs: it also
/// covers the index/metaindex blocks and the block trailers themselves.
class ChecksumWritableFile : public WritableFile {
 public:
  /// Takes ownership of `target`.
  explicit ChecksumWritableFile(WritableFile* target) : target_(target) {}
  ~ChecksumWritableFile() override { delete target_; }

  Status Append(const Slice& data) override {
    crc_ = crc32c::Extend(crc_, data.data(), data.size());
    bytes_ += data.size();
    return target_->Append(data);
  }
  Status Close() override { return target_->Close(); }
  Status Flush() override { return target_->Flush(); }
  Status Sync() override { return target_->Sync(); }

  /// crc32c of everything appended so far (unmasked).
  uint32_t checksum() const { return crc_; }
  uint64_t bytes_written() const { return bytes_; }

 private:
  WritableFile* const target_;
  uint32_t crc_ = 0;
  uint64_t bytes_ = 0;
};

/// Re-reads `fname` sequentially and computes its whole-file crc32c.
/// Used by the scrubber to compare at-rest bytes against the manifest's
/// recorded checksum. Reads in bounded chunks up to the size
/// GetFileSize() reports; when `limiter` is non-null every chunk is
/// charged, for the bytes it reads, against the low-priority lane first
/// so scrubbing yields to flushes and foreground-driven compactions.
/// On success stores the crc in *crc and the byte count in *size
/// (either may be null).
[[nodiscard]] Status ComputeFileChecksum(Env* env, const std::string& fname,
                                         RateLimiter* limiter, uint32_t* crc,
                                         uint64_t* size);

}  // namespace fcae

#endif  // FCAE_UTIL_FILE_CHECKSUM_H_
