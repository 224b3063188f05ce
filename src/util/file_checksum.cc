#include "util/file_checksum.h"

#include <algorithm>
#include <memory>

namespace fcae {

namespace {
// Matches the table read path's block granularity closely enough that a
// scrub pass produces the same I/O pattern a cold scan would, while
// keeping each RateLimiter request well under one burst window.
constexpr size_t kScrubChunkSize = 64 * 1024;
}  // namespace

Status ComputeFileChecksum(Env* env, const std::string& fname,
                           RateLimiter* limiter, uint32_t* crc,
                           uint64_t* size) {
  SequentialFile* file = nullptr;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<SequentialFile> file_guard(file);
  uint64_t file_size = 0;
  s = env->GetFileSize(fname, &file_size);
  if (!s.ok()) {
    return s;
  }
  std::unique_ptr<char[]> scratch(new char[kScrubChunkSize]);
  uint32_t running = 0;
  uint64_t total = 0;
  while (total < file_size) {
    // Charge only what this read can return, so the limiter sees the
    // file's size and not a whole chunk per read.
    const size_t want = static_cast<size_t>(
        std::min<uint64_t>(kScrubChunkSize, file_size - total));
    if (limiter != nullptr) {
      limiter->Request(want, RateLimiter::Priority::kLow);
    }
    Slice chunk;
    s = file->Read(want, &chunk, scratch.get());
    if (!s.ok()) {
      return s;
    }
    if (chunk.empty()) {
      break;  // Shorter than GetFileSize said; the caller sees *size.
    }
    running = crc32c::Extend(running, chunk.data(), chunk.size());
    total += chunk.size();
  }
  if (crc != nullptr) {
    *crc = running;
  }
  if (size != nullptr) {
    *size = total;
  }
  return Status::OK();
}

}  // namespace fcae
