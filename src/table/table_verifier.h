#ifndef FCAE_TABLE_TABLE_VERIFIER_H_
#define FCAE_TABLE_TABLE_VERIFIER_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "table/format.h"
#include "util/env.h"
#include "util/options.h"
#include "util/rate_limiter.h"
#include "util/status.h"

namespace fcae {

class Comparator;
class FilterBlockBuilder;

/// What a BlockWalker has seen: the data blocks that passed its checks.
struct BlockWalkStats {
  uint64_t blocks = 0;
  uint64_t entries = 0;
  std::string smallest;  // First and last key (encoded internal keys),
  std::string largest;   // empty until a block passes.
  uint64_t max_sequence = 0;
};

/// The one table walker behind offload output verification, the
/// scrubber, salvage and RepairDB. It reads a table's data blocks in
/// index order, from a table file or from an in-memory image of the
/// data region (a device output table), and holds every block to the
/// same checks:
///  - the trailer CRC32C matches and the block decodes cleanly;
///  - the block has entries, and every key parses as an internal key;
///  - keys are strictly increasing within and across blocks;
///  - the block's index separator is an internal key, at least the
///    block's last key and less than the next block's first key.
class BlockWalker {
 public:
  /// Walks blocks read from `file`; reads tick IOStats like any table
  /// read. `icmp` orders internal keys.
  BlockWalker(RandomAccessFile* file, const Comparator* icmp)
      : file_(file), icmp_(icmp) {}
  /// Walks blocks stored in `image`, which must outlive the walker.
  BlockWalker(const Slice& image, const Comparator* icmp)
      : file_(nullptr), image_(image), icmp_(icmp) {}

  /// Reads the block `handle` addresses (any block: data, index or
  /// meta) and decodes it with its trailer CRC checked.
  Status ReadBlock(const BlockHandle& handle, BlockContents* contents) const;

  /// Reads the next data block and checks it against the walk so far;
  /// `separator` is its index key. On success the stats cover the block
  /// and `entries` (nullable) holds its (key, value) pairs. On failure
  /// the walk is unchanged, so a caller may drop the block and go on.
  /// `filter` (nullable) gets StartBlock(handle.offset()) and each key as
  /// it is walked, so one walk both checks a table and builds its filter
  /// block; a failed block may leave part of its keys there, so a caller
  /// that passes one discards the filter with a failed walk.
  Status NextBlock(const Slice& separator, const BlockHandle& handle,
                   std::vector<std::pair<std::string, std::string>>* entries,
                   FilterBlockBuilder* filter = nullptr);

  const BlockWalkStats& stats() const { return stats_; }

 private:
  RandomAccessFile* const file_;  // Null when walking an image.
  const Slice image_;
  const Comparator* const icmp_;
  BlockWalkStats stats_;
  std::string separator_;  // Index key of the last block that passed.
};

/// What the scrubber expects a live table to look like, straight from
/// the manifest. Every field is optional; an unset field skips its
/// check (RepairDB, which has no manifest, sets none).
struct TableVerifySpec {
  /// Manifest-recorded size (0 = skip); a mismatch is corruption before
  /// any byte of content is examined.
  uint64_t file_size = 0;
  /// Manifest-recorded whole-file crc32c (absent for files installed
  /// before checksums were recorded).
  bool has_file_checksum = false;
  uint32_t file_checksum = 0;
  /// Manifest-recorded bounds (encoded internal keys). Empty = skip.
  std::string smallest;
  std::string largest;
  /// When non-null, the whole-file checksum pass charges its reads to
  /// the low-priority lane so scrubbing yields to real work.
  RateLimiter* rate_limiter = nullptr;
};

/// Accounting for one verification pass; valid even when the returned
/// status is corruption (it then describes how far the pass got).
struct TableVerifyReport {
  uint64_t bytes = 0;   // Bytes covered by the whole-file checksum pass.
  BlockWalkStats walk;  // What the structural walk passed.
};

/// Verifies one on-disk table against its manifest spec, in escalating
/// depth (DESIGN.md §14): (1) file size, (2) whole-file crc32c vs the
/// recorded install-time checksum, (3) a structural walk — footer, the
/// trailer CRCs of the index, metaindex and meta (filter) blocks, every
/// data block through a BlockWalker, and first/last key within the
/// manifest bounds. Keys are ordered by options.comparator, the
/// InternalKeyComparator once the DB has sanitized its options. Returns
/// OK when all applicable checks pass and Corruption on the first
/// failure; other status codes mean the file could not be examined
/// (e.g. IO error), not that it is damaged.
[[nodiscard]] Status VerifyTable(Env* env, const Options& options,
                                 const std::string& fname,
                                 const TableVerifySpec& spec,
                                 TableVerifyReport* report);

/// What SalvageTable managed to rescue.
struct SalvageResult {
  BlockWalkStats walk;         // The blocks copied to the salvage table.
  uint64_t dropped_blocks = 0; // Data blocks that failed the walk.
  uint64_t file_size = 0;
  uint32_t file_checksum = 0;  // Whole-file crc32c of the salvage table.
};

/// Rescues what is still readable from a corrupt table: walks the data
/// blocks the index names with a BlockWalker and copies the entries of
/// every block that passes into a fresh table at `dst_fname`, dropping
/// the rest. The salvage output's key range is a subset of the
/// source's, so it can legally be re-installed at the same level.
/// Returns non-OK only when nothing can be rescued at all (unreadable
/// footer/index) or writing the output fails; when it returns OK with
/// no entries in result->walk, no output file exists and the caller
/// should simply drop the source from the version.
[[nodiscard]] Status SalvageTable(Env* env, const Options& options,
                                  const std::string& src_fname,
                                  uint64_t src_file_size,
                                  const std::string& dst_fname,
                                  SalvageResult* result);

}  // namespace fcae

#endif  // FCAE_TABLE_TABLE_VERIFIER_H_
