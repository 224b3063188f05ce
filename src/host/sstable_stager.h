#ifndef FCAE_HOST_SSTABLE_STAGER_H_
#define FCAE_HOST_SSTABLE_STAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/config.h"
#include "fpga/device_memory.h"
#include "util/slice.h"
#include "util/status.h"

namespace fcae {

class Env;
class FilterPolicy;
class RateLimiter;

namespace host {

/// Builds the device input images of Section VI-B from on-disk
/// SSTables: for each file, the index block (as stored, including its
/// compression trailer) goes to Index Block Memory and the file's
/// data-block region goes verbatim to Data Block Memory, so the
/// BlockHandles inside the index address the staged region directly and
/// the storage format needs no modification.
class SstableStager {
 public:
  explicit SstableStager(Env* env) : env_(env) {}

  /// Appends the table stored in `fname` to `input` as its next
  /// SSTable. Tables in one DeviceInput must form a sorted run in the
  /// order added (paper Section IV step 2: a level's tables are
  /// concatenated into one big input).
  ///
  /// `bounds`, when non-null and active, trims the staging to the data
  /// blocks that can hold user keys in (lower, upper]: the contiguous
  /// run of overlapping blocks is staged (trimming is block-granular
  /// and conservative — boundary blocks stay, and the engine's
  /// Key-Value Transfer filters the leaked records) together with a
  /// rebuilt index block whose handles are rebased to the trimmed
  /// region. A table entirely outside the bounds stages nothing and
  /// adds no descriptor.
  Status AddTable(const std::string& fname, fpga::DeviceInput* input,
                  const fpga::KeyBounds* bounds = nullptr);

  /// Stages a job's sorted runs into `inputs`, one DeviceInput per run,
  /// with the same bytes and descriptors as AddTable file by file. Every
  /// file is planned first (footer, index, descriptor, and its offset in
  /// its run's image), each run's data memory is sized once, and then
  /// the files' data regions are read straight into place on all cores
  /// (ForkJoin), one task per file: an L0->L1 job's level-1 run dwarfs
  /// its level-0 runs, so a task per run would leave the cores idle.
  /// `bounds` trims each file as in AddTable. Returns the first failing
  /// file's error, in run and file order.
  Status StageRuns(const std::vector<std::vector<std::string>>& runs,
                   const fpga::KeyBounds* bounds,
                   std::vector<fpga::DeviceInput>* inputs);

 private:
  Env* env_;
};

/// Assembles a standard SSTable file from one device output table: the
/// engine's data blocks verbatim, a host-built metaindex + index block
/// from the returned index entries, and the footer (the paper's
/// Section V-B: "the host is in charge of combining data blocks with
/// index blocks into new formatted SSTables"). When `filter_policy` is
/// non-null, `filter_block` is written as the table's filter block and
/// named "filter.<policy name>" in the metaindex; the engine computes no
/// filters, so the host builds it in VerifyDeviceOutput's walk of the
/// table, and offloaded compactions keep the same read-path behaviour
/// as software ones. Returns the final file size in *file_size.
/// `rate_limiter`, when non-null, throttles the writeback on the
/// low-priority lane (assembly is compaction output, same as the CPU
/// executor's). When `file_checksum` is non-null it receives the
/// whole-file crc32c of the assembled image — the offload install
/// site's contribution to the manifest's integrity ground truth,
/// computed over the *host-assembled* bytes, after the data blocks
/// crossed the DMA boundary back from the device.
Status AssembleTableFile(Env* env, const std::string& fname,
                         const fpga::DeviceOutputTable& table,
                         uint64_t* file_size,
                         const FilterPolicy* filter_policy = nullptr,
                         const Slice& filter_block = Slice(),
                         RateLimiter* rate_limiter = nullptr,
                         uint32_t* file_checksum = nullptr);

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_SSTABLE_STAGER_H_
