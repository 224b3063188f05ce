#ifndef FCAE_FPGA_DEVICE_MEMORY_H_
#define FCAE_FPGA_DEVICE_MEMORY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace fcae {
namespace fpga {

// The host/device memory interface of Section VI-B (Figs. 7 and 8).
// Because the engine's Index and Data Block Decoders/Encoders are
// separated, index blocks and data blocks live in distinct memory
// regions, and a MetaIn/MetaOut block carries the bookkeeping.

/// Placement of one input SSTable inside the staged memory regions.
/// Offsets are relative to the owning DeviceInput's region starts. The
/// staged bytes are the *unmodified* on-disk representation: the index
/// block as stored in the file (with its compression trailer), and the
/// file's data-block region verbatim, so the BlockHandles inside the
/// index block address the data region directly.
struct SstableDescriptor {
  uint64_t index_offset = 0;  // Into the input's index block memory.
  uint64_t index_size = 0;    // Block bytes + 5-byte trailer.
  uint64_t data_offset = 0;   // Into the input's data block memory.
  uint64_t data_size = 0;     // Whole data-block region of the file.
};

/// One compaction input: a sorted run of one or more SSTables (level-0
/// inputs have exactly one table each; a level>=1 input concatenates the
/// level's participating tables, paper Section IV step 2).
struct DeviceInput {
  std::vector<SstableDescriptor> sstables;  // MetaIn contents.
  std::string index_memory;                 // Fig. 7 Index Block Memory.
  std::string data_memory;                  // Fig. 7 Data Block Memory.

  uint64_t TotalBytes() const {
    return index_memory.size() + data_memory.size();
  }
};

/// One index entry produced by the Index Block Encoder: the largest key
/// in the block plus the handle of the block in the output data memory.
struct OutputIndexEntry {
  std::string last_key;  // Internal key (user key + mark).
  uint64_t offset = 0;   // Into the owning output table's data memory.
  uint64_t size = 0;     // Block bytes (without trailer).
};

/// Appends `entries` to *dst as one stored index block, the format of
/// Fig. 7's Index Block Memory and of a table file's index: one restart
/// per entry (restart interval 1), keys in bytewise internal-key order,
/// each value the entry's BlockHandle, and a kNoCompression trailer.
/// The stager's trimmed input indexes, the tournament's re-staged
/// intermediates and the host-assembled output tables all encode here.
void AppendIndexBlock(const std::vector<OutputIndexEntry>& entries,
                      std::string* dst);

/// One output SSTable assembled on the device. MetaOut additionally
/// records the smallest and largest key of each table, which the host
/// needs for the version edit (paper Section V-A: "the smallest and the
/// largest key of each SSTable are also recorded").
struct DeviceOutputTable {
  std::string data_memory;  // Encoded data blocks + trailers.
  std::vector<OutputIndexEntry> index_entries;
  std::string smallest_key;  // Internal keys.
  std::string largest_key;
  uint64_t num_entries = 0;  // Key-value pairs in the table.
};

/// MetaOut: everything returned to the host besides the raw block bytes.
struct DeviceOutput {
  std::vector<DeviceOutputTable> tables;

  uint64_t TotalBytes() const {
    uint64_t total = 0;
    for (const DeviceOutputTable& t : tables) {
      total += t.data_memory.size();
      for (const OutputIndexEntry& e : t.index_entries) {
        total += e.last_key.size() + 16;
      }
    }
    return total;
  }
};

/// Serializes MetaIn descriptors to the flat layout DMA'd to the card
/// (Fig. 8): #SSTables then per-table offsets/sizes.
void EncodeMetaIn(const std::vector<SstableDescriptor>& sstables,
                  std::string* dst);
Status DecodeMetaIn(const Slice& src, std::vector<SstableDescriptor>* out);

/// Serializes one output table's index entries for the return DMA.
void EncodeOutputIndex(const std::vector<OutputIndexEntry>& entries,
                       std::string* dst);
Status DecodeOutputIndex(const Slice& src,
                         std::vector<OutputIndexEntry>* out);

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_DEVICE_MEMORY_H_
