#ifndef FCAE_HOST_OUTPUT_VERIFIER_H_
#define FCAE_HOST_OUTPUT_VERIFIER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/device_memory.h"
#include "lsm/dbformat.h"
#include "util/status.h"

namespace fcae {

class FilterPolicy;

namespace host {

struct OutputVerifyStats {
  uint64_t tables = 0;
  uint64_t blocks = 0;
  uint64_t entries = 0;
};

/// Verifies every table of a device output before any of it can become
/// an SSTable. Every data block goes through the table walker
/// (table/table_verifier.h: trailer CRC32C, clean decode, internal keys
/// strictly increasing across the whole table, separators bracketing
/// their blocks). On top, the device-only checks:
///  - each table's blocks tile its returned data memory in order,
///    without gaps, overlap or trailing bytes;
///  - each block's last key equals its index entry's separator;
///  - each table's first/last keys match MetaOut's smallest/largest
///    bounds, and its record count matches MetaOut's num_entries;
///  - the tables form one sorted run, without overlap.
/// Any violation returns Status::Corruption: a silently corrupt device
/// result can never reach the manifest.
///
/// The tables are checked in parallel (ForkJoin), the run order after
/// the join; when several fail, the lowest table's failure is returned,
/// as a walk in table order would find it first.
///
/// When `filter_policy` is non-null, the same walk feeds every key to
/// its table's filter builder, and `filter_blocks` receives one
/// finished filter block per table, in table order, for
/// AssembleTableFile: an offloaded table's filter is built from the
/// blocks verification just passed, never by a second walk. On failure
/// `filter_blocks` is left as it was.
Status VerifyDeviceOutput(const fpga::DeviceOutput& output,
                          const InternalKeyComparator& icmp,
                          OutputVerifyStats* stats,
                          const FilterPolicy* filter_policy = nullptr,
                          std::vector<std::string>* filter_blocks = nullptr);

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_OUTPUT_VERIFIER_H_
