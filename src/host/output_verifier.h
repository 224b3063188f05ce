#ifndef FCAE_HOST_OUTPUT_VERIFIER_H_
#define FCAE_HOST_OUTPUT_VERIFIER_H_

#include <cstdint>

#include "fpga/device_memory.h"
#include "lsm/dbformat.h"
#include "util/status.h"

namespace fcae {
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
Status VerifyDeviceOutput(const fpga::DeviceOutput& output,
                          const InternalKeyComparator& icmp,
                          OutputVerifyStats* stats);

}  // namespace host
}  // namespace fcae

#endif  // FCAE_HOST_OUTPUT_VERIFIER_H_
