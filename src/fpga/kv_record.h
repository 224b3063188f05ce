#ifndef FCAE_FPGA_KV_RECORD_H_
#define FCAE_FPGA_KV_RECORD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/slice.h"

namespace fcae {
namespace fpga {

/// One decoded key-value pair flowing through the engine pipeline. The
/// key is a full internal key: user key bytes followed by the 8-byte
/// mark field ((sequence << 8) | type), exactly the paper's "real key
/// plus mark fields ... treated as a whole in Decoder and Encoder".
///
/// The decoder decodes each fetched data block once into one buffer,
/// `block`, holding every record's key and value back to back; both
/// slices point into it, and every record of the block shares its
/// ownership, so the buffer is freed when the block's last record has
/// left the pipeline (encoded, or discarded by the Key-Value Transfer).
struct KvRecord {
  Slice internal_key;
  Slice value;
  std::shared_ptr<const std::string> block;
};

/// A key stream entry: what the Comparer needs of a record (paper
/// Fig. 4). The key points into the block of the matching KvRecord,
/// which the Key-Value Transfer pops only after the Comparer has popped
/// this entry.
struct KeyRef {
  Slice internal_key;
  uint32_t value_length = 0;
};

/// The Comparer's selection result handed to the Key-Value Transfer
/// module: which input holds the current smallest key, and whether the
/// Validity Check decided to drop it (paper Section V-A: "the Drop flag
/// is sent to Key-Value Transfer ... the Input No. should be sent as
/// well").
struct Selection {
  int input_no = 0;
  bool drop = false;
  // Service-time parameters captured at selection time.
  uint32_t key_length = 0;
  uint32_t value_length = 0;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_KV_RECORD_H_
