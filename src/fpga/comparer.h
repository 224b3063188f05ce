#ifndef FCAE_FPGA_COMPARER_H_
#define FCAE_FPGA_COMPARER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fpga/config.h"
#include "fpga/kv_record.h"
#include "fpga/sim/fifo.h"

namespace fcae {
namespace fpga {

class InputDecoder;

/// The Comparer module (paper Section V-A): the Key Compare tree selects
/// the smallest key across the N input key streams and the Validity
/// Check inspects its mark fields to decide whether the record survives
/// (drop superseded versions and obsolete deletion markers). The result
/// — input number + drop flag — feeds the Key-Value Transfer.
///
/// Timing: (2 + ceil(log2 N)) * L_key cycles per selection ("key read +
/// key compare + check key if existing", Table II); when key-value
/// separation is disabled the whole record (key + value) moves through
/// the compare datapath, inflating L_key to L_key + L_value.
class Comparer {
 public:
  Comparer(const EngineConfig& config, std::vector<InputDecoder*> inputs,
           uint64_t smallest_snapshot, bool drop_deletions);

  Comparer(const Comparer&) = delete;
  Comparer& operator=(const Comparer&) = delete;

  void Tick();

  /// Quiet-cycle fast-forward; see InputDecoder::QuietCycles().
  uint64_t QuietCycles() const;
  void SkipQuiet(uint64_t n);

  /// True when all inputs are exhausted and no selection is pending.
  bool Done() const;

  Fifo<Selection>& selections() { return selection_fifo_; }
  const Fifo<Selection>& selections() const { return selection_fifo_; }

  uint64_t selections_made() const { return selections_made_; }
  uint64_t busy_cycles() const { return busy_cycles_; }
  uint64_t drops() const { return drops_; }
  uint64_t wait_cycles() const { return wait_cycles_; }

 private:
  /// Compares two internal keys: user key ascending, mark descending.
  static int CompareInternalKeys(const std::string& a, const std::string& b);

  /// The Validity Check: decides whether the selected record is dropped.
  bool CheckDrop(const std::string& internal_key);

  /// True when some input has no key at its head yet but is not
  /// exhausted: the compare tree waits for it.
  bool WaitingForLane() const;

  const EngineConfig& config_;
  std::vector<InputDecoder*> inputs_;
  const uint64_t smallest_snapshot_;
  const bool drop_deletions_;

  Fifo<Selection> selection_fifo_;

  uint64_t busy_ = 0;
  bool selection_ready_ = false;
  Selection pending_;

  // Validity Check state: tracks the user key last seen and the
  // sequence of its previous occurrence (identical rule to the CPU
  // executor so both paths produce the same output tables).
  std::string current_user_key_;
  bool has_current_user_key_ = false;
  uint64_t last_sequence_for_key_ = ~0ull;

  uint64_t selections_made_ = 0;
  uint64_t busy_cycles_ = 0;
  uint64_t drops_ = 0;
  uint64_t wait_cycles_ = 0;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_COMPARER_H_
