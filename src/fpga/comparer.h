#ifndef FCAE_FPGA_COMPARER_H_
#define FCAE_FPGA_COMPARER_H_

#include <cstdint>
#include <vector>

#include "fpga/config.h"
#include "fpga/kv_record.h"
#include "fpga/sim/fifo.h"
#include "lsm/dbformat.h"

namespace fcae {
namespace fpga {

class InputDecoder;

/// The Comparer module (paper Section V-A): the Key Compare tree selects
/// the smallest key across the N input key streams and the Validity
/// Check inspects its mark fields to decide whether the record survives
/// (drop superseded versions and obsolete deletion markers, by the
/// CompactionDropRule both CPU merges use). The result — input number +
/// drop flag — feeds the Key-Value Transfer.
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

  /// Quiet-cycle fast-forward; see InputDecoder::QuietCycles(). Unlike
  /// the other modules', SkipQuiet() reads the inputs' state (whether a
  /// lane is waited for), so it must run before an input's Tick().
  uint64_t QuietCycles() const;
  void SkipQuiet(uint64_t n);

  /// True when all inputs are exhausted and no selection is pending.
  bool Done() const;

  Fifo<Selection>& selections() { return selection_fifo_; }
  const Fifo<Selection>& selections() const { return selection_fifo_; }

  /// The input whose key stream the latest selection popped (0 before
  /// the first selection).
  int last_selected() const { return pending_.input_no; }

  uint64_t selections_made() const { return selections_made_; }
  uint64_t busy_cycles() const { return busy_cycles_; }
  uint64_t drops() const { return drops_; }
  uint64_t wait_cycles() const { return wait_cycles_; }

 private:
  /// True when some input has no key at its head yet but is not
  /// exhausted: the compare tree waits for it.
  bool WaitingForLane() const;

  const EngineConfig& config_;
  std::vector<InputDecoder*> inputs_;
  const InternalKeyComparator icmp_;  // Over bytewise user keys.
  CompactionDropRule validity_check_;

  Fifo<Selection> selection_fifo_;

  uint64_t busy_ = 0;
  bool selection_ready_ = false;
  Selection pending_;

  uint64_t selections_made_ = 0;
  uint64_t busy_cycles_ = 0;
  uint64_t drops_ = 0;
  uint64_t wait_cycles_ = 0;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_COMPARER_H_
