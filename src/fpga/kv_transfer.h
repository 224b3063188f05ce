#ifndef FCAE_FPGA_KV_TRANSFER_H_
#define FCAE_FPGA_KV_TRANSFER_H_

#include <cstdint>
#include <vector>

#include "fpga/config.h"
#include "fpga/kv_record.h"
#include "fpga/sim/fifo.h"

namespace fcae {
namespace fpga {

class Comparer;
class InputDecoder;

/// The Key-Value Transfer module (paper Fig. 4): consumes the Comparer's
/// selections, pops the matching record from the selected input's
/// copy-key/value FIFOs, and forwards surviving records toward the
/// Encoder. Dropped records are consumed and discarded here — the FIFO
/// element can be used only once, so even dropped entries must be
/// popped.
///
/// Timing: with key-value separation the key and value move on parallel
/// paths, so the period is max(L_key, ceil(L_value / V)); without it the
/// record moves serially: L_key + L_value (Tables II/III).
class KeyValueTransfer {
 public:
  /// `bounds`, when non-null and active, restricts the output to user
  /// keys in (bounds->lower, bounds->upper]: records outside are
  /// consumed and discarded exactly like validity-check drops (staging
  /// trims at block granularity only, so boundary blocks leak a few
  /// out-of-shard records the transfer must filter). Borrowed; must
  /// outlive the run.
  KeyValueTransfer(const EngineConfig& config, Comparer* comparer,
                   std::vector<InputDecoder*> inputs,
                   const KeyBounds* bounds = nullptr);

  KeyValueTransfer(const KeyValueTransfer&) = delete;
  KeyValueTransfer& operator=(const KeyValueTransfer&) = delete;

  void Tick();

  /// Quiet-cycle fast-forward; see InputDecoder::QuietCycles().
  uint64_t QuietCycles() const;
  void SkipQuiet(uint64_t n);

  bool Done() const;

  /// Surviving records headed to the Data Block Encoder.
  Fifo<KvRecord>& output() { return out_fifo_; }
  const Fifo<KvRecord>& output() const { return out_fifo_; }

  uint64_t transferred() const { return transferred_; }
  uint64_t busy_cycles() const { return busy_cycles_; }
  uint64_t dropped() const { return dropped_; }
  /// Subset of dropped(): records discarded by the shard bounds filter
  /// rather than by the Validity Check.
  uint64_t bounds_dropped() const { return bounds_dropped_; }

 private:
  const EngineConfig& config_;
  Comparer* comparer_;
  std::vector<InputDecoder*> inputs_;
  const KeyBounds* const bounds_;

  Fifo<KvRecord> out_fifo_;

  uint64_t busy_ = 0;
  bool record_ready_ = false;
  bool pending_drop_ = false;
  KvRecord pending_record_;

  uint64_t transferred_ = 0;
  uint64_t busy_cycles_ = 0;
  uint64_t dropped_ = 0;
  uint64_t bounds_dropped_ = 0;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_KV_TRANSFER_H_
