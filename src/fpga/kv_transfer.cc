#include "fpga/kv_transfer.h"

#include <algorithm>

#include "fpga/comparer.h"
#include "fpga/decoder.h"

namespace fcae {
namespace fpga {

namespace {
uint64_t CeilDiv(uint64_t a, uint64_t b) { return (a + b - 1) / b; }

// Internal key = user key + 8-byte mark ((sequence << 8) | type).
Slice UserKeyOf(const Slice& internal_key) {
  return internal_key.size() >= 8
             ? Slice(internal_key.data(), internal_key.size() - 8)
             : internal_key;
}
}  // namespace

KeyValueTransfer::KeyValueTransfer(const EngineConfig& config,
                                   Comparer* comparer,
                                   std::vector<InputDecoder*> inputs,
                                   const KeyBounds* bounds)
    : config_(config),
      comparer_(comparer),
      inputs_(std::move(inputs)),
      bounds_(bounds != nullptr && bounds->active() ? bounds : nullptr),
      out_fifo_(static_cast<size_t>(config.record_fifo_depth)) {}

void KeyValueTransfer::Tick() {
  if (record_ready_) {
    if (pending_drop_) {
      record_ready_ = false;  // Discarded; nothing to forward.
    } else if (out_fifo_.CanPush()) {
      out_fifo_.Push(std::move(pending_record_));
      record_ready_ = false;
    } else {
      return;  // Encoder backpressure.
    }
  }

  if (busy_ > 0) {
    busy_--;
    busy_cycles_++;
    if (busy_ > 0) return;
    record_ready_ = true;
    // Try to complete in the same cycle the timer expires.
    if (pending_drop_) {
      record_ready_ = false;
    } else if (out_fifo_.CanPush()) {
      out_fifo_.Push(std::move(pending_record_));
      record_ready_ = false;
    }
    return;
  }

  if (!comparer_->selections().CanPop()) {
    return;
  }
  const Selection& sel = comparer_->selections().Front();
  Fifo<KvRecord>& source = inputs_[sel.input_no]->records_for_transfer();
  if (source.Empty()) {
    // The copy stream lags the key stream by at most the decoder's
    // publish step; wait for it.
    return;
  }
  Selection selection = comparer_->selections().Pop();
  pending_record_ = source.Pop();
  if (!selection.drop && bounds_ != nullptr &&
      !bounds_->Contains(UserKeyOf(pending_record_.internal_key))) {
    // Out-of-shard record leaked in by block-granular staging: discard
    // it here, exactly where a validity-check drop is discarded.
    selection.drop = true;
    bounds_dropped_++;
  }
  pending_drop_ = selection.drop;
  if (selection.drop) {
    dropped_++;
  } else {
    transferred_++;
  }

  const uint64_t key_cycles = selection.key_length;
  const uint64_t value_cycles =
      CeilDiv(selection.value_length, config_.EffectiveValueWidth());
  if (config_.KeyValueSeparated()) {
    busy_ = std::max(key_cycles, value_cycles);
  } else {
    busy_ = key_cycles + selection.value_length;
  }
  if (busy_ == 0) busy_ = 1;
}

uint64_t KeyValueTransfer::QuietCycles() const {
  if (record_ready_) {
    return !pending_drop_ && !out_fifo_.CanPush() ? kQuietForever : 0;
  }
  if (busy_ > 0) return busy_ - 1;  // The last cycle forwards the record.
  const Fifo<Selection>& selections = comparer_->selections();
  if (!selections.CanPop() ||
      inputs_[selections.Front().input_no]->records_for_transfer().Empty()) {
    return kQuietForever;
  }
  return 0;
}

void KeyValueTransfer::SkipQuiet(uint64_t n) {
  if (busy_ > 0) {
    busy_ -= n;
    busy_cycles_ += n;
  }
}

bool KeyValueTransfer::Done() const {
  return busy_ == 0 && !record_ready_ && comparer_->Done() &&
         comparer_->selections().Empty();
}

}  // namespace fpga
}  // namespace fcae
