#include "fpga/comparer.h"

#include "fpga/decoder.h"
#include "util/comparator.h"

namespace fcae {
namespace fpga {

namespace {

uint64_t CeilLog2(uint64_t n) {
  uint64_t result = 0;
  uint64_t v = 1;
  while (v < n) {
    v <<= 1;
    result++;
  }
  return result;
}

}  // namespace

Comparer::Comparer(const EngineConfig& config,
                   std::vector<InputDecoder*> inputs,
                   uint64_t smallest_snapshot, bool drop_deletions)
    : config_(config),
      inputs_(std::move(inputs)),
      icmp_(BytewiseComparator()),
      validity_check_(BytewiseComparator(), smallest_snapshot,
                      drop_deletions),
      selection_fifo_(static_cast<size_t>(config.record_fifo_depth)) {}

void Comparer::Tick() {
  if (selection_ready_) {
    if (selection_fifo_.CanPush()) {
      selection_fifo_.Push(pending_);
      selection_ready_ = false;
    } else {
      return;
    }
  }

  if (busy_ > 0) {
    busy_--;
    busy_cycles_++;
    if (busy_ > 0) return;
    selection_ready_ = true;
    if (selection_fifo_.CanPush()) {
      selection_fifo_.Push(pending_);
      selection_ready_ = false;
    }
    return;
  }

  // Start a new selection: every non-exhausted input must present a key
  // at its stream head (the compare tree needs all lanes valid).
  int best = -1;
  for (size_t i = 0; i < inputs_.size(); i++) {
    InputDecoder* input = inputs_[i];
    if (input->key_stream().Empty()) {
      if (!input->Exhausted()) {
        wait_cycles_++;
        return;  // Lane not ready yet; wait.
      }
      continue;  // Fully drained lane: excluded from the tree.
    }
    if (best < 0 ||
        icmp_.Compare(input->key_stream().Front().internal_key,
                      inputs_[best]->key_stream().Front().internal_key) < 0) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) {
    return;  // Everything exhausted.
  }

  const KeyRef key = inputs_[best]->key_stream().Pop();
  pending_.input_no = best;
  pending_.key_length = static_cast<uint32_t>(key.internal_key.size());
  pending_.value_length = key.value_length;
  pending_.drop = validity_check_.ShouldDrop(key.internal_key);

  selections_made_++;
  if (pending_.drop) {
    drops_++;
  }

  // Table II/III period. Without key-value separation the full record
  // width moves through the compare network.
  uint64_t unit = pending_.key_length;
  if (!config_.KeyValueSeparated()) {
    unit += pending_.value_length;
  }
  busy_ = (2 + CeilLog2(static_cast<uint64_t>(config_.num_inputs))) * unit;
  if (busy_ == 0) busy_ = 1;
}

bool Comparer::WaitingForLane() const {
  for (const InputDecoder* input : inputs_) {
    if (input->key_stream().Empty() && !input->Exhausted()) return true;
  }
  return false;
}

uint64_t Comparer::QuietCycles() const {
  if (selection_ready_) {
    return selection_fifo_.CanPush() ? 0 : kQuietForever;
  }
  if (busy_ > 0) return busy_ - 1;  // The last cycle emits the selection.
  if (WaitingForLane()) return kQuietForever;
  for (const InputDecoder* input : inputs_) {
    if (!input->key_stream().Empty()) return 0;  // Starts a selection.
  }
  return kQuietForever;  // Every lane drained.
}

void Comparer::SkipQuiet(uint64_t n) {
  if (selection_ready_) return;
  if (busy_ > 0) {
    busy_ -= n;
    busy_cycles_ += n;
  } else if (WaitingForLane()) {
    wait_cycles_ += n;
  }
}

bool Comparer::Done() const {
  if (busy_ > 0 || selection_ready_) return false;
  for (const InputDecoder* input : inputs_) {
    if (!input->Exhausted()) return false;
    if (!input->key_stream().Empty()) return false;
  }
  return true;
}

}  // namespace fpga
}  // namespace fcae
