#ifndef FCAE_FPGA_SIM_FIFO_H_
#define FCAE_FPGA_SIM_FIFO_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace fcae {
namespace fpga {

/// QuietCycles() of a pipeline module that stays quiet until another
/// module moves a FIFO entry (see CompactionEngine::Run).
constexpr uint64_t kQuietForever = ~0ull;

/// A bounded FIFO connecting two pipeline modules. The paper builds the
/// inter-module channels from on-chip FIFOs because "the element in FIFO
/// can be used only once" and FIFOs "are easier to be synchronized"
/// (Section V-C); this model provides the same single-consumer,
/// backpressured semantics with 1-cycle access. Like the hardware, it is
/// a fixed ring of `capacity` slots: pushes and pops never allocate.
template <typename T>
class Fifo {
 public:
  explicit Fifo(size_t capacity) : slots_(capacity) {}

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  bool CanPush() const { return size_ < slots_.size(); }
  bool CanPop() const { return size_ > 0; }
  bool Empty() const { return size_ == 0; }
  bool Full() const { return size_ >= slots_.size(); }
  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

  void Push(T item) {
    assert(CanPush());
    size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(item);
    size_++;
    if (size_ > high_water_) {
      high_water_ = size_;
    }
  }

  const T& Front() const {
    assert(CanPop());
    return slots_[head_];
  }

  T Pop() {
    assert(CanPop());
    T item = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    size_--;
    return item;
  }

  /// Maximum occupancy observed; used for BRAM sizing in the resource
  /// model and for diagnostics.
  size_t HighWater() const { return high_water_; }

 private:
  std::vector<T> slots_;
  size_t head_ = 0;  // Slot of the oldest entry.
  size_t size_ = 0;
  size_t high_water_ = 0;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_SIM_FIFO_H_
