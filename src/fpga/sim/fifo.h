#ifndef FCAE_FPGA_SIM_FIFO_H_
#define FCAE_FPGA_SIM_FIFO_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>

namespace fcae {
namespace fpga {

/// QuietCycles() of a pipeline module that stays quiet until another
/// module moves a FIFO entry (see CompactionEngine::Run).
constexpr uint64_t kQuietForever = ~0ull;

/// A bounded FIFO connecting two pipeline modules. The paper builds the
/// inter-module channels from on-chip FIFOs because "the element in FIFO
/// can be used only once" and FIFOs "are easier to be synchronized"
/// (Section V-C); this model provides the same single-consumer,
/// backpressured semantics with 1-cycle access.
template <typename T>
class Fifo {
 public:
  explicit Fifo(size_t capacity) : capacity_(capacity) {}

  Fifo(const Fifo&) = delete;
  Fifo& operator=(const Fifo&) = delete;

  bool CanPush() const { return items_.size() < capacity_; }
  bool CanPop() const { return !items_.empty(); }
  bool Empty() const { return items_.empty(); }
  bool Full() const { return items_.size() >= capacity_; }
  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }

  void Push(T item) {
    assert(CanPush());
    items_.push_back(std::move(item));
    if (items_.size() > high_water_) {
      high_water_ = items_.size();
    }
  }

  const T& Front() const {
    assert(CanPop());
    return items_.front();
  }

  T Pop() {
    assert(CanPop());
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Maximum occupancy observed; used for BRAM sizing in the resource
  /// model and for diagnostics.
  size_t HighWater() const { return high_water_; }

 private:
  const size_t capacity_;
  size_t high_water_ = 0;
  std::deque<T> items_;
};

}  // namespace fpga
}  // namespace fcae

#endif  // FCAE_FPGA_SIM_FIFO_H_
